package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// OneSided implements the PGAS-style one-sided communication model of the
// paper's future work (GASPI / GPI-2, reference [14]): ranks register
// float64 memory segments (the factor matrices); a remote rank Puts
// values directly at an offset in a destination segment together with a
// notification id, and the target waits on notification *counts* instead
// of matching messages. Compared with two-sided messaging this removes
// the receive-side matching queue and per-message buffer management:
// arriving payloads are written straight into the registered factor-row
// memory by the window's dispatcher.
//
// Built on the same Transport as the two-sided layer (tag space is
// shared; one-sided traffic uses the dedicated oneSidedTag).
type OneSided struct {
	c *Comm

	mu       sync.Mutex
	cond     *sync.Cond
	segments map[int][]float64
	notified map[int]int64 // notification id -> cumulative count
	err      error         // why the dispatcher stopped; nil while it runs
	done     chan struct{}
}

// oneSidedTag is the reserved tag for one-sided traffic (top of the user
// range, below the collective space).
const oneSidedTag = collectiveTagBase - 1

// putHeaderSize is [4B segment][8B element offset][4B notification id].
const putHeaderSize = 16

// closeSegment is the sentinel segment id used to stop the dispatcher.
const closeSegment = -1

// errWindowClosed is the dispatcher's stop reason after Close.
var errWindowClosed = errors.New("comm: one-sided window closed")

// NewOneSided attaches a one-sided window to the communicator and starts
// its dispatcher. Attach at most one OneSided per Comm, before any Put
// traffic flows.
func NewOneSided(c *Comm) *OneSided {
	o := &OneSided{
		c:        c,
		segments: map[int][]float64{},
		notified: map[int]int64{},
		done:     make(chan struct{}),
	}
	o.cond = sync.NewCond(&o.mu)
	go o.dispatch()
	return o
}

// Register exposes buf as segment id for remote Puts. Registering an
// existing id replaces the segment.
func (o *OneSided) Register(id int, buf []float64) {
	if id < 0 {
		panic("comm: negative one-sided segment ids are reserved")
	}
	o.mu.Lock()
	o.segments[id] = buf
	o.mu.Unlock()
}

// Put writes data into segment segID at element offset off on rank dst
// and increments dst's counter for notifyID (GASPI write+notify).
// Completion is asynchronous; per-pair ordering is preserved by the
// transport. Send errors (a failed or closed endpoint) are returned.
func (o *OneSided) Put(dst, segID int, off int64, data []float64, notifyID int) error {
	msg := make([]byte, putHeaderSize, putHeaderSize+8*len(data))
	binary.LittleEndian.PutUint32(msg[0:], uint32(segID))
	binary.LittleEndian.PutUint64(msg[4:], uint64(off))
	binary.LittleEndian.PutUint32(msg[12:], uint32(notifyID))
	return o.c.Send(dst, oneSidedTag, AppendFloat64s(msg, data))
}

// dispatch runs the dispatcher loop, then wakes every WaitNotify with
// the reason it stopped.
func (o *OneSided) dispatch() {
	err := o.apply()
	o.mu.Lock()
	o.err = err
	o.cond.Broadcast()
	o.mu.Unlock()
	close(o.done)
}

// apply writes incoming Puts directly into registered memory until the
// close sentinel arrives or the endpoint fails or closes. A malformed
// Put fails the endpoint, so the rank's other operations unwind too.
func (o *OneSided) apply() error {
	for {
		m, err := o.c.Recv(AnySource, oneSidedTag)
		if err != nil {
			return err
		}
		if len(m.Data) < putHeaderSize || (len(m.Data)-putHeaderSize)%8 != 0 {
			err := fmt.Errorf("comm: one-sided Put of %d bytes from rank %d is malformed", len(m.Data), m.Src)
			o.c.Fail(err)
			return err
		}
		segID := int(int32(binary.LittleEndian.Uint32(m.Data[0:])))
		if segID == closeSegment {
			return errWindowClosed
		}
		off := int64(binary.LittleEndian.Uint64(m.Data[4:]))
		notifyID := int(binary.LittleEndian.Uint32(m.Data[12:]))
		payload := m.Data[putHeaderSize:]
		n := int64(len(payload) / 8)
		o.mu.Lock()
		seg, ok := o.segments[segID]
		if !ok || off < 0 || off > int64(len(seg))-n {
			o.mu.Unlock()
			err := fmt.Errorf("comm: one-sided Put from rank %d outside registered memory (segment %d, offset %d, %d values)",
				m.Src, segID, off, n)
			o.c.Fail(err)
			return err
		}
		_ = DecodeFloat64sInto(seg[off:off+n], payload) // lengths checked above
		o.notified[notifyID]++
		o.cond.Broadcast()
		o.mu.Unlock()
	}
}

// WaitNotify blocks until notifyID's cumulative counter reaches at least
// count and returns its value. Use distinct ids per phase (the engine
// keys them by iteration and side). It returns an error once the
// dispatcher has stopped (a failed or closed endpoint, a malformed Put,
// or Close) with the counter still short.
func (o *OneSided) WaitNotify(notifyID int, count int64) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.notified[notifyID] < count {
		if o.err != nil {
			return o.notified[notifyID], o.err
		}
		o.cond.Wait()
	}
	return o.notified[notifyID], nil
}

// NotifyCount returns notifyID's current counter without blocking.
func (o *OneSided) NotifyCount(notifyID int) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.notified[notifyID]
}

// Close stops the dispatcher (via a self-addressed sentinel Put) and
// waits for it to exit. The underlying Comm stays usable. On a failed or
// closed endpoint the sentinel cannot be sent, but the dispatcher has
// already exited or is about to.
func (o *OneSided) Close() {
	msg := make([]byte, putHeaderSize)
	binary.LittleEndian.PutUint32(msg[0:], uint32(0xffffffff)) // segID -1
	_ = o.c.Send(o.c.Rank(), oneSidedTag, msg)
	<-o.done
}
