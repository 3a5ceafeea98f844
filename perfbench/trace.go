package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int64 // id of the causing span, -1 for a root
}

// lane holds the spans of one goroutine (a pool worker, a rank, or the
// main goroutine). A lane is only ever used by one goroutine at a time, so
// recording takes no lock.
type lane struct {
	spans []span
	open  []int32 // indices of spans begun and not yet ended
}

// tracer records spans in memory and writes them out when the run ends.
// A disabled tracer records nothing; its calls cost one branch.
type tracer struct {
	on    bool
	epoch time.Time
	lanes []*lane
	// outer is the id of the span that caused work handed to other lanes
	// (a pool sweep whose bodies run on the workers): a lane with no open
	// span parents its new spans here.
	outer atomic.Int64
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	t.outer.Store(-1)
	return t
}

// ensureLanes makes lanes 0..n-1 available. Call before handing lanes to
// goroutines.
func (t *tracer) ensureLanes(n int) {
	for len(t.lanes) < n {
		t.lanes = append(t.lanes, &lane{})
	}
}

func spanID(l, idx int) int64 { return int64(l)<<32 | int64(idx) }

// begin opens a span on lane l and returns its handle.
func (t *tracer) begin(l int, name string) int {
	if t == nil || !t.on {
		return -1
	}
	ln := t.lanes[l]
	parent := t.outer.Load()
	if n := len(ln.open); n > 0 {
		parent = spanID(l, int(ln.open[n-1]))
	}
	ln.spans = append(ln.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent})
	idx := len(ln.spans) - 1
	ln.open = append(ln.open, int32(idx))
	return idx
}

// end closes the span begun on lane l.
func (t *tracer) end(l, idx int) {
	if idx < 0 {
		return
	}
	ln := t.lanes[l]
	ln.spans[idx].end = int64(time.Since(t.epoch))
	ln.open = ln.open[:len(ln.open)-1]
}

// setOuter makes the open span idx on lane l the parent of spans begun on
// lanes with nothing open; it returns the previous outer span.
func (t *tracer) setOuter(l, idx int) int64 {
	if idx < 0 {
		return t.outer.Load()
	}
	return t.outer.Swap(spanID(l, idx))
}

func (t *tracer) restoreOuter(prev int64) {
	if t != nil && t.on {
		t.outer.Store(prev)
	}
}

// spanStats aggregates every span of one name.
type spanStats struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // sum of durations minus what child spans cover
	durs  []time.Duration
}

// stats computes per-name totals and self times. A span's self time is
// its duration minus the part of its interval covered by the union of
// its children's intervals.
func (t *tracer) stats() map[string]*spanStats {
	children := map[int64][][2]int64{}
	for _, ln := range t.lanes {
		for _, s := range ln.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
			}
		}
	}
	out := map[string]*spanStats{}
	for l, ln := range t.lanes {
		for i, s := range ln.spans {
			st := out[s.name]
			if st == nil {
				st = &spanStats{}
				out[s.name] = st
			}
			d := time.Duration(s.end - s.start)
			st.count++
			st.total += d
			st.self += d - time.Duration(covered(children[spanID(l, i)], s.start, s.end))
			st.durs = append(st.durs, d)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, curLo, curHi int64 = 0, -1, -1
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// write stores every span as tab-separated (run, id, parent, lane, name,
// start_ns, end_ns) lines, replacing the previous trace of the workload.
func (t *tracer) write(path, runID string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run\tid\tparent\tlane\tname\tstart_ns\tend_ns")
	for l, ln := range t.lanes {
		for i, s := range ln.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%d\n", runID, spanID(l, i), s.parent, l, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
