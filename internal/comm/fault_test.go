package comm

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// fault_test.go exercises the failure layer: failing sends and
// receives, the heartbeat detector, the deterministic fault fabric, and
// the TCP transport's reaction to a peer dying mid-frame.

func TestSendEAfterCloseErrors(t *testing.T) {
	f := NewFabric(2)
	c := f.Comms()[0]
	f.Close()
	if err := c.Send(1, 0, []byte("x")); err == nil {
		t.Fatal("Send on a closed endpoint must error")
	}
}

func TestSendEInvalidDestination(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	if err := f.Comms()[0].Send(5, 0, nil); err == nil {
		t.Fatal("Send to an out-of-range rank must error")
	}
	if err := f.Comms()[0].Send(-1, 0, nil); err == nil {
		t.Fatal("Send to a negative rank must error")
	}
}

func TestRecvTimeoutFires(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	start := time.Now()
	_, err := f.Comms()[0].RecvTimeout(1, 7, 30*time.Millisecond)
	if err != ErrRecvTimeout {
		t.Fatalf("got %v, want ErrRecvTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout receive took far longer than its deadline")
	}
}

func TestRecvTimeoutDeliversPendingMessage(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	if err := f.Comms()[1].Send(0, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	m, err := f.Comms()[0].RecvTimeout(AnySource, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "hi" || m.Src != 1 {
		t.Fatalf("got %q from %d", m.Data, m.Src)
	}
}

func TestFailWakesBlockedReceive(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	c := f.Comms()[0]
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(1, 3)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receive block
	want := &RankFailedError{Rank: 1, Err: errors.New("test failure")}
	c.Fail(want)
	select {
	case err := <-done:
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 1 {
			t.Fatalf("blocked receive returned %v, want RankFailedError{Rank: 1}", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Fail did not wake the blocked receive")
	}
	// Subsequent operations fail immediately.
	if err := c.Send(1, 0, nil); err == nil {
		t.Fatal("Send on a failed endpoint must error")
	}
}

func TestHeartbeatDetectsKilledRank(t *testing.T) {
	const size, victim = 3, 2
	ff := NewFaultFabric(size, 42)
	defer ff.Close()
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := ff.Comms()[r]
			d := StartDetector(c, 10*time.Millisecond, 150*time.Millisecond, InProcView(size).Members, NewSuspicionTable())
			defer d.Stop()
			if r == victim {
				time.Sleep(50 * time.Millisecond)
				ff.Kill(victim)
				return
			}
			// Survivors block in a receive that only the detector's
			// failure verdict can unwind.
			start := time.Now()
			_, err := c.Recv(victim, 9)
			errs[r] = err
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("rank %d took %v to detect the dead peer", r, elapsed)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		var rf *RankFailedError
		if !errors.As(errs[r], &rf) {
			t.Fatalf("rank %d got %v, want RankFailedError", r, errs[r])
		}
		if rf.Rank != victim {
			t.Fatalf("rank %d suspected rank %d, want %d", r, rf.Rank, victim)
		}
	}
}

// TestKeepaliveSurvivesFailedEndpoint pins that a survivor unwinding
// from a peer failure can still prove its own liveness: heartbeats must
// flow from an endpoint that has already been failed, or peers whose
// detectors have not yet convicted the dead rank would suspect this one.
func TestKeepaliveSurvivesFailedEndpoint(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	c0 := f.Comms()[0]
	c0.Fail(&RankFailedError{Rank: 1, Err: errors.New("test verdict")})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Keepalive(c0, 5*time.Millisecond, 100*time.Millisecond, 1)
	}()
	if _, err := f.Comms()[1].RecvTimeout(0, heartbeatTag, time.Second); err != nil {
		t.Fatalf("no heartbeat from the failed endpoint: %v", err)
	}
	<-done
}

// TestFaultFabricDeterministicLoss pins that two fabrics with the same
// seed drop exactly the same messages.
func TestFaultFabricDeterministicLoss(t *testing.T) {
	deliveries := func(seed uint64) []int {
		ff := NewFaultFabric(2, seed)
		defer ff.Close()
		ff.SetLoss(0.3, 0)
		const n = 200
		var got []int
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				buf := []byte{byte(i), byte(i >> 8)}
				if err := ff.Comms()[0].Send(1, 5, buf); err != nil {
					t.Errorf("send %d: %v", i, err)
				}
			}
			// An empty sentinel record marks the end of the stream (sends
			// are FIFO per pair; loss is disabled first so the sentinel
			// itself cannot drop).
			ff.SetLoss(0, 0)
			if err := ff.Comms()[0].Send(1, 5, nil); err != nil {
				t.Errorf("sentinel: %v", err)
			}
		}()
		for {
			m, err := ff.Comms()[1].Recv(0, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Data) == 0 {
				break
			}
			got = append(got, int(binary.LittleEndian.Uint16(m.Data)))
		}
		wg.Wait()
		return got
	}
	a, b := deliveries(7), deliveries(7)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("drop rate 0.3 delivered %d/200 — loss injection inert", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := deliveries(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical loss patterns")
	}
}

func TestFaultFabricDuplicate(t *testing.T) {
	ff := NewFaultFabric(2, 1)
	defer ff.Close()
	ff.SetLoss(0, 1.0) // every message delivered twice
	if err := ff.Comms()[0].Send(1, 3, []byte("dup")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := ff.Comms()[1].Recv(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Data) != "dup" {
			t.Fatalf("copy %d: got %q", i, m.Data)
		}
	}
}

func TestFaultFabricSever(t *testing.T) {
	ff := NewFaultFabric(2, 1)
	defer ff.Close()
	ff.Sever(0, 1)
	// The send "succeeds" (one-way partition semantics) but nothing
	// arrives.
	if err := ff.Comms()[0].Send(1, 4, []byte("lost")); err != nil {
		t.Fatalf("send over a severed link must succeed locally: %v", err)
	}
	if _, err := ff.Comms()[1].RecvTimeout(0, 4, 50*time.Millisecond); err != ErrRecvTimeout {
		t.Fatalf("severed link delivered anyway (err=%v)", err)
	}
}

func TestKilledRankSendsError(t *testing.T) {
	ff := NewFaultFabric(2, 1)
	defer ff.Close()
	ff.Kill(0)
	if err := ff.Comms()[0].Send(1, 0, nil); err == nil {
		t.Fatal("send from a killed rank must error")
	}
	if got := ff.Killed(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Killed() = %v, want [0]", got)
	}
}

func TestDialBackoff(t *testing.T) {
	jitter := rand.New(rand.NewSource(1))
	prev := time.Duration(0)
	for attempt := 0; attempt < 6; attempt++ {
		d := dialBackoff(attempt, jitter)
		base := 10 * time.Millisecond << uint(attempt)
		if d < base || d > base+base/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base, base+base/2)
		}
		if d <= prev/4 {
			t.Fatalf("attempt %d: backoff %v did not grow from %v", attempt, d, prev)
		}
		prev = d
	}
	// Growth is capped: attempt 50 must not overflow or exceed ~2x the cap.
	if d := dialBackoff(50, jitter); d <= 0 || d > 960*time.Millisecond {
		t.Fatalf("attempt 50: backoff %v outside the cap", d)
	}
}

// TestTruncatedTCPFrame feeds a corrupt stream from a fake peer — a
// frame cut off mid-payload when the peer dies, or a frame claiming
// another sender — and checks the reader fails the endpoint instead of
// leaving the receive hung or delivering the frame.
func TestTruncatedTCPFrame(t *testing.T) {
	cases := []struct {
		name  string
		addrs []string
		src   uint32 // the frame header's claimed sender
		close bool   // die mid-frame, after 10 of the 100 payload bytes
	}{
		{"truncated", []string{"127.0.0.1:19721", "127.0.0.1:19722"}, 0, true},
		{"foreign source", []string{"127.0.0.1:19723", "127.0.0.1:19724"}, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type dialed struct {
				c   *Comm
				err error
			}
			ch := make(chan dialed, 1)
			go func() {
				c, err := DialTCP(1, tc.addrs, 5*time.Second)
				ch <- dialed{c, err}
			}()
			// Fake rank 0: complete the hello handshake, then send a
			// frame header promising 100 payload bytes.
			conn, err := dialRetry(tc.addrs[1], 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], 0)
			if _, err := conn.Write(hello[:]); err != nil {
				t.Fatal(err)
			}
			d := <-ch
			if d.err != nil {
				t.Fatal(d.err)
			}
			defer d.c.Close()
			frame := make([]byte, 12+100)
			binary.LittleEndian.PutUint32(frame[0:], 100) // payload length
			binary.LittleEndian.PutUint32(frame[4:], tc.src)
			binary.LittleEndian.PutUint32(frame[8:], 5) // tag
			if tc.close {
				frame = frame[:12+10]
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if tc.close {
				conn.Close() // die mid-frame
			}

			_, rerr := d.c.Recv(AnySource, 5)
			var rf *RankFailedError
			if !errors.As(rerr, &rf) {
				t.Fatalf("receive after a corrupt frame returned %v, want RankFailedError", rerr)
			}
			if rf.Rank != 0 {
				t.Fatalf("suspected rank %d, want 0", rf.Rank)
			}
		})
	}
}

// dialRetry dials until the listener is up (DialTCP runs concurrently).
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var err error
	for time.Now().Before(deadline) {
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, err
}

// TestMalformedPeerMessagesError injects one malformed message per case
// on a collective's tag or the one-sided tag, from a fake peer, and
// expects the victim's operation to return an error — never to panic or
// hang.
func TestMalformedPeerMessagesError(t *testing.T) {
	waitPut := func(c *Comm) error {
		o := NewOneSided(c)
		defer o.Close()
		o.Register(0, make([]float64, 4))
		_, err := o.WaitNotify(1, 1)
		return err
	}
	cases := []struct {
		name         string
		size, victim int
		op           func(c *Comm) error
		fake         func(c *Comm) // the peer: rank 1 when victim is 0, else rank 0
	}{
		{
			name: "allgather block without owner trailer", size: 2, victim: 0,
			op: func(c *Comm) error { _, err := c.Allgather([]byte("x")); return err },
			fake: func(c *Comm) {
				c.Send(0, c.nextCollTag(), []byte{1, 2})
			},
		},
		{
			name: "allgather block with a foreign owner", size: 2, victim: 0,
			op: func(c *Comm) error { _, err := c.Allgather([]byte("x")); return err },
			fake: func(c *Comm) {
				c.Send(0, c.nextCollTag(), appendOwner([]byte("y"), 7))
			},
		},
		{
			name: "ordered allreduce partial with a trailing partial value", size: 2, victim: 0,
			op: func(c *Comm) error { _, err := c.AllreduceSumOrdered([]float64{1}); return err },
			fake: func(c *Comm) {
				c.Allgather([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
			},
		},
		{
			name: "tree allreduce partner sends a short vector", size: 2, victim: 0,
			op: func(c *Comm) error { _, err := c.AllreduceSumTree([]float64{1, 2}); return err },
			fake: func(c *Comm) {
				c.Send(0, c.nextCollTag(), AppendFloat64s(nil, []float64{1}))
			},
		},
		{
			name: "tree allreduce result to an extra rank is short", size: 3, victim: 2,
			op: func(c *Comm) error { _, err := c.AllreduceSumTree([]float64{1, 2}); return err },
			fake: func(c *Comm) {
				tag := c.nextCollTag()
				c.Recv(2, tag)
				c.Send(2, tag, AppendFloat64s(nil, []float64{1}))
			},
		},
		{
			name: "one-sided put shorter than its header", size: 2, victim: 0,
			op:   waitPut,
			fake: func(c *Comm) { c.Send(0, oneSidedTag, []byte{1, 2}) },
		},
		{
			name: "one-sided put past the end of its segment", size: 2, victim: 0,
			op: waitPut,
			fake: func(c *Comm) {
				// A window without a dispatcher: the fake only sends.
				(&OneSided{c: c}).Put(0, 0, 3, []float64{1, 2}, 1)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFabric(tc.size)
			defer f.Close()
			fake := 0
			if tc.victim == 0 {
				fake = 1
			}
			go tc.fake(f.Comms()[fake])
			done := make(chan error, 1)
			go func() { done <- tc.op(f.Comms()[tc.victim]) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("malformed message accepted")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("collective hung on a malformed message")
			}
		})
	}
}
