package comm

import (
	"sync"
	"testing"
	"time"
)

// put issues a one-sided Put, failing the test on a send error.
func put(t *testing.T, o *OneSided, dst, segID int, off int64, data []float64, notifyID int) {
	t.Helper()
	if err := o.Put(dst, segID, off, data, notifyID); err != nil {
		t.Errorf("put to rank %d: %v", dst, err)
	}
}

func TestOneSidedPutAndNotify(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	comms := f.Comms()
	o0 := NewOneSided(comms[0])
	o1 := NewOneSided(comms[1])
	defer o0.Close()
	defer o1.Close()

	buf := make([]float64, 10)
	o1.Register(3, buf)
	put(t, o0, 1, 3, 4, []float64{1.5, -2.5, 3.5}, 7)
	if _, err := o1.WaitNotify(7, 1); err != nil {
		t.Error(err)
	}
	if buf[4] != 1.5 || buf[5] != -2.5 || buf[6] != 3.5 {
		t.Fatalf("payload not applied: %v", buf)
	}
	if buf[3] != 0 || buf[7] != 0 {
		t.Fatal("Put touched bytes outside the target range")
	}
}

func TestOneSidedNotificationCounts(t *testing.T) {
	f := NewFabric(3)
	defer f.Close()
	comms := f.Comms()
	os := make([]*OneSided, 3)
	for r := range comms {
		os[r] = NewOneSided(comms[r])
	}
	defer func() {
		for _, o := range os {
			o.Close()
		}
	}()
	dst := make([]float64, 100)
	os[0].Register(1, dst)

	// Ranks 1 and 2 each put 5 items with notification id 9.
	var wg sync.WaitGroup
	for src := 1; src <= 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				off := int64(src*10 + i)
				put(t, os[src], 0, 1, off, []float64{float64(src)}, 9)
			}
		}(src)
	}
	wg.Wait()
	if got, err := os[0].WaitNotify(9, 10); err != nil || got != 10 {
		t.Fatalf("notification count %d, want 10", got)
	}
	for i := 0; i < 5; i++ {
		if dst[10+i] != 1 || dst[20+i] != 2 {
			t.Fatalf("puts not all applied: %v", dst[10:25])
		}
	}
}

func TestOneSidedSelfPut(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	o := NewOneSided(f.Comms()[0])
	defer o.Close()
	buf := make([]float64, 4)
	o.Register(0, buf)
	put(t, o, 0, 0, 0, []float64{42}, 1)
	if _, err := o.WaitNotify(1, 1); err != nil {
		t.Error(err)
	}
	if buf[0] != 42 {
		t.Fatal("self-put not applied")
	}
}

func TestOneSidedCountWithoutBlocking(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	o0 := NewOneSided(f.Comms()[0])
	o1 := NewOneSided(f.Comms()[1])
	defer o0.Close()
	defer o1.Close()
	if o1.NotifyCount(5) != 0 {
		t.Fatal("fresh counter must be zero")
	}
	buf := make([]float64, 1)
	o1.Register(0, buf)
	put(t, o0, 1, 0, 0, []float64{1}, 5)
	deadline := time.Now().Add(time.Second)
	for o1.NotifyCount(5) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("notification never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOneSidedRegisterNegativePanics(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	o := NewOneSided(f.Comms()[0])
	defer o.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("negative segment id must panic")
		}
	}()
	o.Register(-2, make([]float64, 1))
}

func TestOneSidedCoexistsWithTwoSided(t *testing.T) {
	// One-sided traffic must not interfere with regular tagged messages
	// or collectives on the same communicator.
	f := NewFabric(2)
	defer f.Close()
	comms := f.Comms()
	o0 := NewOneSided(comms[0])
	o1 := NewOneSided(comms[1])
	defer o0.Close()
	defer o1.Close()
	buf := make([]float64, 2)
	o1.Register(0, buf)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		send(t, comms[0], 1, 42, []byte("two-sided"))
		put(t, o0, 1, 0, 0, []float64{9}, 1)
		sum, err := comms[0].AllreduceSumOrdered([]float64{1})
		if err != nil {
			t.Error(err)
		}
		if sum[0] != 2 {
			t.Errorf("allreduce = %v", sum[0])
		}
	}()
	go func() {
		defer wg.Done()
		m := recv(t, comms[1], 0, 42)
		if string(m.Data) != "two-sided" {
			t.Errorf("got %q", m.Data)
		}
		if _, err := o1.WaitNotify(1, 1); err != nil {
			t.Error(err)
		}
		sum, err := comms[1].AllreduceSumOrdered([]float64{1})
		if err != nil {
			t.Error(err)
		}
		if sum[0] != 2 {
			t.Errorf("allreduce = %v", sum[0])
		}
	}()
	wg.Wait()
	if buf[0] != 9 {
		t.Fatal("put lost amid two-sided traffic")
	}
}

// TestOneSidedCloseOnClosedEndpoint pins that closing the endpoint stops
// the dispatcher: the window's Close must return rather than block on a
// dispatcher still waiting for a sentinel that can no longer be sent.
func TestOneSidedCloseOnClosedEndpoint(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	c := f.Comms()[0]
	o := NewOneSided(c)
	c.Close()
	done := make(chan struct{})
	go func() {
		o.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("OneSided.Close blocked on a closed endpoint")
	}
	if _, err := o.WaitNotify(1, 1); err == nil {
		t.Fatal("WaitNotify on a stopped window must error")
	}
}
