package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/rank"
	"repro/internal/rng"
)

// syntheticModel builds a serving model from a synthetic checkpoint of
// chosen dimensions, so tests can place the catalog size exactly on and
// around the scoring panel boundaries.
func syntheticModel(t *testing.T, users, items, k int, opts Options) *Model {
	t.Helper()
	stream := rng.New(uint64(users*1000 + items))
	u := la.NewMatrix(users, k)
	v := la.NewMatrix(items, k)
	stream.FillNorm(u.Data)
	stream.FillNorm(v.Data)
	m, err := NewModel(&core.Checkpoint{K: k, Seed: 9, NextIter: 3, U: u, V: v}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameItems fails unless got and want are bit-identical ranked lists.
func sameItems(t *testing.T, label string, got, want []rank.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// TestBatchedRecommendBitIdenticalAtFixedSizes is the differential
// acceptance test for the flush core: handcrafted batches of exactly
// 1/2/16/64 requests — over catalogs sitting on and around the 64-item
// panel boundary — must complete every job bit-identically to the
// unbatched per-request path, including fold-in vector recommends with
// explicit exclusion lists.
func TestBatchedRecommendBitIdenticalAtFixedSizes(t *testing.T) {
	for _, items := range []int{63, 64, 65, 200} {
		m := syntheticModel(t, 40, items, 8, Options{ClampEnabled: true, ClampMin: 1, ClampMax: 5})
		b := NewBatcher(DefaultBatchOptions())
		stream := rng.New(uint64(items))
		for _, size := range []int{1, 2, 16, 64} {
			batch := make([]*scoreJob, size)
			for i := range batch {
				if i%5 == 4 {
					vec := la.NewVector(m.K())
					stream.FillNorm(vec)
					excl := []int32{0, int32(1 + stream.Intn(items-1))}
					if excl[1] == 0 {
						excl = excl[:1]
					}
					batch[i] = &scoreJob{m: m, kind: jobRecommendVec, vec: vec, excl: excl,
						n: 1 + stream.Intn(10), done: make(chan struct{})}
				} else {
					batch[i] = &scoreJob{m: m, kind: jobRecommend, user: stream.Intn(m.NumUsers()),
						n: 1 + stream.Intn(10), done: make(chan struct{})}
				}
			}
			b.run(batch)
			for i, j := range batch {
				label := fmt.Sprintf("items=%d size=%d job=%d", items, size, i)
				select {
				case <-j.done:
				default:
					t.Fatalf("%s: job not completed", label)
				}
				if j.err != nil {
					t.Fatalf("%s: %v", label, j.err)
				}
				switch j.kind {
				case jobRecommend:
					want, err := m.Recommend(j.user, j.n)
					if err != nil {
						t.Fatal(err)
					}
					sameItems(t, label, j.items, want)
				case jobRecommendVec:
					want, err := m.RecommendVector(j.vec, j.excl, j.n)
					if err != nil {
						t.Fatal(err)
					}
					sameItems(t, label, j.items, want)
				}
			}
		}
	}
}

// TestBatcherConcurrentMixedTraffic is the -race stress test: concurrent
// mixed /predict- and /recommend-shaped traffic, the recommends through
// the real coalescing machinery (whatever batches happen to form), must
// answer every recommend bit-identically to the unbatched path.
// Predicts never enter the batcher; they run beside the rounds as
// concurrent readers of the same snapshot.
func TestBatcherConcurrentMixedTraffic(t *testing.T) {
	ckpt, prob, cfg := trainedChain(t, 41, 6, 3)
	opts := modelOptions(prob, cfg)
	m, err := NewModel(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchOptions{MaxBatch: 8, MaxDelay: 100 * time.Microsecond, QueueBound: 4096})
	const workers = 16
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := rng.New(uint64(100 + w))
			for it := 0; it < iters; it++ {
				switch it % 3 {
				case 0:
					user, item := stream.Intn(m.NumUsers()), stream.Intn(m.NumItems())
					if _, err := m.Predict(user, item); err != nil {
						t.Errorf("worker %d it %d: predict: %v", w, it, err)
						return
					}
				case 1:
					user, n := stream.Intn(m.NumUsers()), 1+stream.Intn(20)
					got, err := b.Recommend(m, user, n)
					if err != nil {
						t.Errorf("worker %d it %d: %v", w, it, err)
						return
					}
					want, _ := m.Recommend(user, n)
					if len(got) != len(want) {
						t.Errorf("worker %d it %d: %d items != %d", w, it, len(got), len(want))
						return
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("worker %d it %d rank %d: %+v != %+v", w, it, i, got[i], want[i])
							return
						}
					}
				default:
					vec := la.NewVector(m.K())
					stream.FillNorm(vec)
					n := 1 + stream.Intn(10)
					got, err := b.RecommendVector(m, vec, nil, n)
					if err != nil {
						t.Errorf("worker %d it %d: %v", w, it, err)
						return
					}
					want, _ := m.RecommendVector(vec, nil, n)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("worker %d it %d rank %d: %+v != %+v", w, it, i, got[i], want[i])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBatcherAcrossHotReload pins the snapshot-capture contract: a
// request batched across a concurrent hot reload is scored against
// exactly the snapshot its caller grabbed, so its response equals that
// snapshot's own unbatched answer — never a mix of two models.
func TestBatcherAcrossHotReload(t *testing.T) {
	ckptA, prob, cfg := trainedChain(t, 51, 6, 3)
	// Same problem, longer chain: a genuinely different snapshot that the
	// serving options still accept.
	ckptB, _, _ := trainedChain(t, 51, 9, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	writeCheckpointFile(t, path, ckptA)
	srv, err := Open(path, modelOptions(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchOptions{MaxBatch: 8, MaxDelay: 100 * time.Microsecond, QueueBound: 4096})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := rng.New(uint64(300 + w))
			for !stop.Load() {
				m := srv.Model()
				user, n := stream.Intn(m.NumUsers()), 1+stream.Intn(10)
				got, err := b.Recommend(m, user, n)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// The reference is computed against the same snapshot the
				// batched call used — a reload in between must not matter.
				want, _ := m.Recommend(user, n)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("worker %d rank %d: %+v != %+v", w, i, got[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 10; r++ {
		if r%2 == 0 {
			writeCheckpointFile(t, path, ckptB)
		} else {
			writeCheckpointFile(t, path, ckptA)
		}
		if err := srv.Reload(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
}

// TestBatcherShedsAtQueueBoundAndRecovers is the overload drill: with
// the queue at its SLO bound, the next request is shed synchronously
// with a Retry-After hint instead of queuing unboundedly, and once the
// queue drains the batcher serves normally again.
func TestBatcherShedsAtQueueBoundAndRecovers(t *testing.T) {
	m := syntheticModel(t, 10, 100, 4, Options{})
	b := NewBatcher(BatchOptions{MaxBatch: 4, QueueBound: 3, RetryAfter: 7 * time.Second})

	// Park the flusher: pretend one is active so submissions only queue.
	b.mu.Lock()
	b.flushing = true
	b.mu.Unlock()

	var wg sync.WaitGroup
	results := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = b.Recommend(m, i, 5)
		}(i)
	}
	// Wait for all three to be queued.
	for deadline := time.Now().Add(5 * time.Second); ; {
		b.mu.Lock()
		depth := len(b.queue)
		b.mu.Unlock()
		if depth == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached the bound (depth %d)", depth)
		}
		time.Sleep(time.Millisecond)
	}

	// Fourth request: shed, synchronously, with the configured hint.
	_, err := b.Recommend(m, 9, 5)
	var shed *Shed
	if !errors.As(err, &shed) {
		t.Fatalf("expected a *Shed at the queue bound, got %v", err)
	}
	if shed.RateLimited || shed.RetryAfter != 7*time.Second {
		t.Fatalf("unexpected shed: %+v", shed)
	}

	// Drain: run the leader the parked flag was standing in for.
	b.lead(false)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("queued request %d failed: %v", i, err)
		}
	}

	// Recovery: steady-state service resumes after the burst.
	got, err := b.Recommend(m, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Recommend(0, 5)
	sameItems(t, "post-burst", got, want)
}

// TestAdmitRateLimitsPerClient drives the token bucket with an
// injected clock: within one bucket window a client is admitted burst
// times and then shed with the exact refill time; other clients are
// unaffected; time passing refills the bucket.
func TestAdmitRateLimitsPerClient(t *testing.T) {
	b := NewBatcher(BatchOptions{MaxBatch: 4, Rate: 2, Burst: 2})
	now := time.Unix(1000, 0)
	b.lim.now = func() time.Time { return now }

	if err := b.Admit("10.0.0.1"); err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := b.Admit("10.0.0.1"); err != nil {
		t.Fatalf("second (burst): %v", err)
	}
	err := b.Admit("10.0.0.1")
	var shed *Shed
	if !errors.As(err, &shed) || !shed.RateLimited {
		t.Fatalf("third should rate-limit, got %v", err)
	}
	// Empty bucket at 2 tokens/s: the next token is 500ms away.
	if shed.RetryAfter != 500*time.Millisecond {
		t.Fatalf("retry-after %s, want 500ms", shed.RetryAfter)
	}
	// A different client has its own bucket.
	if err := b.Admit("10.0.0.2"); err != nil {
		t.Fatalf("other client: %v", err)
	}
	// One second later the first client has 2 tokens again (capped at burst).
	now = now.Add(time.Second)
	if err := b.Admit("10.0.0.1"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	// Rate 0 admits everyone.
	open := NewBatcher(BatchOptions{MaxBatch: 1})
	for i := 0; i < 100; i++ {
		if err := open.Admit("10.0.0.1"); err != nil {
			t.Fatalf("unlimited batcher shed: %v", err)
		}
	}
}

// TestBatcherUnbatchedMode pins the MaxBatch=1 escape hatch (the
// measurable baseline): requests bypass the queue entirely and answer
// through the per-request path.
func TestBatcherUnbatchedMode(t *testing.T) {
	m := syntheticModel(t, 10, 100, 4, Options{})
	b := NewBatcher(BatchOptions{MaxBatch: 1, QueueBound: 1})
	for i := 0; i < 5; i++ {
		got, err := b.Recommend(m, i, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := m.Recommend(i, 5)
		sameItems(t, "unbatched", got, want)
	}
	b.mu.Lock()
	depth := len(b.queue)
	b.mu.Unlock()
	if depth != 0 {
		t.Fatalf("unbatched mode queued %d jobs", depth)
	}
}

// TestBatcherErrorShapesMatchUnbatched pins the validation contract:
// bad requests through the batcher fail with the same errors as the
// unbatched methods, before any queuing.
func TestBatcherErrorShapesMatchUnbatched(t *testing.T) {
	m := syntheticModel(t, 10, 100, 4, Options{})
	b := NewBatcher(BatchOptions{MaxBatch: 64, QueueBound: 1024})
	if _, err := b.Recommend(m, -1, 5); !errors.Is(err, ErrUserRange) {
		t.Fatalf("negative user: %v", err)
	}
	if _, err := b.Recommend(m, 10, 5); !errors.Is(err, ErrUserRange) {
		t.Fatalf("user beyond rows: %v", err)
	}
	if items, err := b.Recommend(m, 3, 0); err != nil || items != nil {
		t.Fatalf("n=0 must be a nil no-op, got %v (%v)", items, err)
	}
	if _, err := b.RecommendVector(m, la.NewVector(3), nil, 5); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short vector: %v", err)
	}
}

// waitQueued blocks until b's queue holds depth jobs.
func waitQueued(t *testing.T, b *Batcher, depth int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		b.mu.Lock()
		got := len(b.queue)
		b.mu.Unlock()
		if got == depth {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", got, depth)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkedRecommends parks b's leader role, as if a round were scoring,
// and starts one Recommend caller per user; it returns once every call
// is queued. Wait on the returned group for the callers to return.
func parkedRecommends(t *testing.T, b *Batcher, m *Model, users ...int) (*sync.WaitGroup, [][]rank.Item) {
	t.Helper()
	b.mu.Lock()
	b.flushing = true
	b.mu.Unlock()
	var wg sync.WaitGroup
	got := make([][]rank.Item, len(users))
	for i, u := range users {
		wg.Add(1)
		go func(i, u int) {
			defer wg.Done()
			var err error
			if got[i], err = b.Recommend(m, u, 5); err != nil {
				t.Errorf("user %d: %v", u, err)
			}
		}(i, u)
		waitQueued(t, b, i+1) // keep queue order equal to users order
	}
	return &wg, got
}

// TestBatcherHandsOffLeadToQueueHead pins the leader hand-off: with
// MaxBatch=2 and three jobs queued, the woken leader scores its own
// round of two, hands the role to the third job and returns — it does
// not go on to score the third job itself. The third job is built by
// hand with no caller behind it, so receiving the lead signal is the
// only thing that can happen to it.
func TestBatcherHandsOffLeadToQueueHead(t *testing.T) {
	m := syntheticModel(t, 10, 100, 4, Options{})
	b := NewBatcher(BatchOptions{MaxBatch: 2})
	wg, got := parkedRecommends(t, b, m, 1, 2)
	third := &scoreJob{m: m, kind: jobRecommend, user: 3, n: 5,
		done: make(chan struct{}), lead: make(chan struct{})}
	b.mu.Lock()
	b.queue = append(b.queue, third)
	close(b.queue[0].lead) // a previous round hands the role to the head
	b.mu.Unlock()

	wg.Wait()
	for i, u := range []int{1, 2} {
		want, _ := m.Recommend(u, 5)
		sameItems(t, fmt.Sprintf("caller %d", i), got[i], want)
	}
	select {
	case <-third.lead:
	case <-time.After(5 * time.Second):
		t.Fatal("the queue head never received the lead")
	}
	select {
	case <-third.done:
		t.Fatal("the old leader scored a job beyond its own round")
	default:
	}
	b.mu.Lock()
	depth, flushing := len(b.queue), b.flushing
	b.mu.Unlock()
	if depth != 1 || !flushing {
		t.Fatalf("after hand-off: depth %d flushing %v, want 1 true", depth, flushing)
	}

	// The handed job leads its own round and the batcher goes idle.
	b.lead(true)
	<-third.done
	want, _ := m.Recommend(3, 5)
	sameItems(t, "handed job", third.items, want)
	b.mu.Lock()
	flushing = b.flushing
	b.mu.Unlock()
	if flushing {
		t.Fatal("batcher still flushing with an empty queue")
	}
}

// TestBatcherRoundDrainsFullSignal pins the "batch full" bookkeeping: a
// full round taken without waiting consumes the signal its jobs posted,
// so a later partial round's MaxDelay wait is not cut short by it.
func TestBatcherRoundDrainsFullSignal(t *testing.T) {
	m := syntheticModel(t, 10, 100, 4, Options{})
	b := NewBatcher(BatchOptions{MaxBatch: 2, MaxDelay: time.Hour})
	wg, _ := parkedRecommends(t, b, m, 1, 2)
	if len(b.full) != 1 {
		t.Fatalf("a full queue posted %d signals, want 1", len(b.full))
	}
	b.lead(false)
	wg.Wait()
	if n := len(b.full); n != 0 {
		t.Fatalf("%d stale batch-full signals left after the round", n)
	}
}

// TestBatcherIdleLeaderNeverWaits pins the single-request fast path: a
// request that finds the batcher idle scores at once, however long
// MaxDelay is.
func TestBatcherIdleLeaderNeverWaits(t *testing.T) {
	m := syntheticModel(t, 10, 100, 4, Options{})
	b := NewBatcher(BatchOptions{MaxBatch: 8, MaxDelay: time.Hour})
	got := make([][]rank.Item, 3)
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		for u := range got {
			var err error
			if got[u], err = b.Recommend(m, u, 5); err != nil {
				t.Error(err)
			}
		}
	}()
	select {
	case <-answered:
	case <-time.After(5 * time.Second):
		t.Fatal("an idle request waited on MaxDelay")
	}
	for u := range got {
		want, _ := m.Recommend(u, 5)
		sameItems(t, fmt.Sprintf("user %d", u), got[u], want)
	}
}
