package serve

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/la"
	"repro/internal/rank"
)

// BatchOptions configures a model route's request batcher and admission
// control. The zero value is not usable; start from DefaultBatchOptions.
type BatchOptions struct {
	// MaxBatch caps how many queued requests one round scores together.
	// 1 (the default) disables coalescing entirely: requests run the
	// per-request path directly, with rate limiting still applied by
	// Admit. On the measured catalog batching served no more req/s than
	// this at any concurrency (PERF.md).
	MaxBatch int
	// MaxDelay bounds how long a round's leader waits to fill a partial
	// batch. Only a leader handed the role by a previous round may wait:
	// the first request to arrive at an idle batcher scores at once. 0
	// never waits, so a batch holds exactly the requests that arrived
	// while the previous round was scoring.
	MaxDelay time.Duration
	// QueueBound is the SLO bound on queued recommend and fold-in
	// requests (predicts never queue): when the queue is this deep, new
	// requests are shed with a *Shed (HTTP 503 + Retry-After) instead of
	// queuing unboundedly. 0 means no bound.
	QueueBound int
	// Rate is the per-client admission rate in requests/second enforced
	// by Admit via a token bucket per client key. 0 disables rate
	// limiting.
	Rate float64
	// Burst is the token-bucket depth (how many requests a client may
	// issue back-to-back before the rate applies). 0 derives
	// max(1, ceil(Rate)).
	Burst int
	// RetryAfter is the back-off hint attached to queue-overload sheds
	// (rate-limit sheds compute the exact token refill time instead).
	// 0 defaults to one second.
	RetryAfter time.Duration
}

// DefaultBatchOptions returns the serving defaults: no coalescing (each
// request scores on its caller's goroutine), never wait to fill a
// partial batch, shed beyond 1024 queued requests when batching is on,
// no per-client rate limit.
func DefaultBatchOptions() BatchOptions {
	return BatchOptions{
		MaxBatch:   1,
		QueueBound: 1024,
		RetryAfter: time.Second,
	}
}

func (o BatchOptions) retryAfter() time.Duration {
	if o.RetryAfter > 0 {
		return o.RetryAfter
	}
	return time.Second
}

// Shed is the admission-control rejection: the request was refused
// before any scoring work, either because the client exceeded its rate
// (RateLimited, HTTP 429) or because the queue hit its SLO bound
// (overload, HTTP 503). RetryAfter is the back-off hint to surface in a
// Retry-After header.
type Shed struct {
	RateLimited bool
	RetryAfter  time.Duration
}

func (s *Shed) Error() string {
	if s.RateLimited {
		return fmt.Sprintf("serve: client rate limit exceeded (retry after %s)", s.RetryAfter)
	}
	return fmt.Sprintf("serve: overloaded, request queue at its bound (retry after %s)", s.RetryAfter)
}

// jobKind discriminates the request shapes the batcher coalesces.
type jobKind uint8

const (
	jobRecommend jobKind = iota
	jobRecommendVec
)

// scoreJob is one queued recommend. The model snapshot is captured at
// submit time, so a batch formed across a concurrent hot reload scores
// each request against exactly the snapshot its caller grabbed — the
// same guarantee the unbatched path gives.
type scoreJob struct {
	m    *Model
	kind jobKind

	user, n int
	vec     la.Vector // explicit factor row (fold-in recommends)
	excl    []int32   // explicit exclusions for vec

	items []rank.Item
	err   error
	done  chan struct{} // closed once the job is scored
	lead  chan struct{} // closed when the job is handed the leader role
}

// Batcher coalesces concurrent Recommend/RecommendVector calls against
// one model route into shared panel-blocked GEMM rounds, and applies
// admission control in front of them. Scoring B recommends in one round
// streams the item-factor matrix once instead of B times; every
// response stays bit-identical to the per-request path (pinned by the
// differential tests in batcher_test.go).
//
// There is no background goroutine. Rounds follow group commit with
// leader hand-off: the request that finds the batcher idle leads the
// first round; while a round scores, later requests queue and park. The
// leader cuts at most MaxBatch jobs off the queue head, scores them,
// hands the leader role to the job then at the head (whose parked
// caller wakes and leads the next round) and returns. Each caller thus
// waits only for the round holding its own job. All methods are safe
// for concurrent use.
type Batcher struct {
	opts BatchOptions

	mu       sync.Mutex
	queue    []*scoreJob
	flushing bool          // a leader holds the role (running or handed off)
	full     chan struct{} // signaled when the queue reaches MaxBatch

	// Round scratch, touched only by the single leader (the mutex
	// hand-off of the role orders accesses between leaders).
	usersBuf, scoresBuf []float64

	lim limiter
}

// NewBatcher returns a batcher over opts. MaxBatch < 1 is treated as 1
// (unbatched mode).
func NewBatcher(opts BatchOptions) *Batcher {
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 1
	}
	b := &Batcher{opts: opts, full: make(chan struct{}, 1)}
	if opts.Rate > 0 {
		burst := float64(opts.Burst)
		if burst <= 0 {
			burst = math.Max(1, math.Ceil(opts.Rate))
		}
		b.lim = limiter{
			rate:    opts.Rate,
			burst:   burst,
			now:     time.Now,
			clients: make(map[string]*bucket),
		}
	}
	return b
}

// Admit applies per-client token-bucket rate limiting. client is any
// stable caller identity (bpmf-serve uses the remote host). A nil
// return admits the request; otherwise the error is a *Shed carrying
// the exact time until the client's next token.
func (b *Batcher) Admit(client string) error {
	if b.opts.Rate <= 0 {
		return nil
	}
	if wait, ok := b.lim.allow(client); !ok {
		return &Shed{RateLimited: true, RetryAfter: wait}
	}
	return nil
}

// Recommend serves Model.Recommend through the batch queue. Requests
// answered by the precomputed top-N table bypass the queue (they do no
// scoring work to share); everything else contributes its user row to
// its round's multi-user GEMM.
func (b *Batcher) Recommend(m *Model, user, n int) ([]rank.Item, error) {
	if err := m.checkUser(user); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	if m.table != nil && n <= m.table.n {
		return m.clampItems(m.table.get(user, n)), nil
	}
	if b.opts.MaxBatch <= 1 {
		return m.Recommend(user, n)
	}
	j := &scoreJob{m: m, kind: jobRecommend, user: user, n: n}
	if err := b.submit(j); err != nil {
		return nil, err
	}
	return j.items, j.err
}

// RecommendVector serves Model.RecommendVector (the fold-in
// recommendation path) through the batch queue: the explicit factor row
// joins the same multi-user GEMM as the user-row recommends.
func (b *Batcher) RecommendVector(m *Model, u la.Vector, excl []int32, n int) ([]rank.Item, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := m.checkVector(u); err != nil {
		return nil, err
	}
	if b.opts.MaxBatch <= 1 {
		return m.RecommendVector(u, excl, n)
	}
	j := &scoreJob{m: m, kind: jobRecommendVec, vec: u, excl: excl, n: n}
	if err := b.submit(j); err != nil {
		return nil, err
	}
	return j.items, j.err
}

// submit queues one job and returns once the round holding it is
// scored. A caller that finds the batcher idle leads at once — no timer
// in the way of an uncontended request; any other caller parks until a
// leader scores its job or hands it the leader role. Returns a *Shed
// without queuing when the queue is at its bound.
func (b *Batcher) submit(j *scoreJob) error {
	j.done, j.lead = make(chan struct{}), make(chan struct{})
	b.mu.Lock()
	if b.opts.QueueBound > 0 && len(b.queue) >= b.opts.QueueBound {
		b.mu.Unlock()
		return &Shed{RetryAfter: b.opts.retryAfter()}
	}
	b.queue = append(b.queue, j)
	if len(b.queue) >= b.opts.MaxBatch {
		select {
		case b.full <- struct{}{}:
		default:
		}
	}
	if !b.flushing {
		b.flushing = true
		b.mu.Unlock()
		b.lead(false)
		return nil
	}
	b.mu.Unlock()
	select {
	case <-j.done:
	case <-j.lead:
		b.lead(true) // j is at the queue head, so this round scores it
	}
	return nil
}

// lead runs one round as the leader: it cuts at most MaxBatch jobs off
// the queue head, scores them, then hands the leader role to the job
// now at the head, or retires it when the queue is empty. A leader
// handed the role by a previous round (handed) may first wait up to
// MaxDelay for a partial batch to fill; the leader of an idle batcher
// never waits.
func (b *Batcher) lead(handed bool) {
	b.mu.Lock()
	if handed && b.opts.MaxDelay > 0 && len(b.queue) < b.opts.MaxBatch {
		b.mu.Unlock()
		t := time.NewTimer(b.opts.MaxDelay)
		select {
		case <-b.full:
		case <-t.C:
		}
		t.Stop()
		b.mu.Lock()
	}
	n := min(len(b.queue), b.opts.MaxBatch)
	batch := make([]*scoreJob, n)
	copy(batch, b.queue[:n])
	rest := copy(b.queue, b.queue[n:])
	for i := rest; i < len(b.queue); i++ {
		b.queue[i] = nil // release job pointers past the new tail
	}
	b.queue = b.queue[:rest]
	// A "batch full" token posted while this round's jobs queued belongs
	// to this round; left behind, it would cut a later partial round's
	// MaxDelay wait short.
	select {
	case <-b.full:
	default:
	}
	b.mu.Unlock()

	b.run(batch)

	b.mu.Lock()
	if len(b.queue) == 0 {
		b.flushing = false
	} else {
		close(b.queue[0].lead)
	}
	b.mu.Unlock()
}

// run scores one batch. Jobs are grouped by model snapshot (a hot
// reload between two submits may interleave two snapshots in one batch)
// and each group shares one ScoreBatchInto pass; every job is completed
// exactly as the unbatched path would against its own snapshot.
func (b *Batcher) run(batch []*scoreJob) {
	for lo := 0; lo < len(batch); {
		m := batch[lo].m
		hi := lo + 1
		for hi < len(batch) && batch[hi].m == m {
			hi++
		}
		b.runModel(m, batch[lo:hi])
		lo = hi
	}
	for _, j := range batch {
		close(j.done)
	}
}

// runModel completes one same-snapshot slice of a batch: the jobs'
// factor rows are gathered into a users matrix, scored with one
// panel-blocked batch GEMM, and selected with the batched top-N driver
// plus the model's own exclusion and clamp tail.
func (b *Batcher) runModel(m *Model, jobs []*scoreJob) {
	users := sizedMatrix(&b.usersBuf, len(jobs), m.k)
	scores := sizedMatrix(&b.scoresBuf, len(jobs), m.v.Rows)
	for i, j := range jobs {
		// User/vector shapes were validated against this same snapshot
		// at submit time.
		if j.kind == jobRecommend {
			copy(users.Row(i), m.u.Row(j.user))
		} else {
			copy(users.Row(i), j.vec)
		}
	}
	rank.ScoreBatchInto(m.v, users, scores)

	excl := make([][]int32, len(jobs))
	ns := make([]int, len(jobs))
	var releases []func()
	for i, j := range jobs {
		if j.kind == jobRecommendVec {
			excl[i], ns[i] = j.excl, j.n
			continue
		}
		lst, release, err := m.excludeList(j.user)
		if err != nil {
			j.err = err // ns[i] stays 0: rank nothing for a failed request
			continue
		}
		if release != nil {
			releases = append(releases, release)
		}
		excl[i], ns[i] = lst, j.n
	}
	lists := rank.TopNBatchExcluding(scores, excl, ns)
	for i, j := range jobs {
		if j.err == nil {
			j.items = m.clampItems(lists[i])
		}
	}
	for _, release := range releases {
		release()
	}
}

// sizedMatrix views rows x cols of buf, growing the backing slice on
// demand so round scratch is reused across rounds (and resized across
// snapshots whose catalog dimensions differ).
func sizedMatrix(buf *[]float64, rows, cols int) *la.Matrix {
	need := rows * cols
	if cap(*buf) < need {
		*buf = make([]float64, need)
	}
	return &la.Matrix{Rows: rows, Cols: cols, Data: (*buf)[:need]}
}

// limiter is the per-client token-bucket table behind Admit.
type limiter struct {
	rate  float64 // tokens per second
	burst float64

	now func() time.Time // injected by clock-controlled tests

	mu      sync.Mutex
	clients map[string]*bucket
}

// bucket is one client's token state.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients caps the limiter table. When an insert would exceed it,
// clients idle long enough to have refilled to full burst are dropped —
// semantically lossless, since a fresh entry starts at full burst too.
const maxClients = 4096

// allow takes one token from client's bucket, reporting whether the
// request is admitted; when denied it returns the time until the next
// token instead.
func (l *limiter) allow(client string) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	bk := l.clients[client]
	if bk == nil {
		if len(l.clients) >= maxClients {
			l.evictIdle(now)
		}
		bk = &bucket{tokens: l.burst, last: now}
		l.clients[client] = bk
	} else {
		bk.tokens += l.rate * now.Sub(bk.last).Seconds()
		if bk.tokens > l.burst {
			bk.tokens = l.burst
		}
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return 0, true
	}
	return time.Duration((1 - bk.tokens) / l.rate * float64(time.Second)), false
}

// evictIdle drops every bucket idle long enough to be full again.
func (l *limiter) evictIdle(now time.Time) {
	fullAfter := time.Duration(l.burst / l.rate * float64(time.Second))
	for c, bk := range l.clients {
		if now.Sub(bk.last) >= fullAfter {
			delete(l.clients, c)
		}
	}
}
