package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// serveSetups is how many times a run starts bpmf-serve to measure
// set-up; the last start serves the load.
const serveSetups = 3

// startServes starts bpmf-serve serveSetups times in a row, stopping each
// start but the last, and returns the last with its base URL and every
// start's set-up time. Stopped starts' peak RSS goes into rss.
func startServes(e *env, rss peaks, args ...string) (*proc, string, []float64, error) {
	var setup []float64
	var p *proc
	var base string
	for i := 0; i < serveSetups; i++ {
		if p != nil {
			p.stop()
			rss.add(p)
		}
		var s float64
		var err error
		if p, base, s, err = startServe(e, args...); err != nil {
			return nil, "", nil, err
		}
		setup = append(setup, s)
	}
	return p, base, setup, nil
}

// startServe starts bpmf-serve with args on a free port and returns it
// with its base URL once /healthz first answers 200, and the time that
// took.
func startServe(e *env, args ...string) (*proc, string, float64, error) {
	type started struct {
		p     *proc
		base  string
		setup float64
	}
	st, err := retryPorts("bpmf-serve", func() (started, error) {
		p, base, s, err := startServeOnce(e, args...)
		return started{p, base, s}, err
	})
	return st.p, st.base, st.setup, err
}

func startServeOnce(e *env, args ...string) (*proc, string, float64, error) {
	port, err := freePorts(1)
	if err != nil {
		return nil, "", 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p, err := startProc(e, e.work, "bpmf-serve", nil, append(args, "-addr", addr)...)
	if err != nil {
		return nil, "", 0, err
	}
	base := "http://" + addr
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if resp, err := c.Get(base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, base, time.Since(p.start).Seconds(), nil
			}
		}
		select {
		case <-p.done:
			err := fmt.Errorf("bpmf-serve exited before answering /healthz: %v\n%s", p.err, p.tail())
			if p.portTaken() {
				err = fmt.Errorf("%w: %w", errPortTaken, err)
			}
			return nil, "", 0, err
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, "", 0, fmt.Errorf("bpmf-serve did not answer /healthz within 2m\n%s", p.tail())
		}
	}
}

// serveInputs is what serve-mix serves: train-ml's data and the
// checkpoint the sequential reference run wrote. Only the paths and the
// dimensions (from the .bcsr header) are read here, so the benchmark
// process stays small until the commands it measures have started.
type serveInputs struct {
	data, ckptPath string
	users, items   int
}

func loadServeInputs(e *env) (*serveInputs, error) {
	_, ckptPath, err := mlReference(e)
	if err != nil {
		return nil, err
	}
	data, err := mlData(e)
	if err != nil {
		return nil, err
	}
	mp, err := sparse.OpenBinary(data)
	if err != nil {
		return nil, err
	}
	defer mp.Close()
	users, items := mp.Dims()
	return &serveInputs{data: data, ckptPath: ckptPath, users: users, items: items}, nil
}

// serveArgs serves the checkpoint with exclusions (and the posterior
// test split) from the training data, at bpmf-serve's default batching.
func (in *serveInputs) serveArgs() []string {
	return []string{"-ckpt", in.ckptPath, "-data", in.data, "-test", fmt.Sprint(testFrac)}
}

// served is the in-process twin of what bpmf-serve builds from serveArgs.
type served struct {
	ckpt  *core.Checkpoint
	train *sparse.CSR
	test  []sparse.Entry
	model *serve.Model
}

// load builds the serving model bpmf-serve builds from serveArgs, with a
// span around sparse.Load.
func (in *serveInputs) load(tr *tracer, l int) (*served, error) {
	f, err := os.Open(in.ckptPath)
	if err != nil {
		return nil, err
	}
	ckpt, err := core.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	s := tr.begin(l, "sparse.Load")
	full, err := sparse.Load(in.data)
	tr.end(l, s)
	if err != nil {
		return nil, err
	}
	train, test := sparse.SplitTrainTest(full, testFrac, ckpt.Seed)
	s = tr.begin(l, "serve.NewModel")
	m, err := serve.NewModel(ckpt, serve.Options{
		Alpha: config.DefaultServeModel().Alpha, Exclude: train, Test: test,
		Lineage: &serve.Lineage{Seed: ckpt.Seed},
	})
	tr.end(l, s)
	return &served{ckpt: ckpt, train: train, test: test, model: m}, err
}

// checkAnswers compares a seeded sample of HTTP answers with the
// in-process model's, value for value.
func checkAnswers(r *report, c *http.Client, base string, m *serve.Model, seed uint64, n int) {
	users, items := m.NumUsers(), m.NumItems()
	for i := 0; i < n; i++ {
		req := mixRequest(seed^0xc4ec, int64(i), users, items)
		got, err := fetchAnswer(c, base+req.path())
		if err != nil {
			r.check(false, "%s: %v", req.path(), err)
			continue
		}
		want, err := modelAnswer(m, req)
		if err != nil {
			r.check(false, "%s in-process: %v", req.path(), err)
			continue
		}
		r.check(got == want, "%s answered %s, serve.Model gives %s", req.path(), got, want)
	}
}

// fetchAnswer GETs url and renders the JSON answer the way modelAnswer
// renders the in-process one.
func fetchAnswer(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Score, Mean, Std *float64
		Posterior        *bool
		Items            []struct {
			Item  int
			Score float64
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	if body.Score != nil {
		return predictionString(serve.Prediction{Score: *body.Score, Mean: *body.Mean, Std: *body.Std, Posterior: *body.Posterior}), nil
	}
	items := make([]rank.Item, len(body.Items))
	for i, it := range body.Items {
		items[i] = rank.Item{Index: it.Item, Score: it.Score}
	}
	return itemsString(items), nil
}

func modelAnswer(m *serve.Model, req request) (string, error) {
	if req.recommend {
		items, err := m.Recommend(req.user, 10)
		return itemsString(items), err
	}
	p, err := m.Predict(req.user, req.item)
	return predictionString(p), err
}

// The answer strings print every float in hex, so equal strings mean
// bit-identical values.
func predictionString(p serve.Prediction) string {
	return fmt.Sprintf("score=%x mean=%x std=%x posterior=%v", p.Score, p.Mean, p.Std, p.Posterior)
}

func itemsString(items []rank.Item) string {
	s := ""
	for _, it := range items {
		s += fmt.Sprintf("%d:%x ", it.Index, it.Score)
	}
	return s
}

// serveE2E measures bpmf-serve set-up, then drives one server with a
// closed loop of nproc clients and open loops at the fixed lo and hi
// rates, all over at most nproc connections, and checks a seeded sample
// of answers against serve.Model.
func serveE2E(e *env, r *report) error {
	in, err := loadServeInputs(e)
	if err != nil {
		return err
	}
	users, items := in.users, in.items
	rss := peaks{}
	p, base, setup, err := startServes(e, rss, in.serveArgs()...)
	if err != nil {
		return err
	}
	defer p.stop()
	sv, err := in.load(nil, 0)
	if err != nil {
		return err
	}

	conns := defaultThreads()
	c := httpClient(conns)
	d := time.Duration(e.seconds * float64(time.Second))
	closedLoop(c, base, e.seed+1, users, items, conns, d/20) // warm connections and caches
	closed := closedLoop(c, base, e.seed, users, items, conns, d*3/10)
	ctx := context.Background()
	lo := openLoop(ctx, c, base, e.seed, users, items, conns, e.sc.lo, d*3/10)
	hi := openLoop(ctx, c, base, e.seed, users, items, conns, e.sc.hi, d*3/10)
	checkAnswers(r, c, base, sv.model, e.seed, 40)
	p.stop()
	rss.add(p)

	r.ops(closed.sent, closed.failed)
	slo := 0.0
	for _, ph := range []struct {
		name string
		rate float64
		st   *loadStats
	}{{"lo", e.sc.lo, lo}, {"hi", e.sc.hi, hi}} {
		r.ops(ph.st.sent+ph.st.unsent, ph.st.failed+ph.st.unsent)
		setPercentiles(r, ph.st.lat, ph.name)
		if p99, ok := quantile(ph.st.lat, 0.99); ok && p99 <= e.sc.sloMS && ph.st.failed+ph.st.unsent == 0 {
			slo = ph.rate
		}
		late, _ := quantile(ph.st.late, 0.99)
		r.set("load.late_ms_p99."+ph.name, late, "ms")
		r.set("load.unsent."+ph.name, float64(ph.st.unsent), "count")
	}
	p50lo, _ := quantile(lo.lat, 0.5)
	r.set("setup_s", median(setup), "s")
	r.set("rps_closed", closed.rps(), "req/s")
	r.set("rps_slo", slo, "req/s")
	r.set("rss_mb", rss.mb(), "MB")
	r.gate("setup_s", median(setup), "s")
	r.gate("throughput", closed.rps(), "1/s")
	r.gate("latency_ms", p50lo, "ms")
	r.gate("rss_mb", rss.mb(), "MB")
	return nil
}

// serveTraced times the serving layers in-process on serve-mix's mix:
// rank scoring and top-N, serve.Model direct calls, the Batcher under
// nproc concurrent callers, then bpmf-serve's HTTP overhead over the
// same mix at one client and the open-loop generator's own lateness.
func serveTraced(e *env, r *report, tr *tracer) error {
	n := defaultThreads()
	mainLane := n
	tr.ensureLanes(n + 1)
	in, err := loadServeInputs(e)
	if err != nil {
		return err
	}
	sv, err := in.load(tr, mainLane)
	if err != nil {
		return err
	}
	r.gate("sparse.load_s", tr.stats()["sparse.Load"].total.Seconds(), "s")
	m, users, items := sv.model, in.users, in.items
	const calls = 3000

	// rank: one user's scores over every item, then the excluded top-10.
	scores := make([]float64, items)
	for i := 0; i < calls; i++ {
		u := mixRequest(e.seed, int64(i), users, items).user
		s := tr.begin(mainLane, "rank.ScoreInto")
		rank.ScoreInto(sv.ckpt.V, sv.ckpt.U.Row(u), scores)
		tr.end(mainLane, s)
		excl, _ := sv.train.Row(u)
		s = tr.begin(mainLane, "rank.TopNScoresExcluding")
		rank.TopNScoresExcluding(scores, excl, 10)
		tr.end(mainLane, s)
	}

	// serve.Model, one caller, the 50/50 mix.
	mix := func(tr *tracer, l int, i int64, names [2]string) error {
		req := mixRequest(e.seed, i, users, items)
		var err error
		if req.recommend {
			s := tr.begin(l, names[1])
			_, err = m.Recommend(req.user, 10)
			tr.end(l, s)
		} else {
			s := tr.begin(l, names[0])
			_, err = m.Predict(req.user, req.item)
			tr.end(l, s)
		}
		return err
	}
	direct := [2]string{"serve.Model.Predict", "serve.Model.Recommend"}
	for i := int64(0); i < calls; i++ {
		if err := mix(tr, mainLane, i, direct); err != nil {
			return err
		}
	}
	r.ops(2*calls, 0)

	// The Batcher at bpmf-serve's defaults against direct calls, both
	// with n concurrent callers issuing /recommend work.
	bt := serve.NewBatcher(batchDefaults())
	concurrent := func(name string, call func(u int) error) error {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < calls; i += n {
					u := mixRequest(e.seed, int64(i), users, items).user
					s := tr.begin(g, name)
					err := call(u)
					tr.end(g, s)
					if err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := concurrent("serve.Model.Recommend@concurrent", func(u int) error {
		_, err := m.Recommend(u, 10)
		return err
	}); err != nil {
		return err
	}
	if err := concurrent("serve.Batcher.Recommend", func(u int) error {
		_, err := bt.Recommend(m, u, 10)
		return err
	}); err != nil {
		return err
	}
	r.ops(2*calls, 0)

	// Tracing overhead on the direct-call mix.
	var on, off []float64
	for rep := 0; rep < 3; rep++ {
		for _, traced := range []bool{true, false} {
			t := newTracer(traced)
			t.ensureLanes(1)
			start := time.Now()
			for i := int64(0); i < calls; i++ {
				_ = mix(t, 0, i, direct)
			}
			if traced {
				on = append(on, time.Since(start).Seconds())
			} else {
				off = append(off, time.Since(start).Seconds())
			}
		}
	}
	r.gate("trace.overhead_frac", median(on)/median(off)-1, "ratio")

	// bpmf-serve: HTTP at one client against the in-process mix, then the
	// generator's lateness at the lo rate.
	p, base, _, err := startServe(e, in.serveArgs()...)
	if err != nil {
		return err
	}
	defer p.stop()
	c := httpClient(n)
	closedLoop(c, base, e.seed+1, users, items, 1, 300*time.Millisecond)
	one := closedLoop(c, base, e.seed, users, items, 1, 1500*time.Millisecond)
	lo := openLoop(context.Background(), c, base, e.seed, users, items, n, e.sc.lo, 2*time.Second)
	checkAnswers(r, c, base, m, e.seed, 40)
	r.ops(one.sent+lo.sent+lo.unsent, one.failed+lo.failed+lo.unsent)

	st := tr.stats()
	us := func(name string) float64 {
		if s := st[name]; s != nil {
			return medianDur(s.durs) * 1e6
		}
		return 0
	}
	var mixed []time.Duration
	for _, name := range direct {
		mixed = append(mixed, st[name].durs...)
	}
	httpP50, _ := quantile(one.lat, 0.5)
	late, _ := quantile(lo.late, 0.99)
	r.gate("rank.score_us", us("rank.ScoreInto"), "us")
	r.gate("rank.topn_us", us("rank.TopNScoresExcluding"), "us")
	r.gate("serve.model_us.predict", us(direct[0]), "us")
	r.gate("serve.model_us.recommend", us(direct[1]), "us")
	r.gate("serve.batcher_us.recommend", us("serve.Batcher.Recommend"), "us")
	r.gate("serve.batch_wait_us", us("serve.Batcher.Recommend")-us("serve.Model.Recommend@concurrent"), "us")
	r.gate("bpmf-serve.overhead_us", httpP50*1e3-medianDur(mixed)*1e6, "us")
	r.gate("load.late_ms_p99", late, "ms")
	r.gate("load.unsent", float64(lo.unsent), "count")
	return nil
}

// batchDefaults are bpmf-serve's default batching options.
func batchDefaults() serve.BatchOptions {
	s := config.DefaultServing()
	return serve.BatchOptions{
		MaxBatch: s.MaxBatch, MaxDelay: s.MaxDelay.Std(), QueueBound: s.QueueBound,
		Rate: s.Rate, Burst: s.Burst, RetryAfter: s.RetryAfter.Std(),
	}
}

// medianDur returns the median duration in seconds.
func medianDur(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = x.Seconds()
	}
	return median(v)
}
