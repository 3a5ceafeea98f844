package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// refresh paths inside a run's scratch directory.
type refreshPaths struct {
	log, deltas, published string
}

func newRefreshPaths(e *env) (refreshPaths, error) {
	p := refreshPaths{
		log:       filepath.Join(e.work, "ratings.feedlog"),
		deltas:    filepath.Join(e.work, "deltas"),
		published: filepath.Join(e.work, "model.ckpt"),
	}
	return p, os.MkdirAll(p.deltas, 0o755)
}

// copyFile copies src to dst (the served file starts as the base chain).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

var chainAdvance = regexp.MustCompile(`chain (\d+) -> (\d+) iterations`)

// refreshE2E runs the write path over the shipped commands. Before each
// cycle a seeded batch (with users absent from everything published so
// far) is appended durably by `bpmf-trainer -ingest`; then `bpmf-trainer
// -cycles 1 -add-iters 1` compacts, merges, warm-starts, iterates and
// publishes, while `bpmf-serve -watch` serves the published file under a
// fixed-rate open loop. Freshness runs from the batch's durable append to
// the first 200 from /recommend for the batch's first new user.
//
// Each cycle is its own trainer invocation because a long-lived trainer
// loop only sees ratings appended through its own log handle: its record
// count is kept in memory, so batches ingested by another process stay
// invisible to it.
func refreshE2E(e *env, r *report) error {
	in, err := loadServeInputs(e)
	if err != nil {
		return err
	}
	paths, err := newRefreshPaths(e)
	if err != nil {
		return err
	}
	if err := copyFile(in.ckptPath, paths.published); err != nil {
		return err
	}
	users, items := in.users, in.items
	rss := peaks{}
	srv, base, setup, err := startServes(e, rss, "-ckpt", paths.published, "-watch", "20ms")
	if err != nil {
		return err
	}
	defer srv.stop()

	c := httpClient(defaultThreads())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reads *loadStats
	var readsDone sync.WaitGroup
	readsDone.Add(1)
	go func() {
		defer readsDone.Done()
		reads = openLoop(ctx, c, base, e.seed, users, items, 1, e.sc.reloadRate, time.Duration(10*e.seconds*float64(time.Second)))
	}()

	trainerArgs := append(trainArgs(e, in.data, e.sc.mlIters),
		"-ckpt", in.ckptPath, "-feed-log", paths.log, "-delta-dir", paths.deltas,
		"-publish", paths.published, "-add-iters", "1", "-cycles", "1")
	probe := &http.Client{Timeout: 5 * time.Second}
	var cycles, fresh []float64
	next := e.sc.mlIters
	batch := 0
	err = repeatFor(e.seconds, func() error {
		file, newUser, err := refreshBatch(e, users, items, batch)
		if err != nil {
			return err
		}
		batch++
		durable, err := ingest(e, paths.log, items, file)
		if err != nil {
			r.ops(1, 1)
			r.problems = append(r.problems, err.Error())
			return nil
		}
		p, err := startProc(e, e.work, "bpmf-trainer", nil, trainerArgs...)
		if err != nil {
			return err
		}
		werr := p.wait(5 * time.Minute)
		rss.add(p)
		if werr != nil {
			r.ops(1, 1)
			r.problems = append(r.problems, werr.Error())
			return nil
		}
		r.ops(1, 0)
		cycles = append(cycles, p.exited.Sub(p.start).Seconds())
		adv := p.matching("cycle 1:")
		m := []string(nil)
		if len(adv) == 1 {
			m = chainAdvance.FindStringSubmatch(adv[0].text)
		}
		r.check(m != nil && m[1] == strconv.Itoa(next) && m[2] == strconv.Itoa(next+1),
			"trainer cycle did not advance the chain from %d to %d iterations:\n%s", next, next+1, p.tail())
		next++
		t, ok := firstOK(probe, fmt.Sprintf("%s/recommend?user=%d&n=10", base, newUser), 30*time.Second)
		r.check(ok, "user %d of batch %d never became servable", newUser, batch-1)
		if ok {
			fresh = append(fresh, t.Sub(durable).Seconds())
		}
		return nil
	})
	cancel()
	readsDone.Wait()
	if err != nil {
		return err
	}
	if len(cycles) == 0 || len(fresh) == 0 {
		return fmt.Errorf("no refresh cycle completed")
	}
	// The last batch's user is servable, so the served snapshot is the
	// last publish: probe it against serve.LoadModel on the same file.
	m, err := serve.LoadModel(paths.published, serve.Options{Alpha: config.DefaultServeModel().Alpha})
	if err != nil {
		return err
	}
	checkAnswers(r, c, base, m, e.seed, 20)
	srv.stop()
	rss.add(srv)

	r.ops(reads.sent+reads.unsent, reads.failed+reads.unsent)
	r.set("setup_s", median(setup), "s")
	r.set("cycle_s", median(cycles), "s")
	r.set("freshness_s", median(fresh), "s")
	setPercentiles(r, reads.lat, "reload")
	r.set("rss_mb", rss.mb(), "MB")
	r.gate("setup_s", median(setup), "s")
	r.gate("throughput", float64(e.sc.batch)/median(cycles), "1/s")
	r.gate("latency_ms", 1e3*median(fresh), "ms")
	r.gate("rss_mb", rss.mb(), "MB")
	return nil
}

// ingest appends a batch file through `bpmf-trainer -ingest` and returns
// when the append was durable (the command exits after its fsync).
func ingest(e *env, log string, items int, file string) (time.Time, error) {
	f, err := os.Open(file)
	if err != nil {
		return time.Time{}, err
	}
	defer f.Close()
	p, err := startProc(e, e.work, "bpmf-trainer", f, "-ingest", "-feed-log", log, "-items", strconv.Itoa(items))
	if err != nil {
		return time.Time{}, err
	}
	if err := p.wait(time.Minute); err != nil {
		return time.Time{}, err
	}
	return p.exited, nil
}

// firstOK polls url until it answers 200 and returns when it did.
func firstOK(c *http.Client, url string, timeout time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if resp, err := c.Get(url); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, false
}

// readBatch parses a "user item value" batch file.
func readBatch(path string) ([]sparse.Entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []sparse.Entry
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			continue
		}
		u, err1 := strconv.Atoi(f[0])
		i, err2 := strconv.Atoi(f[1])
		v, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%s: bad line %q", path, sc.Text())
		}
		out = append(out, sparse.Entry{Row: int32(u), Col: int32(i), Val: v})
	}
	return out, sc.Err()
}

// refreshTraced runs bpmf-trainer's cycle in-process with a span around
// each layer call: append, compact, delta load and merge, warm start,
// iteration, checkpoint serialization, publish, and the server reload.
// The last cycle runs with the tracer off to measure its overhead.
func refreshTraced(e *env, r *report, tr *tracer) error {
	const l = 0
	tr.ensureLanes(1)
	in, err := loadServeInputs(e)
	if err != nil {
		return err
	}
	sv, err := in.load(tr, l)
	if err != nil {
		return err
	}
	r.gate("sparse.load_s", tr.stats()["sparse.Load"].total.Seconds(), "s")
	paths, err := newRefreshPaths(e)
	if err != nil {
		return err
	}
	if err := copyFile(in.ckptPath, paths.published); err != nil {
		return err
	}
	users, items := in.users, in.items
	lg, err := feed.OpenLog(paths.log, items)
	if err != nil {
		return err
	}
	defer lg.Close()
	opts := serve.Options{Alpha: config.DefaultServeModel().Alpha}
	srv, err := serve.Open(paths.published, opts)
	if err != nil {
		return err
	}
	cc := chainConfig(e, e.sc.mlIters)
	lin := &serve.Lineage{Seed: cc.Seed, K: cc.K}
	ckpt, cur := sv.ckpt, sv.train
	const traced = 3
	var cycleOn []float64
	cycleOff := 0.0
	for b := 0; b <= traced; b++ {
		t := tr
		if b == traced {
			t = newTracer(false)
		}
		file, newUser, err := refreshBatch(e, users, items, b)
		if err != nil {
			return err
		}
		batch, err := readBatch(file)
		if err != nil {
			return err
		}
		s := t.begin(l, "feed.Log.Append")
		err = lg.Append(batch)
		t.end(l, s)
		if err != nil {
			return err
		}
		start := time.Now()
		cyc := t.begin(l, "cycle")
		delta := filepath.Join(paths.deltas, fmt.Sprintf("delta-%06d.bcsr", b))
		s = t.begin(l, "feed.Log.Compact")
		_, err = lg.Compact(delta, cur.M, 0)
		t.end(l, s)
		if err != nil {
			return err
		}
		s = t.begin(l, "sparse.Load.delta")
		d, err := sparse.Load(delta)
		t.end(l, s)
		if err != nil {
			return err
		}
		s = t.begin(l, "sparse.MergeLastWins")
		cur, err = sparse.MergeLastWins(cur, d)
		t.end(l, s)
		if err != nil {
			return err
		}
		if err := lg.Truncate(); err != nil {
			return err
		}
		prev := ckpt.NextIter
		cc.Iters = prev + 1
		s = t.begin(l, "core.NewProblem")
		prob := core.NewProblem(cur, sv.test)
		t.end(l, s)
		s = t.begin(l, "core.ResumeSamplerGrown")
		smp, err := core.ResumeSamplerGrown(cc, prob, ckpt)
		t.end(l, s)
		if err != nil {
			return err
		}
		s = t.begin(l, "core.RunFrom")
		smp.RunFrom(prev)
		t.end(l, s)
		s = t.begin(l, "core.Checkpoint.Write")
		ckpt = smp.Checkpoint()
		err = ckpt.Write(io.Discard)
		t.end(l, s)
		if err != nil {
			return err
		}
		s = t.begin(l, "serve.PublishCheckpoint")
		err = serve.PublishCheckpoint(paths.published, ckpt, lin)
		t.end(l, s)
		if err != nil {
			return err
		}
		t.end(l, cyc)
		if b == traced {
			cycleOff = time.Since(start).Seconds()
		} else {
			cycleOn = append(cycleOn, time.Since(start).Seconds())
		}
		s = t.begin(l, "serve.Server.Reload")
		err = srv.Reload()
		t.end(l, s)
		if err != nil {
			return err
		}
		r.ops(1, 0)
		r.check(ckpt.NextIter == prev+1, "cycle %d advanced the chain from %d to %d iterations", b, prev, ckpt.NextIter)
		_, rerr := srv.Model().Recommend(newUser, 10)
		r.check(rerr == nil, "user %d of batch %d is not servable after reload: %v", newUser, b, rerr)
	}
	want, err := serve.LoadModel(paths.published, opts)
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		req := mixRequest(e.seed^0xc4ec, int64(i), srv.Model().NumUsers(), items)
		got, err1 := modelAnswer(srv.Model(), req)
		exp, err2 := modelAnswer(want, req)
		r.check(err1 == nil && err2 == nil && got == exp, "reloaded model answers %s with %s, serve.LoadModel gives %s", req.path(), got, exp)
	}

	st := tr.stats()
	per := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.total.Seconds() / float64(s.count)
		}
		return 0
	}
	r.gate("feed.append_ms", 1e3*per("feed.Log.Append"), "ms")
	r.gate("feed.compact_s", per("feed.Log.Compact"), "s")
	r.gate("sparse.merge_s", per("sparse.MergeLastWins"), "s")
	r.gate("core.resume_s", per("core.ResumeSamplerGrown"), "s")
	r.gate("core.iter_s.seq", per("core.RunFrom"), "s")
	r.gate("core.ckpt_write_s", per("core.Checkpoint.Write"), "s")
	r.gate("serve.publish_s", per("serve.PublishCheckpoint"), "s")
	r.gate("serve.reload_s", per("serve.Server.Reload"), "s")
	if c := st["cycle"]; c != nil && c.total > 0 {
		r.gate("trace.unaccounted_frac", c.self.Seconds()/c.total.Seconds(), "ratio")
	}
	r.gate("trace.overhead_frac", median(cycleOn)/cycleOff-1, "ratio")
	return nil
}
