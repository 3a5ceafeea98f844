package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
)

// trainE2E runs `bpmf -engine worksteal -threads nproc` on the ml-20m
// shaped data back to back for the run's seconds. Each run must print the
// sequential reference's chain (RMSE trace and kernel counts) exactly.
func trainE2E(e *env, r *report) error {
	sig, _, err := mlReference(e)
	if err != nil {
		return err
	}
	data, err := mlData(e)
	if err != nil {
		return err
	}
	args := append(trainArgs(e, data, e.sc.mlIters), "-engine", "worksteal", "-threads", strconv.Itoa(defaultThreads()))
	var setup, ups, wall []float64
	rss := peaks{}
	err = repeatFor(e.seconds, func() error {
		p, err := startProc(e, e.work, "bpmf", nil, args...)
		if err != nil {
			return err
		}
		err = p.wait(10 * time.Minute)
		rss.add(p)
		ready := p.matching("data:")
		if err == nil && len(ready) == 0 {
			err = fmt.Errorf("bpmf printed no data line\n%s", p.tail())
		}
		if err != nil {
			r.ops(1, 1)
			r.problems = append(r.problems, err.Error())
			return nil
		}
		r.ops(1, 0)
		lines := p.snapshot()
		got := chainSignature(lines)
		r.check(got == sig, "train-ml chain differs from the sequential reference:\n%s\nwant:\n%s", got, sig)
		final := p.matching("final RMSE")
		if len(final) == 0 {
			return fmt.Errorf("bpmf printed no final line")
		}
		u, err := fieldBefore(final[0].text, "updates/s")
		if err != nil {
			return err
		}
		setup = append(setup, ready[0].at.Sub(p.start).Seconds())
		ups = append(ups, u)
		wall = append(wall, ms(p.exited.Sub(p.start)))
		return nil
	})
	if err != nil {
		return err
	}
	if len(ups) == 0 {
		return fmt.Errorf("no bpmf run succeeded")
	}
	r.set("setup_s", median(setup), "s")
	r.set("updates_per_s", median(ups), "1/s")
	r.set("run_ms", median(wall), "ms")
	r.set("rss_mb", rss.mb(), "MB")
	gateTraining(r, setup, ups, wall, rss)
	return nil
}

// gateTraining maps a training workload onto the end-to-end metrics:
// throughput is item updates per second of sampling, latency_ms the wall
// time of one whole training command (set-up, chain and final scoring).
func gateTraining(r *report, setup, ups, wall []float64, rss peaks) {
	r.gate("setup_s", median(setup), "s")
	r.gate("throughput", median(ups), "1/s")
	r.gate("latency_ms", median(wall), "ms")
	r.gate("rss_mb", rss.mb(), "MB")
}

// repeatFor calls run back to back until seconds have passed; the last
// call may run past that.
func repeatFor(seconds float64, run func() error) error {
	budget := time.Duration(seconds * float64(time.Second))
	for start := time.Now(); time.Since(start) < budget; {
		if err := run(); err != nil {
			return err
		}
	}
	return nil
}

// fieldBefore parses the number printed just before unit in text.
func fieldBefore(text, unit string) (float64, error) {
	f := strings.Fields(text)
	for i := 1; i < len(f); i++ {
		if f[i] == unit {
			return strconv.ParseFloat(f[i-1], 64)
		}
	}
	return 0, fmt.Errorf("no %q value in %q", unit, text)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// chainConfig is the sampler configuration every training command gets
// from trainArgs.
func chainConfig(e *env, iters int) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = e.sc.k
	cfg.Iters = iters
	cfg.Burnin = iters / 2
	cfg.Seed = e.seed
	return cfg
}

// loadProblem loads a .bcsr rating file and splits it the way the
// commands do, with a span around sparse.Load.
func loadProblem(e *env, tr *tracer, l int, path string) (*sparse.CSR, *core.Problem, error) {
	s := tr.begin(l, "sparse.Load")
	full, err := sparse.Load(path)
	tr.end(l, s)
	if err != nil {
		return nil, nil, err
	}
	train, test := sparse.SplitTrainTest(full, testFrac, e.seed)
	return full, core.NewProblem(train, test), nil
}

// trainTraced runs train-ml's chain in-process: the first iteration on
// the pool, the second serially (the sweep_speedup baseline), the rest on
// the pool again. The chain must match the sequential reference.
func trainTraced(e *env, r *report, tr *tracer) error {
	sig, _, err := mlReference(e)
	if err != nil {
		return err
	}
	data, err := mlData(e)
	if err != nil {
		return err
	}
	threads := defaultThreads()
	tr.ensureLanes(threads + 1)
	_, prob, err := loadProblem(e, tr, threads, data)
	if err != nil {
		return err
	}
	c, err := runChain(e, r, tr, prob, threads, e.sc.mlIters)
	if err != nil {
		return err
	}
	defer c.close()
	got := chainSignature(chainLines(c.avgRMSE, c.kernelCounts(), c.cfg.Burnin))
	r.check(got == sig, "traced train-ml chain differs from the sequential reference:\n%s\nwant:\n%s", got, sig)
	r.gate("sparse.load_s", tr.stats()["sparse.Load"].total.Seconds(), "s")
	return nil
}

// runChain runs iters traced iterations (iteration 1 serial, the rest on
// a pool of threads), reports the chain's layer metrics and the tracing
// overhead, and returns the chain for output checks.
func runChain(e *env, r *report, tr *tracer, prob *core.Problem, threads, iters int) (*chain, error) {
	cfg := chainConfig(e, iters)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := newChain(cfg, prob, threads)
	for it := 0; it < iters; it++ {
		c.step(tr, it, it == 1)
	}
	r.ops(int64(iters), 0)
	chainMetrics(r, c, tr, iters-1)
	r.gate("trace.overhead_frac", overheadFrac(c, 3), "ratio")
	return c, nil
}
