package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/order"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// chain is the traced in-process runner of one Gibbs chain: the
// work-stealing engine's iteration (hyperparameters, item sweep over a
// sched.Pool, scoring) rebuilt from core's public functions, with a span
// around every call into a layer. Every draw is keyed by (seed, iter,
// side, item), so the chain is bit-identical to every engine's.
type chain struct {
	cfg    core.Config
	prob   *core.Problem
	sch    *order.Schedule
	prior  core.NWPrior
	u, v   *la.Matrix
	hu, hv *core.Hyper
	hws    *core.HyperWorkspace
	mws    *core.MomentsWorkspace
	pred   *core.Predictor
	ws     *core.Workspace // the serial sweep's workspace
	wsPool *sched.Arena[*core.Workspace]

	pool    *sched.Pool
	threads int
	main    int // the calling goroutine's trace lane (workers use 0..threads-1)

	avgRMSE []float64
	kernels [3]atomic.Int64
}

// Span names of the item update, per kernel, for pool and serial sweeps.
var updateSpan = [2][3]string{
	{"core.UpdateItem.rankone", "core.UpdateItem.serial_chol", "core.UpdateItem.parallel_chol"},
	{"core.UpdateItem.rankone@serial", "core.UpdateItem.serial_chol@serial", "core.UpdateItem.parallel_chol@serial"},
}

var kernelNames = [3]string{"rankone", "serial_chol", "parallel_chol"}

func newChain(cfg core.Config, prob *core.Problem, threads int) *chain {
	m, n := prob.Dims()
	acc := core.NewAccArena(cfg.K)
	c := &chain{
		cfg: cfg, prob: prob,
		sch:     order.Build(prob.R, order.Options{HeavyThreshold: cfg.KernelThreshold}),
		prior:   core.DefaultNWPrior(cfg.K),
		u:       core.InitFactors(cfg.Seed, core.SideU, m, cfg.K),
		v:       core.InitFactors(cfg.Seed, core.SideV, n, cfg.K),
		hu:      core.NewHyper(cfg.K),
		hv:      core.NewHyper(cfg.K),
		hws:     core.NewHyperWorkspace(cfg.K),
		mws:     core.NewMomentsWorkspace(cfg.K),
		pred:    core.NewPredictor(prob.Test, cfg.ClampMin, cfg.ClampMax),
		ws:      core.NewWorkspaceShared(cfg.K, acc),
		wsPool:  sched.NewArena(func() *core.Workspace { return core.NewWorkspaceShared(cfg.K, acc) }),
		pool:    sched.NewPool(threads),
		threads: threads,
		main:    threads,
	}
	c.pred.Alpha = cfg.Alpha
	return c
}

func (c *chain) close() { c.pool.Close() }

// kernelCounts returns the item updates per kernel so far.
func (c *chain) kernelCounts() [3]int64 {
	return [3]int64{c.kernels[0].Load(), c.kernels[1].Load(), c.kernels[2].Load()}
}

// step runs Gibbs iteration iter: on the pool, or entirely on the calling
// goroutine when serial (the sweep_speedup baseline; same chain).
func (c *chain) step(tr *tracer, iter int, serial bool) {
	suffix := ""
	if serial {
		suffix = "@serial"
	}
	it := tr.begin(c.main, "iter"+suffix)
	c.hyper(tr, suffix, iter, core.SideV)
	c.sweep(tr, iter, core.SideV, c.v, serial)
	c.hyper(tr, suffix, iter, core.SideU)
	c.sweep(tr, iter, core.SideU, c.u, serial)
	s := tr.begin(c.main, "core.Predictor.Update"+suffix)
	_, avg := c.pred.Update(c.u, c.v, iter >= c.cfg.Burnin)
	tr.end(c.main, s)
	c.avgRMSE = append(c.avgRMSE, avg)
	tr.end(c.main, it)
}

// hyper draws one side's hyperparameters (moments plus SampleHyperWS).
func (c *chain) hyper(tr *tracer, suffix string, iter int, side core.Side) {
	x, groups, h := c.v, c.cfg.MomentGroupsV, c.hv
	if side == core.SideU {
		x, groups, h = c.u, c.cfg.MomentGroupsU, c.hu
	}
	s := tr.begin(c.main, "core.SampleHyperWS"+suffix)
	m := core.MomentsGroupedWS(x, core.GroupBoundaries(groups, x.Rows), c.cfg.K, nil, c.mws)
	core.SampleHyperWS(c.prior, m, core.HyperStream(c.cfg.Seed, iter, side), h, c.hws)
	tr.end(c.main, s)
}

// itemGrain is the work-stealing engine's item-loop grain.
const itemGrain = 8

// sweep samples every item of one side into out (the side's factor
// matrix, or a scratch copy when only timing).
func (c *chain) sweep(tr *tracer, iter int, side core.Side, out *la.Matrix, serial bool) {
	rt, other, hyper, ord := c.prob.R, c.v, c.hu, c.sch.U
	if side == core.SideV {
		rt, other, hyper, ord = c.prob.Rt, c.u, c.hv, c.sch.V
	}
	update := func(l int, pos int, pool *sched.Pool, w *sched.Worker, ws *core.Workspace, names *[3]string) {
		item := int(ord[pos])
		cols, vals := rt.Row(item)
		kern := c.cfg.SelectKernel(len(cols))
		c.kernels[kern].Add(1)
		s := tr.begin(l, names[kern])
		core.UpdateItem(ws, kern, &c.cfg, cols, vals, other, hyper,
			ws.ItemStream(c.cfg.Seed, iter, side, item), pool, w, out.Row(item))
		tr.end(l, s)
	}
	if serial {
		sw := tr.begin(c.main, "sched.sweep@serial")
		for pos := 0; pos < rt.M; pos++ {
			update(c.main, pos, nil, nil, c.ws, &updateSpan[1])
		}
		tr.end(c.main, sw)
		return
	}
	sw := tr.begin(c.main, "sched.ParallelFor")
	prev := tr.setOuter(c.main, sw)
	c.pool.ParallelFor(0, rt.M, itemGrain, func(w *sched.Worker, lo, hi int) {
		l := c.main // the caller helps run tasks while it waits
		if w != nil {
			l = w.ID()
		}
		b := tr.begin(l, "sched.body")
		for pos := lo; pos < hi; pos++ {
			ws := c.wsPool.Get(w)
			update(l, pos, c.pool, w, ws, &updateSpan[0])
			c.wsPool.Put(w, ws)
		}
		tr.end(l, b)
	})
	tr.restoreOuter(prev)
	tr.end(c.main, sw)
}

// chainMetrics reports the core, la, sched and trace metrics of a traced
// chain run with poolIters pool iterations and one serial iteration.
func chainMetrics(r *report, c *chain, tr *tracer, poolIters int) {
	st := tr.stats()
	get := func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	per := float64(poolIters)
	flops, bytes, counts := c.work()
	for k, kn := range kernelNames {
		s := get(updateSpan[0][k])
		r.gate("core.update_s."+kn, s.self.Seconds()/per, "s")
		r.gate("core.updates."+kn, float64(s.count)/per, "count")
		if counts[k] > 0 {
			r.gate("la.flops."+kn, flops[k]/counts[k], "flop")
			r.gate("la.bytes."+kn, bytes[k]/counts[k], "B")
		}
		if s.self > 0 {
			r.gate("la.gflops."+kn, flops[k]*per/s.self.Seconds()/1e9, "Gflop/s")
		}
	}
	r.gate("core.hyper_s", get("core.SampleHyperWS").total.Seconds()/per, "s")
	r.gate("core.score_s", get("core.Predictor.Update").total.Seconds()/per, "s")

	sweep := get("sched.ParallelFor").total
	if sweep > 0 {
		r.gate("sched.busy_frac", workerBusy(tr, c.threads).Seconds()/(float64(c.threads)*sweep.Seconds()), "ratio")
		r.gate("sched.sweep_speedup", get("sched.sweep@serial").total.Seconds()/(sweep.Seconds()/per), "x")
	}
	if it := get("iter"); it.total > 0 {
		r.gate("trace.unaccounted_frac", it.self.Seconds()/it.total.Seconds(), "ratio")
	}
}

// workerBusy sums, over the pool workers' lanes, the time spent inside
// top-level spans (the ParallelFor bodies and what they called).
func workerBusy(tr *tracer, workers int) time.Duration {
	var busy time.Duration
	for l := 0; l < workers && l < len(tr.lanes); l++ {
		for _, s := range tr.lanes[l].spans {
			if s.parent < 0 || s.parent>>32 != int64(l) {
				busy += time.Duration(s.end - s.start)
			}
		}
	}
	return busy
}

// work returns, per kernel class, the computed flops and compulsory bytes
// of one iteration's item updates and the update counts, from each item's
// rating count and K (see updateCost).
func (c *chain) work() (flops, bytes, counts [3]float64) {
	for _, m := range []*sparse.CSR{c.prob.R, c.prob.Rt} {
		for i := 0; i < m.M; i++ {
			nnz := m.RowNNZ(i)
			k := c.cfg.SelectKernel(nnz)
			f, b := updateCost(k, nnz, c.cfg.K)
			flops[k] += f
			bytes[k] += b
			counts[k]++
		}
	}
	return
}

// updateCost is the computed (not measured) cost of one UpdateItem with
// nnz ratings at K latent features:
//
//	rankone:  nnz·(2K²+9K) rank-one Cholesky updates and rhs axpys
//	chol:     nnz·(K²+3K) lower-triangle Syrk and rhs, K³/3 factorization
//	both:     3K² for the two triangular solves and the draw
//
// Bytes count the compulsory traffic: each rating's partner row (8K),
// column index and value (12), the hyper precision (8K²) and the output
// row (8K).
func updateCost(k core.Kernel, nnz, K int) (flops, bytes float64) {
	n, kk := float64(nnz), float64(K)
	if k == core.KernelRankOne {
		flops = n*(2*kk*kk+9*kk) + 3*kk*kk
	} else {
		flops = n*(kk*kk+3*kk) + kk*kk*kk/3 + 3*kk*kk
	}
	bytes = n*(8*kk+12) + 8*kk*kk + 8*kk
	return
}

// overheadFrac times sweeps of the V side into a scratch matrix with
// spans recorded and with the tracer off, alternating, and returns the
// relative slowdown of the median traced sweep. The chain itself is not
// advanced.
func overheadFrac(c *chain, reps int) float64 {
	scratch := la.NewMatrix(c.v.Rows, c.v.Cols)
	kept := c.kernelCounts()
	defer func() {
		for k, n := range kept {
			c.kernels[k].Store(n)
		}
	}()
	var on, off []float64
	for i := 0; i < reps; i++ {
		for _, traced := range []bool{true, false} {
			tr := newTracer(traced)
			tr.ensureLanes(c.threads + 1)
			start := time.Now()
			c.sweep(tr, 0, core.SideV, scratch, false)
			d := time.Since(start).Seconds()
			if traced {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	return median(on)/median(off) - 1
}

// chainLines renders a chain's RMSE trace and kernel counts the way
// cmd/bpmf prints them, for comparison with a reference signature.
func chainLines(avg []float64, kernels [3]int64, burnin int) []line {
	var out []line
	for i, v := range avg {
		phase := "sample"
		if i >= burnin {
			phase = "avg"
		}
		out = append(out, line{text: fmt.Sprintf("iter %3d  RMSE(%s) %.6f", i+1, phase, v)})
	}
	out = append(out, line{text: fmt.Sprintf("final RMSE %.6f  kernels[rankupdate=%d serial_chol=%d parallel_chol=%d]",
		avg[len(avg)-1], kernels[0], kernels[1], kernels[2])})
	return out
}

func defaultThreads() int { return runtime.NumCPU() }
