package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// distRanks is the rank count of dist-chembl; each rank runs one thread.
const distRanks = 2

// distArgs are bpmf-dist's flags for the seed's chembl-shaped shards.
func distArgs(e *env, data string, basePort int) []string {
	return []string{"-launch", strconv.Itoa(distRanks), "-threads", "1", "-baseport", strconv.Itoa(basePort),
		"-data", data, "-k", strconv.Itoa(e.sc.k), "-iters", strconv.Itoa(e.sc.chemblIters),
		"-burnin", strconv.Itoa(e.sc.chemblIters / 2), "-seed", strconv.FormatUint(e.seed, 10),
		"-test", strconv.FormatFloat(testFrac, 'g', -1, 64)}
}

// distRun is one finished bpmf-dist launch.
type distRun struct {
	setup, wall, ups float64
	sig              string
	proc             *proc
}

// launchDist runs bpmf-dist once. Set-up ends when the last rank has
// mapped its shards; the chain signature is rank 0's RMSE trace.
func launchDist(e *env, data string) (*distRun, error) {
	return retryPorts("bpmf-dist", func() (*distRun, error) { return launchDistOnce(e, data) })
}

func launchDistOnce(e *env, data string) (*distRun, error) {
	base, err := freePorts(distRanks)
	if err != nil {
		return nil, err
	}
	p, err := startProc(e, e.work, "bpmf-dist", nil, distArgs(e, data, base)...)
	if err != nil {
		return nil, err
	}
	werr := p.wait(5 * time.Minute)
	run := &distRun{proc: p, wall: ms(p.exited.Sub(p.start))}
	if werr != nil && p.portTaken() {
		werr = fmt.Errorf("%w: %w", errPortTaken, werr)
	}
	if werr != nil {
		return run, werr
	}
	mapped := p.matching(": mapped ")
	final := p.matching("final RMSE")
	if len(mapped) != distRanks || len(final) != 1 {
		return run, fmt.Errorf("bpmf-dist printed %d mapped lines and %d final lines\n%s", len(mapped), len(final), p.tail())
	}
	for _, l := range mapped {
		run.setup = max(run.setup, l.at.Sub(p.start).Seconds())
	}
	if run.ups, err = fieldBefore(final[0].text, "updates/s"); err != nil {
		return run, err
	}
	lines := p.snapshot()
	run.sig = chainSignature(lines)
	return run, nil
}

// distReference returns the seed's dist-chembl chain signature, taken
// from the first bpmf-dist run made for the seed; every later run, and
// the traced run, must reproduce it exactly.
func distReference(e *env, data string) (string, error) {
	path, err := cached(filepath.Join(e.inputs, "dist-reference.txt"), func(tmp string) error {
		run, err := launchDist(e, data)
		if err != nil {
			return err
		}
		return os.WriteFile(tmp, []byte(run.sig), 0o644)
	})
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

// distE2E launches `bpmf-dist -launch 2 -threads 1` over loopback TCP
// with shard-native loading, back to back for the run's seconds.
func distE2E(e *env, r *report) error {
	data, err := chemblData(e)
	if err != nil {
		return err
	}
	ref, err := distReference(e, data)
	if err != nil {
		return err
	}
	var setup, ups, wall []float64
	rss := peaks{}
	err = repeatFor(e.seconds, func() error {
		run, err := launchDist(e, data)
		if run != nil {
			rss.add(run.proc)
		}
		if err != nil {
			r.ops(1, 1)
			r.problems = append(r.problems, err.Error())
			return nil
		}
		r.ops(1, 0)
		r.check(run.sig == ref, "dist-chembl chain differs from the seed's first run:\n%s\nwant:\n%s", run.sig, ref)
		setup = append(setup, run.setup)
		ups = append(ups, run.ups)
		wall = append(wall, run.wall)
		return nil
	})
	if err != nil {
		return err
	}
	if len(ups) == 0 {
		return fmt.Errorf("no bpmf-dist run succeeded")
	}
	r.set("setup_s", median(setup), "s")
	r.set("updates_per_s", median(ups), "1/s")
	r.set("run_ms", median(wall), "ms")
	r.set("rss_mb", rss.mb(), "MB")
	gateTraining(r, setup, ups, wall, rss)
	return nil
}

// distTraced measures dist-chembl's layers in-process: the partition
// plan over the full matrix, a 2-rank run over loopback TCP with
// shard-native loading (reading dist.Stats and comm.Stats), and a traced
// single-thread chain over the same data for the core and la layers.
func distTraced(e *env, r *report, tr *tracer) error {
	data, err := chemblData(e)
	if err != nil {
		return err
	}
	ref, err := distReference(e, data)
	if err != nil {
		return err
	}
	// Lanes: 0 and 1 belong to the single-thread chain (worker, caller),
	// 2.. to the ranks.
	const mainLane, rankLane = 1, 2
	tr.ensureLanes(rankLane + distRanks)
	_, prob, err := loadProblem(e, tr, mainLane, data)
	if err != nil {
		return err
	}
	r.gate("sparse.load_s", tr.stats()["sparse.Load"].total.Seconds(), "s")

	mp, err := sparse.OpenBinary(data)
	if err != nil {
		return err
	}
	s := tr.begin(mainLane, "partition.BuildWithPanels")
	plan, _, err := dist.BuildPlanPanels(prob, partition.PanelsOf(mp), dist.Options{Ranks: distRanks})
	tr.end(mainLane, s)
	mp.Close()
	if err != nil {
		return err
	}
	r.gate("partition.build_s", tr.stats()["partition.BuildWithPanels"].total.Seconds(), "s")
	r.gate("partition.nnz_imbalance", nnzImbalance(prob.R, plan.RowBounds), "x")

	c, err := runChain(e, r, tr, prob, 1, 2)
	if err != nil {
		return err
	}
	c.close()

	type distOut struct {
		results []*core.Result
		stats   []dist.Stats
		runs    []time.Duration
	}
	out, err := retryPorts("dist ranks", func() (distOut, error) {
		results, stats, runs, err := runDistTCP(e, tr, rankLane, data)
		if err != nil && strings.Contains(err.Error(), "address already in use") {
			err = fmt.Errorf("%w: %w", errPortTaken, err)
		}
		return distOut{results, stats, runs}, err
	})
	results, stats, runs := out.results, out.stats, out.runs
	if err != nil {
		return err
	}
	iters := float64(e.sc.chemblIters)
	r.ops(int64(e.sc.chemblIters), 0)
	for rk := 1; rk < distRanks; rk++ {
		r.check(equalBits(results[rk].AvgRMSE, results[0].AvgRMSE), "rank %d RMSE trace differs from rank 0's", rk)
	}
	got := chainSignature(distLines(results[0].AvgRMSE, results[0].UpdatesPerSec()))
	r.check(got == ref, "traced dist-chembl chain differs from the seed's bpmf-dist run:\n%s\nwant:\n%s", got, ref)

	var sent, msgs, items, flushes int64
	var compute, wait, overlap, maxCompute, maxWait time.Duration
	unaccounted := 0.0
	for rk, st := range stats {
		sent += st.Comm.BytesSent
		msgs += st.Comm.MsgsSent
		items += st.ItemsSent
		flushes += int64(st.Flushes)
		compute += st.ComputeTime
		wait += st.WaitTime
		overlap += st.OverlapTime
		maxCompute = max(maxCompute, st.ComputeTime)
		maxWait = max(maxWait, st.WaitTime)
		// The blocking path of a rank is its compute plus its waits; what
		// Run spent outside both is reported as unaccounted.
		unaccounted = max(unaccounted, 1-(st.ComputeTime+st.WaitTime).Seconds()/runs[rk].Seconds())
	}
	r.gate("comm.bytes_per_update", float64(sent)/float64(results[0].ItemUpdates), "B")
	r.gate("comm.msgs_per_iter", float64(msgs)/iters, "x")
	r.gate("comm.items_per_msg", float64(items)/float64(max(flushes, 1)), "x")
	r.gate("dist.compute_s", maxCompute.Seconds()/iters, "s")
	r.gate("dist.wait_s", maxWait.Seconds()/iters, "s")
	r.gate("dist.wait_frac", wait.Seconds()/(compute+wait).Seconds(), "ratio")
	r.gate("dist.overlap_frac", overlap.Seconds()/compute.Seconds(), "ratio")
	r.gate("trace.unaccounted_frac", unaccounted, "ratio")
	return nil
}

// runDistTCP runs the dist-chembl chain as distRanks goroutines meshed
// over loopback TCP, each mapping the shard file and loading its own rows
// (the shard-native path of cmd/bpmf-dist). It returns each rank's result,
// statistics and Run duration.
func runDistTCP(e *env, tr *tracer, lane0 int, data string) ([]*core.Result, []dist.Stats, []time.Duration, error) {
	base, err := freePorts(distRanks)
	if err != nil {
		return nil, nil, nil, err
	}
	addrs := make([]string, distRanks)
	for rk := range addrs {
		addrs[rk] = fmt.Sprintf("127.0.0.1:%d", base+rk)
	}
	cfg := chainConfig(e, e.sc.chemblIters)
	opt := dist.Options{Ranks: distRanks, ThreadsPerRank: 1}
	results := make([]*core.Result, distRanks)
	stats := make([]dist.Stats, distRanks)
	runs := make([]time.Duration, distRanks)
	errs := make([]error, distRanks)
	var wg sync.WaitGroup
	for rk := 0; rk < distRanks; rk++ {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			l := lane0 + rk
			c, err := comm.DialTCP(rk, addrs, 30*time.Second)
			if err != nil {
				errs[rk] = err
				return
			}
			defer c.Close()
			mp, err := sparse.OpenBinary(data)
			if err != nil {
				errs[rk] = err
				return
			}
			defer mp.Close()
			s := tr.begin(l, "dist.LoadShards")
			sp, err := dist.LoadShards(c, mp, testFrac, e.seed, opt)
			tr.end(l, s)
			if err != nil {
				errs[rk] = err
				return
			}
			node, err := dist.NewNodeLocal(c, cfg, sp.Plan, sp.RT, sp.Test, opt)
			if err != nil {
				errs[rk] = err
				return
			}
			s = tr.begin(l, "dist.Node.Run")
			start := time.Now()
			res, st, err := node.Run()
			runs[rk] = time.Since(start)
			tr.end(l, s)
			results[rk], errs[rk] = res, err
			if st != nil {
				stats[rk] = *st
			}
		}(rk)
	}
	wg.Wait()
	for rk, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("rank %d: %w", rk, err)
		}
	}
	return results, stats, runs, nil
}

// distLines renders a dist chain the way cmd/bpmf-dist's rank 0 prints it.
func distLines(avg []float64, ups float64) []line {
	var out []line
	for i, v := range avg {
		out = append(out, line{text: fmt.Sprintf("iter %3d  RMSE %.6f", i+1, v)})
	}
	return append(out, line{text: fmt.Sprintf("final RMSE %.6f  %.0f updates/s", avg[len(avg)-1], ups)})
}

// nnzImbalance is the largest rank's rating count over the mean, for the
// row ranges bounds.
func nnzImbalance(r *sparse.CSR, bounds []int) float64 {
	var most, total int64
	for p := 0; p+1 < len(bounds); p++ {
		n := r.RowPtr[bounds[p+1]] - r.RowPtr[bounds[p]]
		most = max(most, n)
		total += n
	}
	return float64(most) * float64(len(bounds)-1) / float64(total)
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
