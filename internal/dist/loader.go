package dist

import (
	"sync"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// A Loader builds rank c.Rank()'s node for a run of opt.Ranks ranks —
// the data-plane half of starting a rank. Every rank of a run calls it
// with identical (cfg, opt); a loader may communicate over c, so the
// call is collective. MatrixLoader and ShardLoader are the two data
// planes; StartRank adds the resume half.
type Loader func(c *comm.Comm, cfg core.Config, opt Options) (*Node, error)

// MatrixLoader returns the loader over a problem every rank holds in
// full: BuildPlan (BuildPlanPanels when panels is non-nil and opt does
// not reorder, so a .bcsr file decoded whole plans like its
// shard-native load), then NewNode. The plan and the default locality
// schedule of a rank count are built once and shared by every rank that
// asks for them, so an in-process cluster partitions the problem once.
func MatrixLoader(prob *core.Problem, panels *partition.Panels) Loader {
	type key struct {
		ranks, heavy int
		reorder      bool
	}
	var (
		mu   sync.Mutex
		have key
		plan *partition.Plan
		test []sparse.Entry
		sch  *order.Schedule
	)
	return func(c *comm.Comm, cfg core.Config, opt Options) (*Node, error) {
		opt = opt.normalized()
		k := key{ranks: opt.Ranks, heavy: cfg.KernelThreshold, reorder: opt.Reorder}
		mu.Lock()
		if plan == nil || have != k {
			var err error
			if panels != nil && !opt.Reorder {
				plan, test, err = BuildPlanPanels(prob, *panels, opt)
			} else {
				plan, test = BuildPlan(prob, opt)
			}
			if err != nil {
				plan = nil
				mu.Unlock()
				return nil, err
			}
			have, sch = k, nil
		}
		if opt.Schedule == nil {
			if sch == nil {
				sch = order.Build(plan.R, order.Options{HeavyThreshold: cfg.KernelThreshold})
			}
			opt.Schedule = sch
		}
		p, t := plan, test
		mu.Unlock()
		return NewNode(c, cfg, p, t, opt)
	}
}

// ShardLoader returns the shard-native loader over an opened sharded
// .bcsr file: LoadShards (each rank decodes only its own shards), then
// NewNodeLocal. loaded, when non-nil, sees each rank's shard problem
// before its node is built. The caller keeps ownership of mp.
func ShardLoader(mp *sparse.Mapped, testFrac float64, loaded func(rank int, sp *ShardProblem)) Loader {
	return func(c *comm.Comm, cfg core.Config, opt Options) (*Node, error) {
		sp, err := LoadShards(c, mp, testFrac, cfg.Seed, opt)
		if err != nil {
			return nil, err
		}
		if loaded != nil {
			loaded(c.Rank(), sp)
		}
		return NewNodeLocal(c, cfg, sp.Plan, sp.RT, sp.Test, opt)
	}
}

// StartRank builds rank c.Rank()'s node with load and, when man is
// non-nil, resumes it from the checkpoint man seals in
// opt.CheckpointDir. Every rank reassembles the checkpoint from the
// fragment files itself (shared storage in a real cluster), re-slicing
// it by the new plan's bounds, so the resumed run may have any rank
// count.
func StartRank(c *comm.Comm, load Loader, cfg core.Config, opt Options, man *Manifest) (*Node, error) {
	nd, err := load(c, cfg, opt)
	if err != nil || man == nil {
		return nd, err
	}
	base, err := LoadDistCheckpoint(opt.CheckpointDir, man, nd.test)
	if err != nil {
		return nil, err
	}
	if err := nd.Resume(base); err != nil {
		return nil, err
	}
	return nd, nil
}
