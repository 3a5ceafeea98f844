package dist

import (
	"sync"

	"repro/internal/comm"
	"repro/internal/core"
)

// RunInProc executes a distributed run as a virtual cluster inside this
// process: opt.Ranks nodes over the channel-backed fabric, each on its own
// goroutine, every rank holding the whole problem. It returns rank 0's
// result (every rank computes an identical one) and the per-rank
// statistics in rank order.
func RunInProc(cfg core.Config, prob *core.Problem, opt Options) (*core.Result, []Stats, error) {
	return ResumeInProc(cfg, MatrixLoader(prob, nil), nil, opt)
}

// ResumeInProc runs a fault-free in-process cluster of opt.Ranks nodes
// built by load, resumed from the checkpoint man seals in
// opt.CheckpointDir (a fresh start when man is nil). It is the
// clean-restart reference of RunInProcElastic: the differential tests
// pin every recovered, grown or shrunk chain bit-identical to it.
func ResumeInProc(cfg core.Config, load Loader, man *Manifest, opt Options) (*core.Result, []Stats, error) {
	opt = opt.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	fab := comm.NewFabric(opt.Ranks)
	defer fab.Close()
	results, stats, errs := runRanks(fab.Comms(), cfg, load, opt, man)
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	return results[0], stats, nil
}

// runRanks starts and runs one rank per communicator on its own
// goroutine and collects (result, stats, error) per rank.
func runRanks(comms []*comm.Comm, cfg core.Config, load Loader, opt Options, man *Manifest) ([]*core.Result, []Stats, []error) {
	ranks := len(comms)
	results := make([]*core.Result, ranks)
	stats := make([]Stats, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node, err := StartRank(comms[r], load, cfg, opt, man)
			if err != nil {
				errs[r] = err
				return
			}
			res, st, err := node.Run()
			results[r], errs[r] = res, err
			if st != nil {
				stats[r] = *st
			}
		}(r)
	}
	wg.Wait()
	return results, stats, errs
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
