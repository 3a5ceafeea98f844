package dist

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// elastic.go is the membership-driven recovery driver of the
// fault-tolerant engine: a run is a sequence of rounds, each over one
// sealed membership view. Rounds end three ways —
//
//   - cleanly: the sampler finished; return the result.
//   - by failure: ranks died (detected by the heartbeat detector,
//     unwinding every survivor with a RankFailedError). The view shrinks
//     by the dead members (epoch+1), their incarnations are recorded in
//     the suspicion table, and the next round resumes from the latest
//     sealed manifest. Pending join requests survive the shrink, so a
//     coordinator death during a proposed-but-unsealed view resolves by
//     the takeover coordinator re-proposing.
//   - by drain: pending joins made rank 0 raise the drain flag in the
//     evaluation allreduce; every rank checkpointed at the boundary and
//     returned a *ViewChange carrying the proposed view, which the
//     driver seals. The next round runs the grown cluster from the
//     just-sealed manifest.
//
// The resumed chain is — bit for bit — the chain a fresh cluster of the
// new size would sample when started from the same manifest:
// partitioning, routing, and the moment-reduction order are pure
// functions of (problem, rank count), and the checkpoint's fragments
// are re-sliced by the *new* bounds on load. Growing, rejoining, and
// shrinking all ride the identical resume path.

// DefaultSuspicionTimeout is the failure-detector timeout the elastic
// driver falls back to when Options.SuspicionTimeout is unset.
const DefaultSuspicionTimeout = 2 * time.Second

// RoundHook lets a caller (typically a test) inject faults and
// membership events into one round of RunInProcElastic: it runs before
// the round's nodes start, with the round's sealed view, its fabric and
// the coordinator's state machine — install Options.OnIteration kills
// or join requests (mem.RequestJoin) through opt, sever links, etc.
// Round 0 is the initial run.
type RoundHook func(round int, view comm.View, fb *comm.FaultFabric, opt *Options, mem *comm.Membership)

// RunInProcElastic executes a distributed run as a virtual in-process
// cluster whose ranks load through load and which survives injected
// rank failures and admits joiners: every round runs one sealed view on
// a fresh FaultFabric. When ranks are killed, the next round resumes
// from the latest checkpoint manifest with the survivors; when the hook
// files join requests, the cluster drains, seals the grown view, and
// resumes with more ranks. Every round re-runs the loader over the
// round's rank count, so a shard-native cluster remaps shards whenever
// the view changes (a dead rank's shards move to survivors; an admitted
// rank takes its share). Requires checkpointing to be configured.
// Returns the final result, the last round's per-rank stats, and the
// final sealed view.
func RunInProcElastic(cfg core.Config, load Loader, opt Options, hook RoundHook) (*core.Result, []Stats, comm.View, error) {
	opt = opt.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, nil, comm.View{}, err
	}
	if opt.CheckpointDir == "" || opt.CheckpointEvery <= 0 {
		return nil, nil, comm.View{}, fmt.Errorf("dist: elastic runs need CheckpointDir and CheckpointEvery (recovery resumes from the latest manifest)")
	}
	if opt.OneSided {
		return nil, nil, comm.View{}, fmt.Errorf("dist: elastic runs are incompatible with OneSided")
	}
	if opt.SuspicionTimeout <= 0 {
		opt.SuspicionTimeout = DefaultSuspicionTimeout
	}

	table := comm.NewSuspicionTable()
	mem := comm.NewMembership(comm.InProcView(opt.Ranks), 0, table)
	for round := 0; ; round++ {
		view := mem.View()
		ranks := len(view.Members)
		ropt := opt
		ropt.Ranks = ranks
		ropt.Epoch = view.Epoch
		ropt.Members = view.Members
		ropt.Suspicions = table
		ropt.Membership = mem

		man, err := LatestManifest(ropt.CheckpointDir)
		if err != nil {
			return nil, nil, view, err
		}

		fb := comm.NewFaultFabric(ranks, cfg.Seed)
		if hook != nil {
			hook(round, view, fb, &ropt, mem)
		}
		results, stats, errs := runRanks(fb.Comms(), cfg, load, ropt, man)
		fb.Close()

		firstErr := firstError(errs)
		if firstErr == nil {
			return results[0], stats, view, nil
		}
		if killed := fb.Killed(); len(killed) > 0 {
			// Failure shrink: depose the dead incarnations (recording them
			// in the suspicion table — a rejoin at the same address must be
			// issued a higher one) and rerun over the survivors. Any
			// ViewChange a rank returned this round was proposed but never
			// sealed; dropping it is safe because the pending joins behind
			// it survive in mem and the next drain re-proposes them.
			dead := make([]string, 0, len(killed))
			for _, r := range killed {
				table.Convict(view.Members[r].Addr, view.Members[r].Incarnation)
				dead = append(dead, view.Members[r].Addr)
			}
			next := view.Shrink(dead...)
			if len(next.Members) < 1 {
				return nil, nil, view, fmt.Errorf("dist: all ranks failed (last error: %w)", firstErr)
			}
			mem.Adopt(next)
			continue
		}
		if vc := allViewChange(errs); vc != nil {
			mem.Seal(vc.View, vc.NextIter)
			continue
		}
		// Nothing was injected and nobody drained, so this is a genuine
		// failure (bad config, I/O error, ...), not something recovery can
		// fix.
		return nil, nil, view, firstErr
	}
}

// allViewChange returns the round's drain verdict when every rank
// returned a *ViewChange (the only way a drain completes), else nil.
func allViewChange(errs []error) *ViewChange {
	var first *ViewChange
	for _, e := range errs {
		var vc *ViewChange
		if e == nil || !errors.As(e, &vc) {
			return nil
		}
		if first == nil {
			first = vc
		}
	}
	return first
}
