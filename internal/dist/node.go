package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// One-sided segment ids for the two replicated factor matrices.
const (
	segU = 0
	segV = 1
)

// itemGrain is the work-stealing grain of the per-rank item loop when
// ThreadsPerRank > 1 (same value as the multi-core engine).
const itemGrain = 8

// Node is one rank of the distributed engine.
type Node struct {
	c    *comm.Comm
	cfg  core.Config
	opt  Options
	plan *partition.Plan
	test []sparse.Entry // full test set, plan index space

	rank, ranks, k int
	r, rt          *sparse.CSR

	u, v   *la.Matrix
	hu, hv *core.Hyper
	prior  core.NWPrior

	rowOwner, colOwner []int32

	// sendU[i-rowLo] / sendV[j-colLo] list the ranks an owned item's
	// updated row must reach; expU/expV are the ghost rows this rank
	// receives per iteration.
	sendU, sendV [][]int32
	expU, expV   int

	// ordU/ordV are the locality processing orders of the owned ranges
	// (the shared schedule restricted to this rank's items). Within a
	// phase every owned item's draw is keyed by its plan-space id and
	// ghost waits count rows, not positions, so the walk order changes no
	// sampled bit — only the cache behavior of the partner-row gathers.
	ordU, ordV []int32

	pred *core.Predictor // over the locally owned test entries

	// momPart/momVec are the reused scratch of the per-iteration
	// hyperparameter moment reduction.
	momPart *core.Moments
	momVec  []float64

	pool    *sched.Pool
	ws      *core.Workspace // single-thread update path
	wsArena *sched.Arena[*core.Workspace]
	hws     *core.HyperWorkspace

	win    *comm.OneSided
	recBuf []byte

	// firstIter/ckBase position a resumed chain: Run starts at firstIter
	// and the final kernel tally adds ckBase (the counts of all chain
	// segments executed before this run — see Resume).
	firstIter int
	ckBase    [3]int64

	// drainPending latches the drain flag of the last evaluation
	// allreduce: the cluster agreed to seal a view change at this
	// iteration boundary.
	drainPending bool

	kernelCounts [3]atomic.Int64
	stats        Stats
	res          core.Result
}

// NewNode builds rank c.Rank() of a distributed run. plan and test must be
// the (identical) outputs of BuildPlan on every rank.
func NewNode(c *comm.Comm, cfg core.Config, plan *partition.Plan, test []sparse.Entry, opt Options) (*Node, error) {
	return newNode(c, cfg, plan, plan.R.Transpose(), test, opt, false)
}

// NewNodeLocal builds a rank from shard-native per-rank data: plan.R
// holds only this rank's owned rows (all other rows empty, full-size
// row pointers) and rt only its owned columns with their complete
// rater lists — exactly what LoadShards assembles from a rank's
// own .bcsr shards plus the column-ghost exchange. test must still be
// the global test set (routing and interval gathering need every
// rank's test identities). The sampled chain is bit-identical to a
// full-data NewNode under the same plan: every quantity a rank
// computes — its item updates, moment partials, routing table and
// local predictor — reads only the owned slices.
func NewNodeLocal(c *comm.Comm, cfg core.Config, plan *partition.Plan, rt *sparse.CSR, test []sparse.Entry, opt Options) (*Node, error) {
	return newNode(c, cfg, plan, rt, test, opt, true)
}

// newNode is the shared constructor; partial marks plan.R/rt as
// owned-slices-only, which only changes the default schedule (a
// partial rank walks its owned items in natural order — chain-
// invariant, see package order — instead of building a locality order
// from a matrix it doesn't fully hold).
func newNode(c *comm.Comm, cfg core.Config, plan *partition.Plan, rt *sparse.CSR, test []sparse.Entry, opt Options, partial bool) (*Node, error) {
	opt = opt.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if c.Size() != opt.Ranks {
		return nil, fmt.Errorf("dist: communicator has %d ranks, options say %d", c.Size(), opt.Ranks)
	}
	if len(plan.RowBounds) != opt.Ranks+1 || len(plan.ColBounds) != opt.Ranks+1 {
		return nil, fmt.Errorf("dist: plan built for %d ranks, options say %d",
			len(plan.RowBounds)-1, opt.Ranks)
	}
	// Record the summation order the engine's allreduce implements, so the
	// node's config is self-describing (see MomentGroupsOf).
	cfg.MomentGroupsU, cfg.MomentGroupsV = MomentGroupsOf(plan)

	m, n := plan.R.M, plan.R.N
	nd := &Node{
		c: c, cfg: cfg, opt: opt, plan: plan, test: test,
		rank: c.Rank(), ranks: opt.Ranks, k: cfg.K,
		r: plan.R, rt: rt,
		u:     core.InitFactors(cfg.Seed, core.SideU, m, cfg.K),
		v:     core.InitFactors(cfg.Seed, core.SideV, n, cfg.K),
		hu:    core.NewHyper(cfg.K),
		hv:    core.NewHyper(cfg.K),
		prior: core.DefaultNWPrior(cfg.K),
	}
	nd.stats.Rank = nd.rank
	nd.rowOwner = ownersArray(plan.RowBounds, m)
	nd.colOwner = ownersArray(plan.ColBounds, n)
	nd.recBuf = make([]byte, 4+8*nd.k)
	nd.buildRouting()

	// Locality schedule over the owned ranges: opt.Schedule if the launcher
	// built one (MatrixLoader shares a single build across ranks), else built
	// locally — Build is deterministic in plan.R, so either way every rank
	// walks the same global order restricted to its own items. A supplied
	// schedule must be a permutation of the plan's index space: a stale or
	// truncated order would make this rank skip owned items, and its
	// peers, whose expected ghost counts come from the routing table, not
	// the schedule, would then block forever waiting for the missing rows.
	sch := opt.Schedule
	if sch == nil {
		if partial {
			// A shard-native rank holds only its owned slices, so it takes
			// the natural order (nil orders restrict to the identity).
			sch = &order.Schedule{}
		} else {
			sch = order.Build(plan.R, order.Options{HeavyThreshold: cfg.KernelThreshold})
		}
	} else {
		if sch.U != nil && !order.IsPermutation(sch.U, m) {
			return nil, fmt.Errorf("dist: schedule U order is not a permutation of [0,%d)", m)
		}
		if sch.V != nil && !order.IsPermutation(sch.V, n) {
			return nil, fmt.Errorf("dist: schedule V order is not a permutation of [0,%d)", n)
		}
	}
	nd.ordU = order.Restrict(sch.U, plan.RowBounds[nd.rank], plan.RowBounds[nd.rank+1])
	nd.ordV = order.Restrict(sch.V, plan.ColBounds[nd.rank], plan.ColBounds[nd.rank+1])
	nd.momPart = core.NewMoments(cfg.K)
	nd.momVec = make([]float64, 1+cfg.K+cfg.K*cfg.K)
	nd.res.SampleRMSE = make([]float64, 0, cfg.Iters)
	nd.res.AvgRMSE = make([]float64, 0, cfg.Iters)

	var localTest []sparse.Entry
	for _, e := range test {
		if nd.rowOwner[e.Row] == int32(nd.rank) {
			localTest = append(localTest, e)
		}
	}
	nd.pred = core.NewPredictor(localTest, cfg.ClampMin, cfg.ClampMax)
	nd.pred.Alpha = cfg.Alpha

	acc := core.NewAccArena(cfg.K)
	if opt.ThreadsPerRank > 1 {
		nd.wsArena = sched.NewArena(func() *core.Workspace {
			return core.NewWorkspaceShared(cfg.K, acc)
		})
	} else {
		nd.ws = core.NewWorkspaceShared(cfg.K, acc)
	}
	nd.hws = core.NewHyperWorkspace(cfg.K)
	return nd, nil
}

func ownersArray(bounds []int, n int) []int32 {
	owner := make([]int32, n)
	for p := 0; p+1 < len(bounds); p++ {
		for i := bounds[p]; i < bounds[p+1]; i++ {
			owner[i] = int32(p)
		}
	}
	return owner
}

// buildRouting derives, for every owned item, the destination ranks of its
// updated factor row, and the total ghost rows this rank expects per
// iteration. All ranks compute the (deterministic) table from the shared
// plan, so no routing metadata ever travels over the network — and the
// computation reads only this rank's owned slices (its own rows of R,
// its own columns of Rᵀ with their complete rater lists, and the global
// test set), so a shard-native rank that never loaded the other panels
// builds the identical table a full-data rank would.
//
// A movie row j goes to every rank owning a user that rated j, plus every
// rank owning a user with a held-out test entry on j (so evaluation always
// sees fresh factors). A user row i goes to every rank owning a movie i
// rated (those ranks read it in the next movie phase). Conversely, the
// expected ghost counts are the distinct foreign users rating an owned
// movie (expU) and the distinct foreign movies an owned user rated or
// holds a test entry on (expV).
func (nd *Node) buildRouting() {
	rowLo, rowHi := nd.plan.RowBounds[nd.rank], nd.plan.RowBounds[nd.rank+1]
	colLo, colHi := nd.plan.ColBounds[nd.rank], nd.plan.ColBounds[nd.rank+1]
	nd.sendU = make([][]int32, rowHi-rowLo)
	nd.sendV = make([][]int32, colHi-colLo)
	self := int32(nd.rank)

	// Ranks that need each movie for test evaluation, beyond its raters.
	testNeedV := make(map[int32][]int32)
	for _, e := range nd.test {
		testNeedV[e.Col] = append(testNeedV[e.Col], nd.rowOwner[e.Row])
	}

	seen := make([]int, nd.ranks)
	epoch := 0
	destsOf := func(owner int32, partners []int32, partnerOwner []int32, extra []int32) []int32 {
		epoch++
		seen[owner] = epoch
		var dests []int32
		for _, p := range partners {
			if o := partnerOwner[p]; seen[o] != epoch {
				seen[o] = epoch
				dests = append(dests, o)
			}
		}
		for _, o := range extra {
			if seen[o] != epoch {
				seen[o] = epoch
				dests = append(dests, o)
			}
		}
		sort.Slice(dests, func(a, b int) bool { return dests[a] < dests[b] })
		return dests
	}

	for j := colLo; j < colHi; j++ {
		raters, _ := nd.rt.Row(j)
		nd.sendV[j-colLo] = destsOf(self, raters, nd.rowOwner, testNeedV[int32(j)])
	}
	for i := rowLo; i < rowHi; i++ {
		rated, _ := nd.r.Row(i)
		nd.sendU[i-rowLo] = destsOf(self, rated, nd.colOwner, nil)
	}

	visRow := make([]bool, nd.r.M)
	for j := colLo; j < colHi; j++ {
		raters, _ := nd.rt.Row(j)
		for _, i := range raters {
			if nd.rowOwner[i] != self && !visRow[i] {
				visRow[i] = true
				nd.expU++
			}
		}
	}
	visCol := make([]bool, nd.rt.M)
	for i := rowLo; i < rowHi; i++ {
		rated, _ := nd.r.Row(i)
		for _, j := range rated {
			if nd.colOwner[j] != self && !visCol[j] {
				visCol[j] = true
				nd.expV++
			}
		}
	}
	for _, e := range nd.test {
		if nd.rowOwner[e.Row] == self && nd.colOwner[e.Col] != self && !visCol[e.Col] {
			visCol[e.Col] = true
			nd.expV++
		}
	}
}

// itemTag returns the message tag of one iteration's item exchange phase.
func itemTag(iter int, side core.Side) int {
	return 1 + 2*iter + int(side)
}

// allreduce sums per-rank float64 vectors with the configured reduction.
// A peer failing mid-reduction surfaces as an error, so the run can
// unwind to the recovery driver.
func (nd *Node) allreduce(v []float64) ([]float64, error) {
	if nd.opt.TreeAllreduce {
		return nd.c.AllreduceSumTree(v)
	}
	return nd.c.AllreduceSumOrdered(v)
}

// sampleHyper draws one side's hyperparameters from the globally reduced
// moments. The rank-ordered allreduce adds partials in ascending rank
// order, which is exactly MomentsGrouped's combine order with groups =
// the ownership boundaries — the key to bit-equality with the sequential
// reference.
func (nd *Node) sampleHyper(iter int, side core.Side, x *la.Matrix, bounds []int, h *core.Hyper) error {
	lo, hi := bounds[nd.rank], bounds[nd.rank+1]
	part := nd.momPart
	part.Zero()
	part.AccumulateRows(x, lo, hi)

	vec := nd.momVec
	vec[0] = part.N
	copy(vec[1:1+nd.k], part.Sum)
	copy(vec[1+nd.k:], part.SumSq.Data)
	t0 := time.Now()
	tot, err := nd.allreduce(vec)
	nd.stats.WaitTime += time.Since(t0)
	if err != nil {
		return err
	}
	part.N = tot[0]
	copy(part.Sum, tot[1:1+nd.k])
	copy(part.SumSq.Data, tot[1+nd.k:])

	core.SampleHyperWS(nd.prior, part, core.HyperStream(nd.cfg.Seed, iter, side), h, nd.hws)
	return nil
}

// updateSide samples every owned item of one side, streams each updated
// row to the ranks that need it, then blocks until all expected ghost
// rows of the phase have been applied to the local replica.
func (nd *Node) updateSide(iter int, side core.Side) error {
	cfg := &nd.cfg
	var lo, hi int
	var self, other *la.Matrix
	var ratings *sparse.CSR
	var send [][]int32
	var exp, seg int
	var hyper *core.Hyper
	var ord []int32
	if side == core.SideV {
		lo, hi = nd.plan.ColBounds[nd.rank], nd.plan.ColBounds[nd.rank+1]
		self, other, hyper = nd.v, nd.u, nd.hv
		ratings, send, exp, seg = nd.rt, nd.sendV, nd.expV, segV
		ord = nd.ordV
	} else {
		lo, hi = nd.plan.RowBounds[nd.rank], nd.plan.RowBounds[nd.rank+1]
		self, other, hyper = nd.u, nd.v, nd.hu
		ratings, send, exp, seg = nd.r, nd.sendU, nd.expU, segU
		ord = nd.ordU
	}
	tag := itemTag(iter, side)

	var coals []*comm.Coalescer
	if !nd.opt.OneSided {
		coals = make([]*comm.Coalescer, nd.ranks)
		for dst := 0; dst < nd.ranks; dst++ {
			if dst != nd.rank {
				coals[dst] = comm.NewCoalescer(nd.c, dst, tag, nd.opt.BufferSize)
			}
		}
	}

	var firstSend time.Time
	sendItem := func(item int) error {
		dests := send[item-lo]
		if len(dests) == 0 {
			return nil
		}
		if firstSend.IsZero() {
			firstSend = time.Now()
		}
		row := self.Row(item)
		if nd.opt.OneSided {
			for _, dst := range dests {
				if err := nd.win.Put(int(dst), seg, int64(item*nd.k), row, tag); err != nil {
					return err
				}
			}
		} else {
			// Ghost record: u32 item id, then the row's K float64s.
			nd.recBuf = comm.AppendFloat64s(binary.LittleEndian.AppendUint32(nd.recBuf[:0], uint32(item)), row)
			for _, dst := range dests {
				if err := coals[dst].Append(nd.recBuf); err != nil {
					return err
				}
			}
		}
		nd.stats.ItemsSent += int64(len(dests))
		return nil
	}

	update := func(ws *core.Workspace, w *sched.Worker, item int) {
		cols, vals := ratings.Row(item)
		kern := cfg.SelectKernel(len(cols))
		nd.kernelCounts[kern].Add(1)
		core.UpdateItem(ws, kern, cfg, cols, vals, other, hyper,
			ws.ItemStream(cfg.Seed, iter, side, item), nd.pool, w, self.Row(item))
	}

	computeStart := time.Now()
	if nd.pool != nil {
		// Threaded path: all updates finish before the send sweep, so the
		// sweep is exposed communication, not compute — it counts toward
		// neither ComputeTime nor OverlapTime. Workers walk schedule
		// positions; a contiguous position block holds locality-adjacent
		// items.
		nd.pool.ParallelFor(0, len(ord), itemGrain, func(w *sched.Worker, a, b int) {
			for pos := a; pos < b; pos++ {
				ws := nd.wsArena.Get(w)
				update(ws, w, int(ord[pos]))
				nd.wsArena.Put(w, ws)
			}
		})
		nd.stats.ComputeTime += time.Since(computeStart)
		for item := lo; item < hi; item++ {
			if err := sendItem(item); err != nil {
				return err
			}
		}
		if err := nd.flushAll(coals); err != nil {
			return err
		}
	} else {
		// Interleaved path: sends overlap the remaining item updates;
		// OverlapTime is the compute tail spent with sends in flight. Each
		// item is sent right after its update, so the walk order also
		// spreads the sends of locality-adjacent items across the phase.
		for _, it32 := range ord {
			item := int(it32)
			update(nd.ws, nil, item)
			if err := sendItem(item); err != nil {
				return err
			}
		}
		if err := nd.flushAll(coals); err != nil {
			return err
		}
		computeEnd := time.Now()
		nd.stats.ComputeTime += computeEnd.Sub(computeStart)
		if !firstSend.IsZero() {
			nd.stats.OverlapTime += computeEnd.Sub(firstSend)
		}
	}

	t0 := time.Now()
	var err error
	if nd.opt.OneSided {
		if exp > 0 {
			_, err = nd.win.WaitNotify(tag, int64(exp))
		}
		nd.stats.GhostsRecv += int64(exp)
	} else {
		err = nd.recvGhosts(tag, exp, self)
	}
	nd.stats.WaitTime += time.Since(t0)
	return err
}

// flushAll drains the phase's coalescers (no-op in one-sided mode).
func (nd *Node) flushAll(coals []*comm.Coalescer) error {
	for _, co := range coals {
		if co != nil {
			if err := co.Flush(); err != nil {
				return err
			}
			nd.stats.Flushes += co.Flushes()
		}
	}
	return nil
}

// recvGhosts applies coalesced item records to the local replica until the
// expected count of the phase has arrived. A dead peer unwinds the wait
// with its RankFailedError instead of blocking forever, and a malformed
// message (a partial record, a row outside the matrix) with an error.
func (nd *Node) recvGhosts(tag, expected int, dst *la.Matrix) error {
	recSize := 4 + 8*nd.k
	got := 0
	for got < expected {
		m, err := nd.c.Recv(comm.AnySource, tag)
		if err != nil {
			return err
		}
		if len(m.Data)%recSize != 0 {
			return fmt.Errorf("dist: ghost message of %d bytes from rank %d is not a whole number of %d-byte records",
				len(m.Data), m.Src, recSize)
		}
		for off := 0; off < len(m.Data); off += recSize {
			idx := binary.LittleEndian.Uint32(m.Data[off:])
			if int64(idx) >= int64(dst.Rows) {
				return fmt.Errorf("dist: ghost row %d from rank %d is outside [0,%d)", idx, m.Src, dst.Rows)
			}
			if err := comm.DecodeFloat64sInto(dst.Row(int(idx)), m.Data[off+4:off+recSize]); err != nil {
				return err
			}
			got++
		}
	}
	nd.stats.GhostsRecv += int64(got)
	return nil
}

// evaluate scores the test set: per-rank partial squared errors — chunked
// over the rank's thread pool through the fixed EvalChunk tree when one
// exists — combined with the deterministic allreduce, so every rank
// records the identical RMSE trace at any thread count.
func (nd *Node) evaluate(iter int) error {
	collect := iter >= nd.cfg.Burnin
	var runAll func(n int, run func(c int))
	if nd.pool != nil {
		runAll = func(n int, run func(c int)) {
			nd.pool.ParallelFor(0, n, 1, func(_ *sched.Worker, lo, hi int) {
				for c := lo; c < hi; c++ {
					run(c)
				}
			})
		}
	}
	seS, seA, n := nd.pred.PartialUpdatePar(nd.u, nd.v, collect, runAll)
	// The vector's fourth element is the membership drain flag: rank 0
	// raises it when pending joins await admission, and the reduction
	// delivers it to every rank at the same iteration — the evaluation
	// allreduce is the one point all ranks pass in lockstep, so no
	// out-of-band message ordering can make ranks disagree about the
	// drain boundary. The element is always present (and 0 outside
	// membership runs), so it is chain-inert: the RMSE math below never
	// reads it.
	drain := 0.0
	if nd.rank == 0 && nd.opt.Membership != nil && iter >= nd.opt.GrowAtIter && nd.opt.Membership.HasPending() {
		drain = 1
	}
	t0 := time.Now()
	tot, err := nd.allreduce([]float64{seS, seA, n, drain})
	nd.stats.WaitTime += time.Since(t0)
	if err != nil {
		return err
	}
	nd.drainPending = tot[3] != 0
	sr, ar := math.NaN(), math.NaN()
	if tot[2] > 0 {
		sr, ar = math.Sqrt(tot[0]/tot[2]), math.Sqrt(tot[1]/tot[2])
	}
	nd.res.SampleRMSE = append(nd.res.SampleRMSE, sr)
	nd.res.AvgRMSE = append(nd.res.AvgRMSE, ar)
	return nil
}

// gatherSide completes the local replica of one side: every rank
// broadcasts its owned row range (rows nobody rated were never ghosted).
func (nd *Node) gatherSide(x *la.Matrix, bounds []int) error {
	lo, hi := bounds[nd.rank], bounds[nd.rank+1]
	blobs, err := nd.c.Allgather(comm.AppendFloat64s(nil, x.Data[lo*nd.k:hi*nd.k]))
	if err != nil {
		return err
	}
	for r, b := range blobs {
		if err := comm.DecodeFloat64sInto(x.Data[bounds[r]*nd.k:bounds[r+1]*nd.k], b); err != nil {
			return fmt.Errorf("dist: rows of rank %d: %w", r, err)
		}
	}
	return nil
}

// gatherIntervals reassembles the posterior predictive intervals in global
// test order from the per-rank predictors.
func (nd *Node) gatherIntervals() ([]core.Interval, error) {
	local := nd.pred.Intervals()
	blobs, err := nd.c.Allgather(encodeIntervals(local))
	if err != nil {
		return nil, err
	}
	queues := make([][]core.Interval, nd.ranks)
	total := 0
	for r, b := range blobs {
		if queues[r], err = decodeIntervals(b); err != nil {
			return nil, fmt.Errorf("dist: intervals of rank %d: %w", r, err)
		}
		total += len(queues[r])
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]core.Interval, 0, total)
	next := make([]int, nd.ranks)
	for _, e := range nd.test {
		r := nd.rowOwner[e.Row]
		if next[r] < len(queues[r]) {
			out = append(out, queues[r][next[r]])
			next[r]++
		}
	}
	return out, nil
}

// Run executes the configured Gibbs iterations and returns the (rank-
// identical) result plus this rank's statistics. When a peer dies
// mid-run (and a failure detector is attached), Run returns a
// comm.RankFailedError instead of hanging — the caller resumes from the
// last checkpoint with the surviving ranks.
func (nd *Node) Run() (*core.Result, *Stats, error) {
	if nd.opt.OneSided {
		if nd.opt.SuspicionTimeout > 0 {
			return nil, nil, fmt.Errorf("dist: failure detection is not supported with the one-sided exchange, which has no recovery path")
		}
		nd.win = comm.NewOneSided(nd.c)
		nd.win.Register(segU, nd.u.Data)
		nd.win.Register(segV, nd.v.Data)
		defer nd.win.Close()
	}
	if nd.opt.SuspicionTimeout > 0 {
		members, table := nd.opt.Members, nd.opt.Suspicions
		if members == nil {
			members = comm.InProcView(nd.ranks).Members
		}
		if table == nil {
			table = comm.NewSuspicionTable()
		}
		det := comm.StartDetector(nd.c, nd.opt.HeartbeatInterval, nd.opt.SuspicionTimeout, members, table)
		defer det.Stop()
	}
	if nd.opt.ThreadsPerRank > 1 {
		nd.pool = sched.NewPool(nd.opt.ThreadsPerRank)
		defer nd.pool.Close()
	}

	start := time.Now()
	for it := nd.firstIter; it < nd.cfg.Iters; it++ {
		// Movies first, then users (Algorithm 1). The user phase reads the
		// movie ghosts of this iteration, so each phase ends with a wait
		// for its expected ghost count.
		if err := nd.sampleHyper(it, core.SideV, nd.v, nd.plan.ColBounds, nd.hv); err != nil {
			return nil, nil, err
		}
		if err := nd.updateSide(it, core.SideV); err != nil {
			return nil, nil, err
		}
		if err := nd.sampleHyper(it, core.SideU, nd.u, nd.plan.RowBounds, nd.hu); err != nil {
			return nil, nil, err
		}
		if err := nd.updateSide(it, core.SideU); err != nil {
			return nil, nil, err
		}
		if err := nd.evaluate(it); err != nil {
			return nil, nil, err
		}
		drained := nd.drainPending
		nd.drainPending = false
		wrote := false
		if nd.opt.CheckpointDir != "" && nd.opt.CheckpointEvery > 0 && (it+1)%nd.opt.CheckpointEvery == 0 {
			if err := nd.writeCheckpoint(it + 1); err != nil {
				return nil, nil, err
			}
			wrote = true
		}
		if drained && !wrote {
			// A drain boundary always seals a manifest, cadence-aligned or
			// not: the grown cluster resumes from exactly this iteration.
			if err := nd.writeCheckpoint(it + 1); err != nil {
				return nil, nil, err
			}
		}
		// The hook runs after the iteration's checkpoint (if any) is
		// sealed, so a hook-injected kill at iteration t tests recovery
		// from exactly the latest manifest ≤ t+1 — and, at a drain
		// iteration, a kill lands between the sealed manifest and the
		// view exchange (the proposed-but-unsealed window).
		if nd.opt.OnIteration != nil {
			nd.opt.OnIteration(nd.rank, it)
		}
		if nd.opt.IterDelay > 0 {
			time.Sleep(nd.opt.IterDelay)
		}
		if drained {
			view, err := nd.exchangeView()
			if err != nil {
				return nil, nil, err
			}
			return nil, nil, &ViewChange{NextIter: it + 1, View: view}
		}
	}

	if err := nd.gatherSide(nd.u, nd.plan.RowBounds); err != nil {
		return nil, nil, err
	}
	if err := nd.gatherSide(nd.v, nd.plan.ColBounds); err != nil {
		return nil, nil, err
	}
	ivs, err := nd.gatherIntervals()
	if err != nil {
		return nil, nil, err
	}

	kc, err := nd.allreduce([]float64{
		float64(nd.kernelCounts[0].Load()),
		float64(nd.kernelCounts[1].Load()),
		float64(nd.kernelCounts[2].Load()),
	})
	if err != nil {
		return nil, nil, err
	}
	for i := range nd.res.KernelCounts {
		nd.res.KernelCounts[i] = nd.ckBase[i] + int64(kc[i])
	}

	u, v := nd.u, nd.v
	if nd.plan.Reordered {
		u, v = permuteBack(nd.u, nd.plan.RowPerm), permuteBack(nd.v, nd.plan.ColPerm)
		for t := range ivs {
			ivs[t].Row = nd.plan.RowPerm[ivs[t].Row]
			ivs[t].Col = nd.plan.ColPerm[ivs[t].Col]
		}
	}

	nd.res.Elapsed = time.Since(start)
	nd.res.U, nd.res.V = u, v
	nd.res.Iters = nd.cfg.Iters
	nd.res.ItemUpdates = int64(nd.cfg.Iters) * int64(nd.r.M+nd.r.N)
	nd.res.Intervals = ivs
	nd.stats.Comm = nd.c.Stats()
	st := nd.stats
	return &nd.res, &st, nil
}

// ViewChange is the control "error" Run returns when the cluster drains
// for a sealed membership change: every rank checkpointed at NextIter,
// agreed on the boundary through the drain flag carried in the
// evaluation allreduce, and received the proposed next view from rank
// 0. The caller tears down the fabric, re-meshes as View, and resumes
// from the NextIter manifest.
type ViewChange struct {
	// NextIter is the sealed manifest's iteration — the first iteration
	// the re-meshed cluster executes.
	NextIter int
	// View is the proposed next membership view.
	View comm.View
}

func (e *ViewChange) Error() string {
	return fmt.Sprintf("dist: view change to epoch %d (%d ranks) at iteration %d",
		e.View.Epoch, len(e.View.Members), e.NextIter)
}

// exchangeView distributes rank 0's proposed next view to every rank of
// the draining cluster (rank 0 owns the Membership state machine; the
// others learn the view through the broadcast).
func (nd *Node) exchangeView() (comm.View, error) {
	var blob []byte
	if nd.rank == 0 {
		if nd.opt.Membership == nil {
			return comm.View{}, fmt.Errorf("dist: drain flag raised without a membership state machine on rank 0")
		}
		b, err := json.Marshal(nd.opt.Membership.Propose())
		if err != nil {
			return comm.View{}, err
		}
		blob = b
	}
	out, err := nd.c.Bcast(0, blob)
	if err != nil {
		return comm.View{}, err
	}
	var v comm.View
	if err := json.Unmarshal(out, &v); err != nil {
		return comm.View{}, fmt.Errorf("dist: malformed view broadcast: %w", err)
	}
	return v, nil
}

// permuteBack maps a factor matrix from plan index space to the original
// ordering: perm[planPos] = originalIndex.
func permuteBack(x *la.Matrix, perm []int32) *la.Matrix {
	out := la.NewMatrix(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(int(perm[i])), x.Row(i))
	}
	return out
}

// Plan re-exports the plan a node runs with (useful for tooling).
func (nd *Node) Plan() *partition.Plan { return nd.plan }
