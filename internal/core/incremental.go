package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"nmostv/internal/clocks"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// DeltaStats reports how much of an incremental re-analysis was actually
// recomputed.
type DeltaStats struct {
	// Comps is the total component count of the propagation plan.
	Comps int
	// CompsRelaxed and NodesRelaxed count the components and nodes whose
	// arrivals were re-relaxed in either pass (settle or early).
	CompsRelaxed, NodesRelaxed int
	// ReusedWave reports whether the previous propagation plan was kept
	// (arc endpoints unchanged).
	ReusedWave bool
	// Relaxed marks, per node index, the nodes re-relaxed in either pass.
	// When the call ran with Options.Arena, the mask is arena-backed:
	// consume it before the next analysis on that arena.
	Relaxed []bool
}

// AnalyzeIncremental extends a previous analysis after a netlist edit
// instead of starting over. dirtySeed marks (by node index) every node
// whose incoming timing arcs may have changed — for a delta this is the
// nodes of the stages the delay cache rebuilt; new nodes, changed source
// anchors, changed storage classifications, and components whose member
// list a rebuilt plan changed are detected here and added to the seed.
// Only the components of the propagation plan reachable from the seed
// through value changes are re-relaxed; everything else keeps the
// previous fixpoint, which is provably equal to what a from-scratch run
// would compute (untouched components have identical incoming arrivals,
// identical internal arcs, and the same member list). The returned Result
// is bit-identical to Analyze(nl, model, sched, opt) on the same state.
//
// When prev's backward pass has run, the result also keeps prev's
// Required and a list of seed nodes, so its own first Required call
// re-relaxes only the changed fanin cone (see Required).
//
// prev must come from Analyze or AnalyzeIncremental on an earlier state of
// the same netlist (nodes are append-only; model may be rebuilt). A nil
// prev degenerates to a full analysis.
// Like Analyze, the context aborts the cone re-relaxation mid-walk; the
// caller's previous Result is never mutated, so an aborted incremental
// pass leaves the published analysis intact.
func AnalyzeIncremental(ctx context.Context, nl *netlist.Netlist, model *delay.Model, sched clocks.Schedule, opt Options, prev *Result, dirtySeed []bool) (*Result, DeltaStats, error) {
	if prev == nil || prev.wave == nil {
		r, err := Analyze(ctx, nl, model, sched, opt)
		if err != nil {
			return nil, DeltaStats{}, err
		}
		n := len(nl.Nodes)
		st := DeltaStats{
			Comps:        r.wave.numComps(),
			CompsRelaxed: r.wave.numComps(),
			NodesRelaxed: n,
			Relaxed:      fillBool(n, true),
		}
		return r, st, nil
	}
	if err := sched.Validate(); err != nil {
		return nil, DeltaStats{}, err
	}
	opt = opt.withDefaults()
	n := len(nl.Nodes)
	r := &Result{NL: nl, Model: model, Sched: sched}
	r.allocArrays(n)
	growCopy(r.RiseAt, prev.RiseAt, NegInf)
	growCopy(r.FallAt, prev.FallAt, NegInf)
	growCopy(r.EarlyRise, prev.EarlyRise, PosInf)
	growCopy(r.EarlyFall, prev.EarlyFall, PosInf)
	copy(r.predRise, prev.predRise)
	copy(r.predFall, prev.predFall)
	a := &analysis{Result: r, opt: opt, ctx: orBackground(ctx)}
	a.arena = arenaFor(opt)
	a.initMetrics()
	defer opt.Obs.Span("analyze-incremental").End()
	stats := DeltaStats{}

	// The plan reads only the node count and each arc's endpoints, so it
	// is kept whenever no arc moved. A shared per-corner plan comes with
	// the moves its base analysis found.
	sp := opt.Obs.Span("wave-plan")
	r.moves = opt.Plan.movesFrom(prev, model)
	switch {
	case opt.Plan.fits(n, len(model.Edges)):
		r.wave = opt.Plan.ws
	case r.moves.idx == nil && n == len(prev.wave.compOf):
		r.wave = prev.wave
	default:
		r.wave = newWaveSchedule(n, model, a.arena)
	}
	stats.ReusedWave = r.wave == prev.wave
	r.moves.apply(r.predRise)
	r.moves.apply(r.predFall)
	sp.End()
	stats.Comps = r.wave.numComps()

	// Snapshot the previous fixpoint (grown with NaN so any comparison
	// against a new node's slot reads "changed") before re-anchoring the
	// sources overwrites the working arrays.
	snapRise := a.arena.float64Copy(prev.RiseAt, n, math.NaN())
	snapFall := a.arena.float64Copy(prev.FallAt, n, math.NaN())
	snapER := a.arena.float64Copy(prev.EarlyRise, n, math.NaN())
	snapEF := a.arena.float64Copy(prev.EarlyFall, n, math.NaN())

	sp = opt.Obs.Span("sources+storage")
	a.initSources()
	a.classifyStorage()
	sp.End()
	// A source never has a producing arc; clear any pred left over from a
	// node that only just became fixed (e.g. an added input annotation).
	for i := 0; i < n; i++ {
		if a.fixedRise[i] {
			a.predRise[i] = pred{edge: -1}
		}
		if a.fixedFall[i] {
			a.predFall[i] = pred{edge: -1}
		}
	}

	// Structural seed: caller's dirty nodes, nodes that did not exist in
	// prev, nodes whose storage classification flipped (their
	// incoming-arc filter changed), and components a rebuilt plan
	// reordered or split.
	base := a.arena.bools(n)
	for i := 0; i < n; i++ {
		if (i < len(dirtySeed) && dirtySeed[i]) || i >= len(prev.RiseAt) {
			base[i] = true
			continue
		}
		ps := i < len(prev.clockedStorage) && prev.clockedStorage[i]
		if a.clockedStorage[i] != ps {
			base[i] = true
		}
	}
	if r.wave != prev.wave {
		seedChangedComps(r.wave, prev.wave, base)
	}

	// Settle seed: structure plus changed source anchors (initSources
	// only ever writes fixed values, so any difference from the snapshot
	// is an anchor change).
	seed := a.arena.bools(n)
	copy(seed, base)
	for i := 0; i < n; i++ {
		if r.RiseAt[i] != snapRise[i] || r.FallAt[i] != snapFall[i] {
			seed[i] = true
		}
	}
	relaxed := a.arena.bools(n)
	sp = opt.Obs.Span("cone-re-relax")
	sc, sn := a.propagateDirty(seed, snapRise, snapFall, prev.loopNodes, relaxed)
	sp.End()

	// Early pass: re-apply the anchors (they mirror the settle sources),
	// then seed from structure plus anchor changes. Settle values feed the
	// early pass only through these anchors.
	for i := 0; i < n; i++ {
		if a.fixedRise[i] && !isInfNeg(r.RiseAt[i]) {
			r.EarlyRise[i] = r.RiseAt[i]
		}
		if a.fixedFall[i] && !isInfNeg(r.FallAt[i]) {
			r.EarlyFall[i] = r.FallAt[i]
		}
	}
	eseed := a.arena.bools(n)
	copy(eseed, base)
	for i := 0; i < n; i++ {
		if r.EarlyRise[i] != snapER[i] || r.EarlyFall[i] != snapEF[i] {
			eseed[i] = true
		}
	}
	sp = opt.Obs.Span("cone-re-relax-early")
	ec, en := a.propagateEarlyDirty(eseed, snapER, snapEF, relaxed)
	sp.End()

	if sc > ec {
		stats.CompsRelaxed = sc
	} else {
		stats.CompsRelaxed = ec
	}
	if sn > en {
		stats.NodesRelaxed = sn
	} else {
		stats.NodesRelaxed = en
	}
	stats.Relaxed = relaxed

	if err := a.abortErr(); err != nil {
		return nil, DeltaStats{}, err
	}
	if q := prev.memo(); q != nil {
		r.reqPrev = q
		r.reqSeeds = a.requiredSeeds(prev, base, snapRise, snapFall)
	}
	// Checks name arcs by index and read the schedule, so they splice
	// only over the previous plan under the same schedule.
	sp = opt.Obs.Span("checks")
	var affected []bool
	if r.wave == prev.wave && sched == prev.Sched {
		affected = a.affectedChecks(relaxed, snapRise, snapFall, snapER, snapEF)
	}
	a.runChecks(prev.Checks, affected)
	sp.End()
	return r, stats, nil
}

// seedChangedComps marks, for a plan rebuilt from old, the first node of
// every component whose node sequence differs from old's component of
// that node. Keeping a component's previous values is only sound when it
// relaxes over the same member list: a component that does not converge
// stops after SCCIterBound·|comp|+8 rounds, and the Gauss–Seidel order —
// hence its values, and which of two equal arcs a node records — follows
// the list. Each new component is compared once, so the pass is O(n).
// Components holding a new node are seeded already.
func seedChangedComps(ws, old *waveSchedule, seed []bool) {
	for ci := 0; ci < ws.numComps(); ci++ {
		comp := ws.comp(int32(ci))
		v := comp[0]
		if int(v) < len(old.compOf) && !slices.Equal(comp, old.comp(old.compOf[v])) {
			seed[v] = true
		}
	}
}

// requiredSeeds lists the nodes whose required times may differ from
// prev's even where every successor's required time is unchanged: the
// structural seed, the From nodes of the seed nodes' old and new in-arcs
// (the arcs that may have changed, appeared or vanished, and the arcs a
// flipped storage filter reclassified), and every node whose settle
// arrival changed (arrivals decide which arcs transmit, and the slack).
// The list is as long as the cone, not the design.
func (a *analysis) requiredSeeds(prev *Result, base []bool, snapRise, snapFall []float64) []int32 {
	listed := a.arena.bools(len(base))
	var seeds []int32
	add := func(v int32) {
		if !listed[v] {
			listed[v] = true
			seeds = append(seeds, v)
		}
	}
	for i, b := range base {
		v := int32(i)
		if b {
			add(v)
			for _, ei := range a.wave.in(v) {
				add(a.Model.Edges[ei].From)
			}
			if i < len(prev.wave.compOf) {
				for _, ei := range prev.wave.in(v) {
					add(prev.Model.Edges[ei].From)
				}
			}
		}
		if !sameBits(a.RiseAt[i], snapRise[i]) || !sameBits(a.FallAt[i], snapFall[i]) {
			add(v)
		}
	}
	return seeds
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// propagateDirty is propagate restricted to the dirty cone: components
// holding a seeded node reset their non-fixed arrivals and re-relax exactly
// as a full run would; a component whose post-relax values differ from the
// previous fixpoint wakes its successors. Cross-component arcs always lead
// to strictly later levels, so marking a successor dirty from inside the
// wavefront is safe — its level has not started. Components never woken
// keep the previous values, and the relaxation a woken component runs is
// the same pure function of its (final) predecessor values as in a full
// run, so the fixpoint is bit-identical.
func (a *analysis) propagateDirty(seed []bool, snapRise, snapFall []float64, prevLoops []*netlist.Node, relaxed []bool) (comps, nodes int) {
	ws := a.wave
	dirty := a.seedComps(ws, seed)
	touched := a.arena.bools(ws.numComps())
	loops := a.arena.loopSlices(ws.numComps())
	var nc, nn atomic.Int64
	a.forEachComp(func(ci int32) {
		if !dirty[ci].Load() {
			return
		}
		touched[ci] = true
		comp := ws.comp(ci)
		nc.Add(1)
		nn.Add(int64(len(comp)))
		for _, idx := range comp {
			relaxed[idx] = true
			if !a.fixedRise[idx] {
				a.RiseAt[idx] = NegInf
				a.predRise[idx] = pred{edge: -1}
			}
			if !a.fixedFall[idx] {
				a.FallAt[idx] = NegInf
				a.predFall[idx] = pred{edge: -1}
			}
		}
		if !ws.cyclic[ci] {
			a.relaxNode(int(comp[0]), ws.in(comp[0]))
		} else {
			loops[ci] = a.iterateSCC(comp, ws)
		}
		for _, idx := range comp {
			if a.RiseAt[idx] != snapRise[idx] || a.FallAt[idx] != snapFall[idx] {
				for _, ei := range ws.out(idx) {
					if wc := ws.compOf[a.Model.Edges[ei].To]; wc != ci {
						dirty[wc].Store(true)
					}
				}
			}
		}
	})
	// Loop findings: keep the previous ones in components that were not
	// re-relaxed (their verdict cannot have changed), replace the rest.
	a.loopNodes = nil
	for _, nd := range prevLoops {
		if !touched[ws.compOf[nd.Index]] {
			a.loopNodes = append(a.loopNodes, nd)
		}
	}
	for _, l := range loops {
		a.loopNodes = append(a.loopNodes, l...)
	}
	sort.Slice(a.loopNodes, func(i, j int) bool {
		return a.loopNodes[i].Index < a.loopNodes[j].Index
	})
	return int(nc.Load()), int(nn.Load())
}

// propagateEarlyDirty is propagateEarly restricted to the dirty cone; see
// propagateDirty for the wake protocol.
func (a *analysis) propagateEarlyDirty(seed []bool, snapRise, snapFall []float64, relaxed []bool) (comps, nodes int) {
	ws := a.wave
	dirty := a.seedComps(ws, seed)
	var nc, nn atomic.Int64
	a.forEachComp(func(ci int32) {
		if !dirty[ci].Load() {
			return
		}
		comp := ws.comp(ci)
		nc.Add(1)
		nn.Add(int64(len(comp)))
		for _, idx := range comp {
			relaxed[idx] = true
			if !a.fixedRise[idx] {
				a.EarlyRise[idx] = PosInf
			}
			if !a.fixedFall[idx] {
				a.EarlyFall[idx] = PosInf
			}
		}
		if !ws.cyclic[ci] {
			a.relaxNodeEarly(int(comp[0]), ws.in(comp[0]))
		} else {
			bound := a.opt.SCCIterBound*len(comp) + 8
			for iter := 0; iter < bound; iter++ {
				changed := false
				for _, idx := range comp {
					if a.relaxNodeEarly(int(idx), ws.in(idx)) {
						changed = true
					}
				}
				if !changed {
					break
				}
			}
		}
		for _, idx := range comp {
			if a.EarlyRise[idx] != snapRise[idx] || a.EarlyFall[idx] != snapFall[idx] {
				for _, ei := range ws.out(idx) {
					if wc := ws.compOf[a.Model.Edges[ei].To]; wc != ci {
						dirty[wc].Store(true)
					}
				}
			}
		}
	})
	return int(nc.Load()), int(nn.Load())
}

// seedComps lifts a per-node dirty mask to per-component atomic flags.
func (a *analysis) seedComps(ws *waveSchedule, seed []bool) []atomic.Bool {
	dirty := a.arena.atomicBools(ws.numComps())
	for i, d := range seed {
		if d {
			dirty[ws.compOf[i]].Store(true)
		}
	}
	return dirty
}

// arcMoves maps the arc indices of the model a previous result was
// analyzed with onto a new model's. idx[i] is old arc i's new index, -1
// when the arc is gone; a nil idx is the identity — no arc moved, which
// is every resize and setcap. from names the plan the previous result
// ran on, so an analysis sharing the plan handle (a corner extending its
// own previous result) can tell the moves apply to it too.
type arcMoves struct {
	from uint64
	idx  []int32
}

// movesFrom returns the arc moves from prev's model to model: the
// plan's own when they were found against prev's plan, otherwise a fresh
// walk.
func (p *Plan) movesFrom(prev *Result, model *delay.Model) arcMoves {
	if p != nil && p.moves.from == prev.wave.id {
		return p.moves
	}
	return arcMoves{from: prev.wave.id, idx: moveArcs(prev.Model.Edges, model.Edges)}
}

// moveArcs maps old's arc indices onto cur's in one linear walk, nil
// when every arc keeps its index. Both arrays are in the merge's
// canonical order — (From, To, Invert), then stage order — and an arc's
// identity adds GateArc and the two masks, which the per-stage merge
// keys on, so identical arcs meet in the same small (From, To, Invert)
// group on both sides. Every arc's To belongs to the one stage that
// generated it, so an identity occurs at most once per model.
func moveArcs(old, cur []delay.Edge) []int32 {
	k := 0
	if len(old) == len(cur) {
		if len(old) == 0 || &old[0] == &cur[0] {
			return nil
		}
		for k < len(old) && delay.SameArc(&old[k], &cur[k]) {
			k++
		}
		if k == len(old) {
			return nil
		}
	}
	idx := make([]int32, len(old))
	for i := 0; i < k; i++ {
		idx[i] = int32(i)
	}
	i, j := k, k
	for i < len(old) {
		c := -1 // past cur's end, every remaining old arc is gone
		if j < len(cur) {
			c = cmpArcGroup(&old[i], &cur[j])
		}
		switch {
		case c < 0:
			idx[i] = -1
			i++
		case c > 0:
			j++
		default:
			end := j + 1
			for end < len(cur) && cmpArcGroup(&cur[end], &cur[j]) == 0 {
				end++
			}
			for ; i < len(old) && cmpArcGroup(&old[i], &cur[j]) == 0; i++ {
				idx[i] = -1
				for jj := j; jj < end; jj++ {
					if delay.SameArc(&old[i], &cur[jj]) {
						idx[i] = int32(jj)
						break
					}
				}
			}
			j = end
		}
	}
	return idx
}

// cmpArcGroup orders two arcs by the merge's sort key (From, To, Invert).
func cmpArcGroup(x, y *delay.Edge) int {
	switch {
	case x.From != y.From:
		return int(x.From) - int(y.From)
	case x.To != y.To:
		return int(x.To) - int(y.To)
	case x.Invert == y.Invert:
		return 0
	case x.Invert:
		return 1
	default:
		return -1
	}
}

// apply rewrites predecessor records, which index the previous model's
// arcs, to the new model's indices. A record whose arc is gone resets to
// "source"; its node is in the dirty seed and recomputes it anyway.
func (m arcMoves) apply(preds []pred) {
	if m.idx == nil {
		return
	}
	for i := range preds {
		if e := preds[i].edge; e >= 0 {
			if ne := m.idx[e]; ne >= 0 {
				preds[i].edge = ne
			} else {
				preds[i] = pred{edge: -1}
			}
		}
	}
}

// growCopy fills dst with src, padding the tail beyond len(src) with
// fillv.
func growCopy(dst, src []float64, fillv float64) {
	m := copy(dst, src)
	for i := m; i < len(dst); i++ {
		dst[i] = fillv
	}
}

func fillBool(n int, v bool) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = v
	}
	return s
}
