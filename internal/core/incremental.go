package core

import (
	"context"
	"slices"
	"sort"

	"nmostv/internal/clocks"
	"nmostv/internal/cow"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// DeltaStats reports how much of an incremental re-analysis was actually
// recomputed.
type DeltaStats struct {
	// Comps is the total component count of the propagation plan.
	Comps int
	// CompsRelaxed and NodesRelaxed count the components and nodes whose
	// arrivals were re-relaxed, each the larger of the settle pass's and
	// the early pass's count.
	CompsRelaxed, NodesRelaxed int
	// ReusedWave reports whether the previous propagation plan was kept
	// (arc endpoints unchanged).
	ReusedWave bool
	// Relaxed lists, in index order, the nodes re-relaxed in either
	// pass: every node whose arrivals can differ from the previous
	// result's. When the call ran with Options.Arena, the list is
	// arena-backed: consume it before the next analysis on that arena.
	Relaxed []int32
}

// AnalyzeIncremental extends a previous analysis after a netlist edit
// instead of starting over. dirtySeed lists (by node index, in any order)
// every node whose incoming timing arcs may have changed — for a delta
// this is the nodes of the stages the delay cache rebuilt; new nodes,
// changed source anchors, changed storage classifications, and
// components whose member list a rebuilt plan changed are detected here
// and added to the seed. Only the components of the propagation plan
// reachable from the seed through value changes are re-relaxed;
// everything else keeps the previous fixpoint, which is provably equal to
// what a from-scratch run would compute (untouched components have
// identical incoming arrivals, identical internal arcs, and the same
// member list). The returned Result is bit-identical to Analyze(nl,
// model, sched, opt) on the same state.
//
// When prev's backward pass has run, the result also keeps prev's
// Required and a list of seed nodes, so its own first Required call
// re-relaxes only the changed fanin cone (see Required).
//
// prev must come from Analyze or AnalyzeIncremental on an earlier state of
// the same netlist (nodes are append-only; model may be rebuilt). With a
// nil prev this is the from-scratch analysis Analyze runs: every
// component relaxes, with no seed and no wake. The context aborts the
// walk mid-pass; the caller's previous Result is never mutated, so an
// aborted incremental pass leaves the published analysis intact.
func AnalyzeIncremental(ctx context.Context, nl *netlist.Netlist, model *delay.Model, sched clocks.Schedule, opt Options, prev *Result, dirtySeed []int32) (*Result, DeltaStats, error) {
	if err := sched.Validate(); err != nil {
		return nil, DeltaStats{}, err
	}
	cases, err := resolveCases(nl, opt)
	if err != nil {
		return nil, DeltaStats{}, err
	}
	if prev != nil && prev.wave == nil {
		prev = nil
	}
	opt = opt.withDefaults()
	n := len(nl.Nodes)
	r := &Result{NL: nl, Model: model, Sched: sched}
	r.allocArrays(n, prev)
	a := &analysis{Result: r, opt: opt, ctx: orBackground(ctx)}
	a.arena = arenaFor(opt)
	a.initMetrics()
	spans := [...]string{"analyze", "propagate", "propagate-early"}
	if prev != nil {
		spans = [...]string{"analyze-incremental", "cone-re-relax", "cone-re-relax-early"}
	}
	defer opt.Obs.Span(spans[0]).End()

	// The plan reads only the node count and each arc's endpoints, so it
	// is kept whenever no arc moved. A shared per-corner plan comes with
	// the moves its base analysis found.
	sp := opt.Obs.Span("wave-plan")
	if prev != nil {
		r.moves = opt.Plan.movesFrom(prev, model)
	}
	switch {
	case opt.Plan.fits(n, model.Edges.Len()):
		r.wave = opt.Plan.ws
	case prev != nil && r.moves.idx == nil && n == len(prev.wave.compOf):
		r.wave = prev.wave
	default:
		r.wave = newWaveSchedule(n, model, a.arena)
	}
	r.moves.apply(&r.predRise)
	r.moves.apply(&r.predFall)
	sp.End()

	sp = opt.Obs.Span("sources+storage")
	r.src = a.sourcesFor(prev, cases)
	a.anchorSources()
	sp.End()

	settle := &pass{analysis: a, kind: settlePass, val: r.settleVals()}
	early := &pass{analysis: a, kind: earlyPass, val: r.earlyVals()}
	var base []int32
	if prev != nil {
		base = a.structuralSeed(prev, dirtySeed)
		settle.prev, early.prev = prev.settleVals(), prev.earlyVals()
	}
	sp = opt.Obs.Span(spans[1])
	if prev != nil {
		settle.seed(base, prev)
	}
	settle.walk()
	sp.End()
	// Loop findings: keep the previous ones in components that were not
	// re-relaxed (their verdict cannot have changed), then put the report
	// in node-index order whatever the discovery order was.
	if prev != nil {
		for _, nd := range prev.loopNodes {
			if !settle.work.has(r.wave.compOf[nd.Index]) {
				r.loopNodes = append(r.loopNodes, nd)
			}
		}
	}
	sort.Slice(r.loopNodes, func(i, j int) bool {
		return r.loopNodes[i].Index < r.loopNodes[j].Index
	})

	sp = opt.Obs.Span(spans[2])
	a.anchorEarly()
	if prev != nil {
		early.seed(base, prev)
	}
	early.walk()
	sp.End()
	if err := a.abortErr(); err != nil {
		return nil, DeltaStats{}, err
	}
	stats := a.coneStats(settle.work, early.work)
	stats.ReusedWave = prev != nil && r.wave == prev.wave

	if prev != nil {
		if q := prev.memo(); q != nil {
			// Only the required times, the pass's identity and the slack
			// ranking its reads have built: q also holds prev's
			// arrivals, which the pass never reads.
			r.reqPrev = &Required{RiseRAT: q.RiseRAT, FallRAT: q.FallRAT, id: q.id}
			r.reqPrev.ranked.keep(&q.ranked)
			r.reqSeeds = a.requiredSeeds(prev, base, settle.work)
		}
	}
	// Checks name arcs by index and read the schedule, so they are kept
	// from prev only over the previous plan under the same schedule. A
	// node's checks read its in-arcs, its storage class, its output
	// flag, its loop verdict and its in-arcs' causes' settle and early
	// arrivals. A node whose in-arcs, storage class or flags changed is
	// in the seed, a loop verdict changes only in a relaxed component,
	// and a cause whose arrival moved woke the component of every To
	// node of its out-arcs. So the relaxed nodes are every node whose
	// checks can differ from prev's.
	sp = opt.Obs.Span("checks")
	r.listed = prev == nil
	if stats.ReusedWave && sched == prev.Sched {
		a.runChecks(prev, stats.Relaxed)
	} else {
		a.runChecks(nil, nil)
	}
	sp.End()
	return r, stats, nil
}

// structuralSeed lists, in index order, the nodes to re-relax whatever
// their inputs' values: the caller's dirty nodes, nodes prev lacks,
// components a rebuilt plan reordered or split, and — only when the
// storage classification was derived again — nodes whose class flipped
// (their incoming-arc filter changed).
func (a *analysis) structuralSeed(prev *Result, dirty []int32) []int32 {
	seed := slices.Clone(dirty)
	for i := prev.RiseAt.Len(); i < a.RiseAt.Len(); i++ {
		seed = append(seed, int32(i))
	}
	if was := prev.src.storage; a.src != prev.src {
		for i, s := range a.src.storage[:len(was)] {
			if s != was[i] {
				seed = append(seed, int32(i))
			}
		}
	}
	if a.wave != prev.wave {
		seed = appendChangedComps(a.wave, prev.wave, seed)
	}
	slices.Sort(seed)
	return slices.Compact(seed)
}

// seed queues the components the pass must relax: those holding a node
// of the structural seed and, when the sources were derived again, an
// anchored node whose values moved from the previous fixpoint's. Before
// the walk only an anchor can have moved: every other value is prev's.
func (p *pass) seed(base []int32, prev *Result) {
	p.work = p.arena.worklist(p.wave)
	for _, v := range base {
		p.work.add(p.wave.compOf[v])
	}
	if p.src == prev.src {
		return
	}
	for _, an := range p.src.anchors {
		if movedAt(p.val, p.prev, int(an.node)) {
			p.work.add(p.wave.compOf[an.node])
		}
	}
}

// coneStats counts what the two forward passes relaxed — the components
// their worklists queued, or every component from scratch — and lists the
// nodes relaxed in either.
func (a *analysis) coneStats(settle, early *worklist) DeltaStats {
	ws := a.wave
	st := DeltaStats{Comps: ws.numComps()}
	if settle == nil {
		st.CompsRelaxed, st.NodesRelaxed = st.Comps, len(ws.compOf)
		st.Relaxed = a.arena.int32s(len(ws.compOf))
		for i := range st.Relaxed {
			st.Relaxed[i] = int32(i)
		}
		return st
	}
	sc, sn := settle.size(ws)
	ec, en := early.size(ws)
	st.CompsRelaxed, st.NodesRelaxed = max(sc, ec), max(sn, en)
	rel := a.arena.int32s(sn + en)[:0]
	for _, w := range [...]*worklist{settle, early} {
		for _, b := range w.bucket {
			for _, ci := range b {
				if w == early && settle.has(ci) {
					continue
				}
				rel = append(rel, ws.comp(ci)...)
			}
		}
	}
	slices.Sort(rel)
	st.Relaxed = rel
	return st
}

// size counts the components the worklist queued and their nodes.
func (w *worklist) size(ws *waveSchedule) (comps, nodes int) {
	for _, b := range w.bucket {
		comps += len(b)
		for _, ci := range b {
			nodes += len(ws.comp(ci))
		}
	}
	return comps, nodes
}

// appendChangedComps appends, for a plan rebuilt from old, the first node
// of every component whose node sequence differs from old's component of
// that node. Keeping a component's previous values is only sound when it
// relaxes over the same member list: a component that does not converge
// stops after SCCIterBound·|comp|+8 rounds, and the Gauss–Seidel order —
// hence its values, and which of two equal arcs a node records — follows
// the list. Each new component is compared once, so the pass is O(n).
// Components holding a new node are seeded already.
func appendChangedComps(ws, old *waveSchedule, seed []int32) []int32 {
	for ci := 0; ci < ws.numComps(); ci++ {
		comp := ws.comp(int32(ci))
		v := comp[0]
		if int(v) < len(old.compOf) && !slices.Equal(comp, old.comp(old.compOf[v])) {
			seed = append(seed, v)
		}
	}
	return seed
}

// requiredSeeds lists, in index order, the nodes whose required times
// may differ from prev's even where every successor's required time is
// unchanged: the structural seed, the From nodes of the seed nodes' old
// and new in-arcs (the arcs that may have changed, appeared or vanished,
// and the arcs a flipped storage filter reclassified), and every node
// whose settle arrival the walk moved (arrivals decide which arcs
// transmit, and the slack). The list is as long as the cone, not the
// design.
func (a *analysis) requiredSeeds(prev *Result, base []int32, settle *worklist) []int32 {
	var seeds []int32
	for _, v := range base {
		seeds = append(seeds, v)
		for _, ei := range a.wave.in(v) {
			seeds = append(seeds, a.Model.Arc(ei).From)
		}
		if int(v) < len(prev.wave.compOf) {
			for _, ei := range prev.wave.in(v) {
				seeds = append(seeds, prev.Model.Arc(ei).From)
			}
		}
	}
	now, was := a.settleVals(), prev.settleVals()
	for _, b := range settle.bucket {
		for _, ci := range b {
			for _, v := range a.wave.comp(ci) {
				if movedAt(now, was, int(v)) {
					seeds = append(seeds, v)
				}
			}
		}
	}
	slices.Sort(seeds)
	return slices.Compact(seeds)
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
// plan's own when they were found against prev's plan, none when the two
// models share an arc layout, otherwise a fresh walk.
func (p *Plan) movesFrom(prev *Result, model *delay.Model) arcMoves {
	if p != nil && p.moves.from == prev.wave.id {
		return p.moves
	}
	if model.Layout != 0 && model.Layout == prev.Model.Layout {
		return arcMoves{from: prev.wave.id}
	}
	return arcMoves{from: prev.wave.id, idx: moveArcs(&prev.Model.Edges, &model.Edges)}
}

// moveArcs maps old's arc indices onto cur's in one linear walk, nil
// when every arc keeps its index. Both arrays are in the merge's
// canonical order — (From, To, Invert), then stage order — and an arc's
// identity adds GateArc and the two masks, which the per-stage merge
// keys on, so identical arcs meet in the same small (From, To, Invert)
// group on both sides. Every arc's To belongs to the one stage that
// generated it, so an identity occurs at most once per model.
func moveArcs(old, cur *cow.Array[delay.Edge]) []int32 {
	k := 0
	no, nc := old.Len(), cur.Len()
	if no == nc {
		if old.SharedChunks(cur) == old.NumChunks() {
			return nil
		}
		for k < no && delay.SameArc(old.Ref(k), cur.Ref(k)) {
			k++
		}
		if k == no {
			return nil
		}
	}
	idx := make([]int32, no)
	for i := 0; i < k; i++ {
		idx[i] = int32(i)
	}
	i, j := k, k
	for i < no {
		c := -1 // past cur's end, every remaining old arc is gone
		if j < nc {
			c = cmpArcGroup(old.Ref(i), cur.Ref(j))
		}
		switch {
		case c < 0:
			idx[i] = -1
			i++
		case c > 0:
			j++
		default:
			end := j + 1
			for end < nc && cmpArcGroup(cur.Ref(end), cur.Ref(j)) == 0 {
				end++
			}
			for ; i < no && cmpArcGroup(old.Ref(i), cur.Ref(j)) == 0; i++ {
				idx[i] = -1
				for jj := j; jj < end; jj++ {
					if delay.SameArc(old.Ref(i), cur.Ref(jj)) {
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
// "source"; its node is in the dirty seed and recomputes it anyway. Only
// the records whose arc moved are written.
func (m arcMoves) apply(preds *cow.Array[pred]) {
	if m.idx == nil {
		return
	}
	for c := range preds.NumChunks() {
		for k, p := range preds.Chunk(c) {
			if p.edge < 0 || m.idx[p.edge] == p.edge {
				continue
			}
			if ne := m.idx[p.edge]; ne >= 0 {
				p.edge = ne
			} else {
				p = pred{edge: -1}
			}
			preds.Set(c<<cow.Shift+k, p)
		}
	}
}
