// Package paths is the timing-debug query layer: a lazy top-K worst-path
// generator over a completed analysis, "why is node X late" explanation
// traces, and diffs between two published results.
//
// The generator enumerates complete launch-to-capture paths in exact
// worst-first (smallest-slack-first) order without materializing more
// than it has emitted. It runs a best-first backward search over the
// plan's reverse CSR adjacency, seeded at the same endpoints the engine
// checks (every clock-masked capturing arc per polarity, plus output
// nodes against the period). Each partial state carries a composed
// suffix summary: four numbers (a, b, lo, hi) such that a path arriving
// at the state's frontier transition at time t yields endpoint arrival
//
//	max(t + a, b)   valid for t in (lo, hi], infeasible otherwise,
//
// which is exactly the closure of the engine's per-arc transfer
// max(t, clamp) + d under composition (the clamp term folds into b, the
// window deadline folds into hi). The priority of a state is an
// admissible lower bound on the slack of any completion — obtained by
// capping t at min(AT(frontier), hi), where AT is the engine's fixpoint
// arrival — so the first completed path popped is the true worst path,
// the second the true second-worst, and so on (A*). Completed paths
// with equal slack are buffered until no cheaper state remains, then
// emitted in a documented total order (see pathLess), which is what
// makes the stream bit-reproducible and oracle-checkable.
//
// Engine semantics are mirrored exactly, via the accessors core exports
// for this purpose: storage nodes are entered only through clock-gated
// arcs, interior arcs never wrap past their window, the φ1 cross-cycle
// capture is modeled by seeding each φ1-storage capturing arc twice
// (same-cycle and wrapped regimes with disjoint feasibility windows),
// nodes flagged non-convergent are excluded, and paths are simple in
// the transition graph — checked only within one SCC, because arcs
// between components strictly advance the condensation order.
package paths

import (
	"container/heap"
	"math"
	"slices"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// Kind classifies a path endpoint.
type Kind uint8

const (
	// KindLatch is an arrival through a clock-masked capturing arc,
	// checked against the governing phase's fall.
	KindLatch Kind = iota
	// KindOutput is an output node's settle checked against the period.
	KindOutput
	// KindSettle is the fallback for designs with no latch or output
	// endpoints: any settling node checked against the period.
	KindSettle
)

func (k Kind) String() string {
	switch k {
	case KindLatch:
		return "latch-settle"
	case KindOutput:
		return "output-settle"
	case KindSettle:
		return "settle"
	}
	return "kind?"
}

// Step is one hop of a path, source first.
type Step struct {
	// Node and Pol identify the transition this hop produces.
	Node int32
	Pol  core.Polarity
	// Arc is the model edge that produced the transition; -1 at the
	// path source (input, clock edge, or precharge seed).
	Arc int32
	// Delay is the arc's delay for this polarity (ns); 0 at the source.
	Delay float64
	// Launch is when the hop's cause takes effect: the previous hop's
	// arrival, clamped forward to the arc's clock-window opening when
	// Clamped is set.
	Launch float64
	// Arrival = Launch + Delay along this specific path.
	Arrival float64
	// Clamped reports the launch waited for a clock edge.
	Clamped bool
}

// Path is one ranked worst path.
type Path struct {
	// Rank is the 1-based position in the generator's worst-first order.
	Rank int
	// Kind, Node, Pol, Phase identify the endpoint check; Wrapped marks
	// the φ1 cross-cycle capture regime.
	Kind    Kind
	Node    int32
	Pol     core.Polarity
	Phase   int
	Wrapped bool
	// Arrival is the path's arrival at the endpoint, Required its
	// deadline (phase fall, or the period), Slack their difference.
	Arrival  float64
	Required float64
	Slack    float64
	// Steps is the full hop sequence, source first; the last step's
	// arrival equals Arrival.
	Steps []Step
}

// suffix is the composed summary of the path segment from a frontier
// transition to the endpoint: endpoint arrival = max(t + a, b) for a
// frontier arrival t in (lo, hi].
type suffix struct {
	a, b, lo, hi float64
}

// endpoint is one seeded check target.
type endpoint struct {
	kind     Kind
	node     int32
	pol      core.Polarity
	phase    int
	wrapped  bool
	deadline float64
	edge     int32 // final capturing arc; -1 for output/settle endpoints
}

// state is a partial (or completed) backward path: the frontier
// transition, the suffix summary to the endpoint, and the chain of arcs
// taken (via parent links, shared between sibling deviations).
type state struct {
	node int32
	pol  core.Polarity
	suf  suffix
	// prio is endpoint.deadline minus an upper bound on the endpoint
	// arrival over all completions — an admissible lower bound on
	// slack, exact once complete.
	prio float64
	seq  int64 // heap insertion order, determinism-only tiebreak
	end  *endpoint
	// arc leads forward from this frontier to the parent's frontier
	// (or, for seed states, to the endpoint); -1 when the frontier is
	// itself the endpoint (output/settle seeds).
	arc    int32
	parent *state
	// complete marks a frontier that is a fixed source with arrival t0.
	complete bool
	t0       float64
	// arcs is the forward arc sequence, filled on completion for the
	// total-order tiebreak.
	arcs []int32
}

// Generator lazily enumerates worst paths. It reads only immutable
// state — the Result's arrays and the snapshotted model — so it may be
// driven lock-free long after the session that published the Result has
// moved on.
type Generator struct {
	res        *core.Result
	model      *delay.Model
	sched      clocks.Schedule
	loop       []bool
	h          stateHeap
	group      []*state // completed, awaiting flush
	groupSlack float64
	emit       []*state
	emitIdx    int
	rank       int
	seq        int64
	// states and ends hold every state and endpoint the search creates.
	states slab[state]
	ends   slab[endpoint]
}

// slab places values in fixed-capacity chunks of slabChunk. As in the
// netlist's node and device slabs, a chunk never grows, so pointers into
// it stay stable, and a full chunk is replaced by a fresh one: seeding
// tens of thousands of endpoints costs a few dozen allocations instead
// of two per seed.
type slab[T any] []T

const slabChunk = 1024

// put places v in the current chunk and returns its address.
func (s *slab[T]) put(v T) *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, slabChunk)
	}
	*s = append(*s, v)
	return &(*s)[len(*s)-1]
}

// New builds a generator over res. Construction is O(arcs) — it seeds
// one or two states per feasible capturing arc and per output, then
// orders them into a heap in one linear pass — and performs no path
// search; all search work happens in Next. The heap's (prio, seq) order
// is total, so heapifying the seeds at once pops exactly what pushing
// them one by one would.
func New(res *core.Result) *Generator {
	g := &Generator{res: res, model: res.Model, sched: res.Sched}
	g.loop = make([]bool, res.RiseAt.Len())
	for _, n := range res.LoopNodes() {
		g.loop[n.Index] = true
	}
	if g.seedLatches()+g.seedOutputs() == 0 {
		// No constrained endpoints anywhere (combinational fragment):
		// mirror the engine's reporting fallback and rank every
		// settling node against the period.
		g.seedSettles()
	}
	heap.Init(&g.h)
	return g
}

// seed admits a seed state; New heapifies the seeds once they are all in.
func (g *Generator) seed(end *endpoint, arc, node int32, pol core.Polarity, suf suffix) {
	if st := g.newState(end, nil, arc, node, pol, suf); st != nil {
		g.h = append(g.h, st)
	}
}

func (g *Generator) arrival(v int32, pol core.Polarity) float64 {
	if pol == core.Rise {
		return g.res.RiseAt.At(int(v))
	}
	return g.res.FallAt.At(int(v))
}

func (g *Generator) seedLatches() (candidates int) {
	for i := range g.model.Edges.Len() {
		e := g.model.Edges.Ref(i)
		for _, pol := range []core.Polarity{core.Rise, core.Fall} {
			d, mask := g.model.Delay(e, pol == core.Fall)
			if mask == 0 || math.IsInf(d, 1) {
				continue
			}
			clamp, dl, _, alive := core.MaskWindow(g.sched, mask)
			if !alive {
				continue
			}
			candidates++
			phase := 1
			if mask == delay.MaskPhi2 {
				phase = 2
			}
			fromPol := core.CausePol(e, pol)
			ep := g.ends.put(endpoint{kind: KindLatch, node: e.To, pol: pol, phase: phase,
				deadline: dl, edge: int32(i)})
			g.seed(ep, int32(i), e.From, fromPol,
				suffix{a: d, b: clamp + d, lo: math.Inf(-1), hi: dl})
			if phase == 1 && g.res.ClockedStorage(e.To) {
				// φ1 storage captures across the cycle boundary: a cause
				// past this cycle's fall waits for the next φ1 window.
				// Disjoint feasibility (lo = dl) keeps the two regimes
				// from double-counting any path.
				cw, dlw := clamp+g.sched.Period, dl+g.sched.Period
				epw := g.ends.put(endpoint{kind: KindLatch, node: e.To, pol: pol, phase: phase,
					wrapped: true, deadline: dlw, edge: int32(i)})
				g.seed(epw, int32(i), e.From, fromPol,
					suffix{a: d, b: cw + d, lo: dl, hi: dlw})
			}
		}
	}
	return candidates
}

func (g *Generator) seedOutputs() (candidates int) {
	for v := range g.res.RiseAt.Len() {
		if !g.model.NodeFlags[v].Has(netlist.FlagOutput) {
			continue
		}
		candidates += g.seedTerminal(int32(v), KindOutput)
	}
	return candidates
}

func (g *Generator) seedSettles() {
	for v := range g.res.RiseAt.Len() {
		f := g.model.NodeFlags[v]
		if f.Has(netlist.FlagSupply) || f.Has(netlist.FlagClock) {
			continue
		}
		g.seedTerminal(int32(v), KindSettle)
	}
}

func (g *Generator) seedTerminal(v int32, kind Kind) (candidates int) {
	for _, pol := range []core.Polarity{core.Rise, core.Fall} {
		if math.IsInf(g.arrival(v, pol), -1) {
			continue
		}
		candidates++
		ep := g.ends.put(endpoint{kind: kind, node: v, pol: pol, deadline: g.sched.Period, edge: -1})
		g.seed(ep, -1, v, pol,
			suffix{a: 0, b: math.Inf(-1), lo: math.Inf(-1), hi: math.Inf(1)})
	}
	return candidates
}

// fpGuard absorbs the floating-point divergence between the engine's
// forward arrival sums and this package's backward suffix sums. The two
// accumulate the same delays in opposite association orders, so for the
// same path they can disagree by ~(path length)·ulp — around 1e-13
// relative at worst for any plausible depth. Partial-state bounds mix
// the two (they cap the frontier arrival at the forward fixpoint), so
// they are widened by this margin to stay admissible; completed paths
// are valued purely in backward arithmetic and stay exact, which keeps
// the emitted order bit-reproducible.
const fpGuard = 1e-12

// widen nudges a bound toward +Inf by the guard margin.
func widen(x float64) float64 { return x + fpGuard*math.Max(1, math.Abs(x)) }

// newState admits a new frontier if it can still carry a feasible path:
// the frontier transition happens, is not loop-tainted, and its window
// (lo, hi] is reachable; it returns nil otherwise. Fixed sources
// complete immediately with an exact slack; everything else gets an
// admissible bound from capping the frontier arrival at the engine
// fixpoint. The state is placed in the state slab and numbered in
// admission order; the caller puts it on the heap.
func (g *Generator) newState(end *endpoint, parent *state, arc int32, node int32, pol core.Polarity, suf suffix) *state {
	if g.loop[node] {
		return nil
	}
	at := g.arrival(node, pol)
	if math.IsInf(at, -1) {
		return nil
	}
	st := state{node: node, pol: pol, suf: suf, end: end, arc: arc, parent: parent}
	if pe, _ := g.res.DominantPred(int(node), pol); pe < 0 {
		// Fixed source: arrival is exactly at, not an upper bound, and
		// both the feasibility test and the slack are exact backward
		// arithmetic — no widening.
		if !(at > suf.lo && at <= suf.hi) {
			return nil
		}
		st.complete, st.t0 = true, at
		st.prio = end.deadline - math.Max(at+suf.a, suf.b)
	} else {
		if widen(at) <= suf.lo {
			return nil // every path into the frontier is below the window floor
		}
		st.prio = end.deadline - widen(math.Max(math.Min(at, suf.hi)+suf.a, suf.b))
	}
	g.seq++
	st.seq = g.seq
	return g.states.put(st)
}

// composeArc extends a suffix backward across one arc: transfer
// t_to = max(t_from + d, clamp + d) for t_from <= dl (unconstrained
// arcs have no clamp/deadline). ok=false when no t_from survives.
// The exact FP grouping here (a += d first, then clamp + a) is part of
// the path-value definition; the oracle replays it verbatim.
func composeArc(suf suffix, d, clamp, dl float64, constrained bool) (suffix, bool) {
	out := suffix{a: suf.a + d}
	if constrained {
		if clamp > suf.hi {
			return out, false // even a clamped launch overshoots the window
		}
		out.b = math.Max(suf.b, clamp+out.a)
		out.hi = math.Min(dl, suf.hi-d)
		if clamp > suf.lo {
			out.lo = math.Inf(-1) // the clamp alone clears the floor
		} else {
			out.lo = suf.lo - d
		}
	} else {
		out.b = suf.b
		out.hi = suf.hi - d
		out.lo = suf.lo - d
	}
	return out, true
}

func (g *Generator) expand(st *state) {
	storage := g.res.ClockedStorage(st.node)
	for _, ei := range g.res.ArcsInto(st.node) {
		e := g.model.Arc(ei)
		if storage && !g.model.IsClock(e.From) {
			continue // storage launches from its clock edge only
		}
		d, mask := g.model.Delay(e, st.pol == core.Fall)
		if math.IsInf(d, 1) {
			continue
		}
		clamp, dl, constrained, alive := core.MaskWindow(g.sched, mask)
		if !alive {
			continue
		}
		fromPol := core.CausePol(e, st.pol)
		if g.onSuffix(st, e.From, fromPol) {
			continue // keep paths simple in the transition graph
		}
		suf, ok := composeArc(st.suf, d, clamp, dl, constrained)
		if !ok {
			continue
		}
		if next := g.newState(st.end, st, ei, e.From, fromPol, suf); next != nil {
			heap.Push(&g.h, next)
		}
	}
}

// onSuffix reports whether transition (y, pol) already lies on st's
// chain. Only the chain prefix inside y's SCC can contain it: arcs
// between components strictly advance the condensation order, so a
// transition can never reappear once the chain has left its component.
func (g *Generator) onSuffix(st *state, y int32, pol core.Polarity) bool {
	if !g.res.SameComp(st.node, y) {
		return false
	}
	for cur := st; cur != nil && g.res.SameComp(cur.node, y); cur = cur.parent {
		if cur.node == y && cur.pol == pol {
			return true
		}
	}
	return false
}

// forwardArcs materializes the completed chain's arc sequence, source
// first, for the total-order tiebreak.
func forwardArcs(st *state) []int32 {
	n := 0
	for cur := st; cur != nil; cur = cur.parent {
		n++
	}
	arcs := make([]int32, 0, n)
	for cur := st; cur != nil; cur = cur.parent {
		arcs = append(arcs, cur.arc)
	}
	return arcs
}

// pathLess is the emitted total order: slack ascending, then endpoint
// node index, polarity, kind, capture regime, final capturing arc, and
// finally the forward arc sequence lexicographically. Every tie between
// distinct paths is broken by the arc sequence, so the order is strict
// and the stream deterministic.
func pathLess(x, y *state) int {
	switch {
	case x.prio != y.prio:
		if x.prio < y.prio {
			return -1
		}
		return 1
	case x.end.node != y.end.node:
		return int(x.end.node) - int(y.end.node)
	case x.end.pol != y.end.pol:
		return int(x.end.pol) - int(y.end.pol)
	case x.end.kind != y.end.kind:
		return int(x.end.kind) - int(y.end.kind)
	case x.end.wrapped != y.end.wrapped:
		if !x.end.wrapped {
			return -1
		}
		return 1
	case x.end.edge != y.end.edge:
		return int(x.end.edge) - int(y.end.edge)
	}
	return slices.Compare(x.arcs, y.arcs)
}

// Next returns the next path in worst-first order; ok=false when the
// design has no further feasible paths. Each call does a bounded amount
// of search (pops until the next path's rank is settled), so k=10000
// costs no more memory than the search frontier it actually explored.
func (g *Generator) Next() (Path, bool) {
	for {
		if g.emitIdx < len(g.emit) {
			st := g.emit[g.emitIdx]
			g.emitIdx++
			g.rank++
			return g.build(st), true
		}
		if len(g.group) > 0 && (g.h.Len() == 0 || g.h.min().prio > g.groupSlack) {
			// No remaining state can complete at or below the buffered
			// slack: the group's ranks are settled.
			slices.SortFunc(g.group, pathLess)
			g.emit, g.emitIdx = g.group, 0
			g.group = nil
			continue
		}
		if g.h.Len() == 0 {
			return Path{}, false
		}
		st := heap.Pop(&g.h).(*state)
		if st.complete {
			st.arcs = forwardArcs(st)
			if len(g.group) == 0 || st.prio > g.groupSlack {
				g.groupSlack = st.prio
			}
			g.group = append(g.group, st)
			continue
		}
		g.expand(st)
	}
}

// build replays the completed chain forward, reproducing the engine's
// exact launch/clamp arithmetic per hop.
func (g *Generator) build(st *state) Path {
	var chain []*state
	for cur := st; cur != nil; cur = cur.parent {
		chain = append(chain, cur)
	}
	end := st.end
	steps := make([]Step, 0, len(chain)+1)
	t := st.t0
	steps = append(steps, Step{Node: st.node, Pol: st.pol, Arc: -1, Launch: t, Arrival: t})
	for i, cur := range chain {
		if cur.arc < 0 {
			break // the frontier is itself the endpoint
		}
		to, toPol := end.node, end.pol
		if i+1 < len(chain) {
			to, toPol = chain[i+1].node, chain[i+1].pol
		}
		e := g.model.Arc(cur.arc)
		d, mask := g.model.Delay(e, toPol == core.Fall)
		clamp, _, constrained, _ := core.MaskWindow(g.sched, mask)
		if i+1 == len(chain) && end.wrapped {
			clamp += g.sched.Period
		}
		launch, clamped := t, false
		if constrained && launch < clamp {
			launch, clamped = clamp, true
		}
		t = launch + d
		steps = append(steps, Step{Node: to, Pol: toPol, Arc: cur.arc,
			Delay: d, Launch: launch, Arrival: t, Clamped: clamped})
	}
	return Path{
		Rank: g.rank, Kind: end.kind, Node: end.node, Pol: end.pol,
		Phase: end.phase, Wrapped: end.wrapped,
		Arrival: t, Required: end.deadline, Slack: end.deadline - t,
		Steps: steps,
	}
}

// stateHeap is a binary min-heap on (prio, seq).
type stateHeap []*state

func (h stateHeap) Len() int { return len(h) }
func (h stateHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h stateHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x any)   { *h = append(*h, x.(*state)) }
func (h *stateHeap) Pop() any {
	old := *h
	n := len(old)
	st := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return st
}
func (h stateHeap) min() *state { return h[0] }
