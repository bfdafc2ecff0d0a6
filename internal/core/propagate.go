package core

import (
	"sync"
	"sync/atomic"

	"nmostv/internal/delay"
)

// waveSchedule is the propagation plan shared by the settle and
// earliest-arrival passes: flat adjacency lists, the SCC condensation,
// and a level assignment over the condensation DAG. Any arc between two
// components forces them into different levels, so the components of one
// level share no arcs at all — relaxing them in any order, or
// concurrently, cannot change the fixpoint. That is the wavefront: levels
// run in sequence, components within a level run in parallel.
type waveSchedule struct {
	// id names the plan for arcMoves.from; ids are never reused, so no
	// reference to a previous plan has to outlive it.
	id uint64
	// CSR adjacency: node v's out-arcs are outEdge[outStart[v]:
	// outStart[v+1]] (edge indices, ascending), likewise in. Flat
	// offset+payload arrays instead of a slice-header per node: no
	// pointers for the collector to trace through a million-node plan.
	outStart, outEdge []int32
	inStart, inEdge   []int32
	// CSR component membership: SCC ci's nodes are
	// compNodes[compStart[ci]:compStart[ci+1]], components in reverse
	// topological (tarjan emission) order.
	compStart, compNodes []int32
	compOf               []int32   // node -> component id
	cyclic               []bool    // per comp: >1 node or a self arc — needs iteration
	level                []int32   // comp -> level
	levels               [][]int32 // level -> comp ids; level 0 holds the sources

	// free keeps the worklists backward passes over this plan returned
	// (takeWorklist), so an incremental Required allocates none.
	freeMu sync.Mutex
	free   []*worklist
}

func (ws *waveSchedule) out(v int32) []int32 {
	return ws.outEdge[ws.outStart[v]:ws.outStart[v+1]]
}

func (ws *waveSchedule) in(v int32) []int32 {
	return ws.inEdge[ws.inStart[v]:ws.inStart[v+1]]
}

func (ws *waveSchedule) comp(ci int32) []int32 {
	return ws.compNodes[ws.compStart[ci]:ws.compStart[ci+1]]
}

func (ws *waveSchedule) numComps() int { return len(ws.compStart) - 1 }

// buildAdjacency fills the plan's CSR adjacency with a counting sort:
// count per node, prefix-sum into offsets, scatter edge indices with the
// offsets as moving cursors, shift back. The arrays escape with the plan
// (retained across incremental calls), so they are heap, not arena.
func buildAdjacency(n int, m *delay.Model, ws *waveSchedule) {
	outStart := make([]int32, n+1)
	inStart := make([]int32, n+1)
	for i := range m.Edges.Len() {
		e := m.Edges.Ref(i)
		outStart[e.From+1]++
		inStart[e.To+1]++
	}
	for i := 0; i < n; i++ {
		outStart[i+1] += outStart[i]
		inStart[i+1] += inStart[i]
	}
	outEdge := make([]int32, m.Edges.Len())
	inEdge := make([]int32, m.Edges.Len())
	for i := range m.Edges.Len() {
		e := m.Edges.Ref(i)
		outEdge[outStart[e.From]] = int32(i)
		outStart[e.From]++
		inEdge[inStart[e.To]] = int32(i)
		inStart[e.To]++
	}
	for i := n; i > 0; i-- {
		outStart[i] = outStart[i-1]
		inStart[i] = inStart[i-1]
	}
	outStart[0], inStart[0] = 0, 0
	ws.outStart, ws.outEdge = outStart, outEdge
	ws.inStart, ws.inEdge = inStart, inEdge
}

// planIDs numbers the plans newWaveSchedule builds.
var planIDs atomic.Uint64

// newWaveSchedule computes the shared propagation plan for a model. The
// plan itself escapes (it is retained across incremental calls); ar backs
// only construction scratch (degree counts, Tarjan state).
func newWaveSchedule(n int, m *delay.Model, ar *Arena) *waveSchedule {
	ws := &waveSchedule{id: planIDs.Add(1)}
	buildAdjacency(n, m, ws)
	tarjan(n, ws, m, ar)
	nc := ws.numComps()
	compOf := make([]int32, n)
	for ci := 0; ci < nc; ci++ {
		for _, v := range ws.comp(int32(ci)) {
			compOf[v] = int32(ci)
		}
	}
	ws.compOf = compOf
	// tarjan emits components sinks-first; walking them in reverse is
	// topological order, so pushing levels forward along cross-component
	// arcs visits every predecessor before its successors (longest-path
	// levelization).
	ws.cyclic = make([]bool, nc)
	level := make([]int32, nc)
	var maxLevel int32
	for i := nc - 1; i >= 0; i-- {
		comp := ws.comp(int32(i))
		ws.cyclic[i] = len(comp) > 1 || hasSelfArc(m, ws, comp[0])
		for _, v := range comp {
			for _, ei := range ws.out(v) {
				wc := compOf[m.Arc(ei).To]
				if int(wc) != i && level[i]+1 > level[wc] {
					level[wc] = level[i] + 1
					if level[wc] > maxLevel {
						maxLevel = level[wc]
					}
				}
			}
		}
	}
	ws.level = level
	ws.levels = make([][]int32, maxLevel+1)
	for i := nc - 1; i >= 0; i-- {
		ws.levels[level[i]] = append(ws.levels[level[i]], int32(i))
	}
	return ws
}

// Plan is an opaque shareable handle to a propagation plan (adjacency,
// SCC condensation, levelization). The plan depends only on a model's
// arc endpoints and node count, so analyses of a base model's corner
// views (delay.Model.At: the same arcs read at a scale) can share one
// plan instead of recomputing it per corner: pass it via Options.Plan.
// The handle also carries how the arcs moved since the analysis that
// produced it extended its previous result, so a corner extending its
// own previous result remaps its predecessor records without a second
// walk, and that analysis's sources and storage classification, which a
// corner's model (same arcs, same node snapshot) shares. The plan is
// read-only during propagation and safe for concurrent analyses.
type Plan struct {
	ws    *waveSchedule
	moves arcMoves
	src   *sourceSet
}

// fits reports whether the plan matches a model with n nodes and m arcs;
// deeper structural identity (same endpoints per arc index) is the
// caller's contract — a corner view shares its base's arcs.
func (p *Plan) fits(n, m int) bool {
	return p != nil && p.ws != nil && len(p.ws.compOf) == n && len(p.ws.outEdge) == m
}

// Plan returns the completed analysis's propagation plan for reuse by
// analyses of structurally identical models (per-corner scaled models).
func (r *Result) Plan() *Plan {
	if r.wave == nil {
		return nil
	}
	return &Plan{ws: r.wave, moves: r.moves, src: r.src}
}

// bothPols is the polarity pair the relaxation loops range over — an
// array, not a slice literal, so the per-node hot path stays
// allocation-free (see TestWavefrontDisabledObsZeroAlloc).
var bothPols = [2]Polarity{Rise, Fall}

// relaxNode recomputes both polarities of one node from its incoming arcs.
// Storage nodes (latch outputs) relax only from clock-driven arcs: their
// value launches when the latch opens; late data arcs are setup checks,
// not propagation — this is what cuts every legal sequential cycle.
// Returns true if either arrival increased.
//
// fresh computes each polarity from NegInf, as a singleton component's
// one relaxation does, instead of improving the stored value, as a
// cyclic component's rounds do, and stores it only where it or its
// predecessor moved: an incremental pass then copies only the chunks
// holding a node whose values changed (see walk.go).
func (a *analysis) relaxNode(v int32, fresh bool) bool {
	idx := int(v)
	storage := a.src.storage[idx]
	changed := false
	for _, pol := range bothPols {
		if a.isFixed(idx, pol) {
			continue
		}
		cur := a.arrival(idx, pol)
		best := cur
		if fresh {
			best = NegInf
		}
		bestPred := pred{edge: -1}
		havePred := false
		for _, ei := range a.wave.in(v) {
			if storage && !a.Model.IsClock(a.Model.Arc(ei).From) {
				continue
			}
			t, fromPol, ok := a.relaxEdge(ei, pol)
			if ok && t > best {
				best = t
				bestPred = pred{edge: ei, fromPol: fromPol}
				havePred = true
			}
		}
		if fresh && (!sameBits(best, cur) || bestPred != a.predOf(idx, pol)) || !fresh && havePred {
			a.setArrival(idx, pol, best, bestPred)
			changed = true
		}
	}
	return changed
}

func hasSelfArc(m *delay.Model, ws *waveSchedule, idx int32) bool {
	for _, ei := range ws.out(idx) {
		if m.Arc(ei).To == idx {
			return true
		}
	}
	return false
}

// tarjan computes strongly connected components iteratively (netlists can
// be deep enough to overflow the goroutine stack with recursion). The
// returned components appear in reverse topological order of the
// condensation.
func tarjan(n int, ws *waveSchedule, m *delay.Model, ar *Arena) {
	const unvisited = -1
	index := ar.int32s(n)
	low := ar.int32s(n)
	onStack := ar.bools(n)
	for i := range index {
		index[i] = unvisited
	}
	counter := int32(0)
	// Every node lands in exactly one component, so the membership CSR
	// is two exact heap allocations: one n-sized payload holding the
	// lists back to back and one offset array. Heap, not arena — the
	// arrays escape into the retained wave plan, and the arena is reset
	// per call while the plan survives across calls.
	compStart := make([]int32, 1, n+1)
	compBuf := make([]int32, n)
	compOff := int32(0)
	// The node stack holds at most every node once; carving it at full
	// size keeps the appends below inside the arena block.
	stack := ar.int32s(n)[:0]

	type frame struct {
		v  int32
		ei int // next out-edge position to examine
	}
	var call []frame

	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: int32(start)})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, int32(start))
		onStack[start] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			advanced := false
			oe := ws.out(v)
			for f.ei < len(oe) {
				w := m.Arc(oe[f.ei]).To
				f.ei++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					compBuf[compOff] = w
					compOff++
					if w == v {
						break
					}
				}
				compStart = append(compStart, compOff)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	ws.compStart, ws.compNodes = compStart, compBuf
}
