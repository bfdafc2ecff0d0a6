package paths

// The path oracle: an exhaustive brute-force enumeration of every
// feasible launch-to-capture path, sorted by the documented total
// order, compared bit for bit against the lazy generator's stream.
// The oracle shares the generator's value arithmetic (composeArc — the
// FP grouping is part of the path-value definition) but none of its
// search: it runs a plain DFS with a full per-path visited set where
// the generator runs best-first A* with SCC-bounded simplicity checks
// and fixpoint-bounded pruning, and it replays arrivals with its own
// forward loop. Any divergence in seeding rules, feasibility windows,
// wrap regimes, pruning, ordering, or replay shows up as a mismatch.

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

const oracleCap = 200000 // explosion guard: topologies must stay exhaustively enumerable

type oraclePath struct {
	end     *endpoint
	arcs    []int32 // forward, source first; -1 entries at source/terminal positions
	trans   []int32 // frontier transitions endpoint-backward (node<<1|pol), for replay
	slack   float64 // composed value, the ordering key
	arrival float64 // independent forward replay
}

// oracleEnumerate lists every feasible path of res, sorted.
func oracleEnumerate(t *testing.T, res *core.Result) []oraclePath {
	t.Helper()
	model, sched := res.Model, res.Sched
	loop := make(map[int32]bool)
	for _, n := range res.LoopNodes() {
		loop[int32(n.Index)] = true
	}
	arrivalOf := func(v int32, pol core.Polarity) float64 {
		if pol == core.Rise {
			return res.RiseAt.At(int(v))
		}
		return res.FallAt.At(int(v))
	}
	var out []oraclePath

	// dfs extends backward from (v, pol) under suffix suf; chainArcs and
	// chainTrans are endpoint-first.
	var dfs func(end *endpoint, v int32, pol core.Polarity, suf suffix, chainArcs, chainTrans []int32, visited map[int64]bool)
	dfs = func(end *endpoint, v int32, pol core.Polarity, suf suffix, chainArcs, chainTrans []int32, visited map[int64]bool) {
		if loop[v] {
			return
		}
		key := int64(v)<<1 | int64(pol)
		if visited[key] {
			return
		}
		chainTrans = append(chainTrans, int32(v)<<1|int32(pol))
		if e, _ := res.DominantPred(int(v), pol); e < 0 {
			t0 := arrivalOf(v, pol)
			if math.IsInf(t0, -1) || !(t0 > suf.lo && t0 <= suf.hi) {
				return
			}
			if len(out) >= oracleCap {
				t.Fatalf("oracle explosion: more than %d paths", oracleCap)
			}
			fwd := make([]int32, len(chainArcs))
			for i, a := range chainArcs {
				fwd[len(chainArcs)-1-i] = a
			}
			out = append(out, oraclePath{
				end:   end,
				arcs:  fwd,
				trans: slices.Clone(chainTrans),
				slack: end.deadline - math.Max(t0+suf.a, suf.b),
			})
			return
		}
		visited[key] = true
		defer delete(visited, key)
		storage := res.ClockedStorage(v)
		for _, ei := range res.ArcsInto(v) {
			e := model.Arc(ei)
			if storage && !model.IsClock(e.From) {
				continue
			}
			var d float64
			var mask uint8
			if pol == core.Rise {
				d, mask = e.DRise, e.MaskRise
			} else {
				d, mask = e.DFall, e.MaskFall
			}
			if math.IsInf(d, 1) {
				continue
			}
			clamp, dl, constrained, alive := core.MaskWindow(sched, mask)
			if !alive {
				continue
			}
			s2, ok := composeArc(suf, d, clamp, dl, constrained)
			if !ok {
				continue
			}
			dfs(end, e.From, core.CausePol(e, pol), s2, append(chainArcs, ei), chainTrans, visited)
		}
	}

	seedCount := 0
	seedArc := func(end *endpoint, from int32, fromPol core.Polarity, suf suffix) {
		seedCount++
		dfs(end, from, fromPol, suf, []int32{end.edge}, nil, map[int64]bool{})
	}
	for i := range model.Edges.Len() {
		e := model.Edges.Ref(i)
		for _, pol := range []core.Polarity{core.Rise, core.Fall} {
			var d float64
			var mask uint8
			if pol == core.Rise {
				d, mask = e.DRise, e.MaskRise
			} else {
				d, mask = e.DFall, e.MaskFall
			}
			if mask == 0 || math.IsInf(d, 1) {
				continue
			}
			clamp, dl, _, alive := core.MaskWindow(sched, mask)
			if !alive {
				continue
			}
			phase := 1
			if mask == delay.MaskPhi2 {
				phase = 2
			}
			fromPol := core.CausePol(e, pol)
			seedArc(&endpoint{kind: KindLatch, node: e.To, pol: pol, phase: phase, deadline: dl, edge: int32(i)},
				e.From, fromPol, suffix{a: d, b: clamp + d, lo: math.Inf(-1), hi: dl})
			if phase == 1 && res.ClockedStorage(e.To) {
				cw, dlw := clamp+sched.Period, dl+sched.Period
				seedArc(&endpoint{kind: KindLatch, node: e.To, pol: pol, phase: phase, wrapped: true, deadline: dlw, edge: int32(i)},
					e.From, fromPol, suffix{a: d, b: cw + d, lo: dl, hi: dlw})
			}
		}
	}
	terminals := 0
	terminal := func(v int32, kind Kind) {
		for _, pol := range []core.Polarity{core.Rise, core.Fall} {
			if math.IsInf(arrivalOf(v, pol), -1) {
				continue
			}
			terminals++
			end := &endpoint{kind: kind, node: v, pol: pol, deadline: sched.Period, edge: -1}
			dfs(end, v, pol, suffix{a: 0, b: math.Inf(-1), lo: math.Inf(-1), hi: math.Inf(1)},
				[]int32{-1}, nil, map[int64]bool{})
		}
	}
	for v := range res.RiseAt.Len() {
		if model.NodeFlags[v].Has(netlist.FlagOutput) {
			terminal(int32(v), KindOutput)
		}
	}
	if seedCount == 0 && terminals == 0 {
		for v := range res.RiseAt.Len() {
			f := model.NodeFlags[v]
			if f.Has(netlist.FlagSupply) || f.Has(netlist.FlagClock) {
				continue
			}
			terminal(int32(v), KindSettle)
		}
	}

	// Independent forward replay of each path's arrival.
	for i := range out {
		p := &out[i]
		src := p.trans[len(p.trans)-1]
		tm := arrivalOf(src>>1, core.Polarity(src&1))
		for j := len(p.trans) - 2; j >= -1; j-- {
			var toPol core.Polarity
			arcPos := len(p.trans) - 2 - j // index into p.arcs from the source side
			var arc int32
			if j >= 0 {
				toPol = core.Polarity(p.trans[j] & 1)
				arc = p.arcs[arcPos]
			} else {
				// Final hop onto the endpoint itself (latch capture); for
				// terminal endpoints the last transition IS the endpoint.
				if p.end.edge < 0 {
					break
				}
				toPol = p.end.pol
				arc = p.end.edge
			}
			e := res.Model.Arc(arc)
			var d float64
			var mask uint8
			if toPol == core.Rise {
				d, mask = e.DRise, e.MaskRise
			} else {
				d, mask = e.DFall, e.MaskFall
			}
			clamp, _, constrained, _ := core.MaskWindow(sched, mask)
			if j == -1 && p.end.wrapped {
				clamp += sched.Period
			}
			if constrained && tm < clamp {
				tm = clamp
			}
			tm += d
		}
		p.arrival = tm
	}

	slices.SortFunc(out, func(x, y oraclePath) int {
		xs := &state{prio: x.slack, end: x.end, arcs: x.arcs}
		ys := &state{prio: y.slack, end: y.end, arcs: y.arcs}
		return pathLess(xs, ys)
	})
	return out
}

// prep builds and analyzes a generated circuit at the given corner and
// worker count.
func prep(t *testing.T, build func(b *gen.B), corner tech.Corner, workers int) *core.Result {
	t.Helper()
	b := gen.New("t", tech.Default())
	build(b)
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, tech.Default(), delay.Options{})
	if !corner.IsTypical() {
		m = delay.ScaleModel(m, corner.RScale, corner.CScale)
	}
	res, err := core.Analyze(context.Background(), nl, m, clocks.TwoPhase(40, 0.8), core.Options{Workers: workers})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// latchPipeline: input logic into a φ1 latch, through more logic into a
// φ2 latch, out — exercises masked capture arcs, clocked storage, the
// φ1 wrap regime, and outputs.
func latchPipeline(b *gen.B) {
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	d := b.InvChain(b.Input("din"), 3)
	_, q1 := b.Latch(phi1, d)
	mid := b.InvChain(q1, 2)
	_, q2 := b.Latch(phi2, mid)
	b.Output(b.Inverter(q2))
}

// reconvergent: a small ripple adder — acyclic but with heavy
// reconvergent fanout, outputs only.
func reconvergent(b *gen.B) {
	var a, c []*netlist.Node
	for i := 0; i < 3; i++ {
		a = append(a, b.Input("a"+string(rune('0'+i))))
		c = append(c, b.Input("b"+string(rune('0'+i))))
	}
	sums, cout := b.RippleAdder(a, c, b.Input("cin"))
	for _, s := range sums {
		b.Output(s)
	}
	b.Output(cout)
}

// sccPass: bidirectional pass-transistor network — every pass device is
// a two-node SCC, chained and reconverging through a mux.
func sccPass(b *gen.B) {
	in := b.Input("in")
	ctrl := b.Input("ctrl")
	p1 := b.PassChain(in, ctrl, 2)
	p2 := b.PassChain(in, b.Input("ctrl2"), 3)
	sel := b.Input("sel")
	selBar := b.Inverter(sel)
	m := b.Mux2(sel, selBar, b.Inverter(p1), b.Inverter(p2))
	b.Output(b.Inverter(m))
	phi2 := b.Clock("phi2", 2)
	_, q := b.Latch(phi2, m)
	b.Output(q)
}

func corners3() []tech.Corner {
	return []tech.Corner{tech.Slow(), tech.Typical(), tech.Fast()}
}

// TestOracleTopKExact proves the lazy generator's stream is bit-identical
// to exhaustive enumeration — order, slacks, arrivals, endpoints, and
// step structure — on three topologies, three corners, and three worker
// counts.
func TestOracleTopKExact(t *testing.T) {
	topologies := []struct {
		name  string
		build func(b *gen.B)
	}{
		{"latch-pipeline", latchPipeline},
		{"ripple-adder", reconvergent},
		{"scc-pass", sccPass},
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, topo := range topologies {
		for _, corner := range corners3() {
			for _, workers := range workerCounts {
				t.Run(topo.name+"/"+corner.Name, func(t *testing.T) {
					res := prep(t, topo.build, corner, workers)
					want := oracleEnumerate(t, res)
					if len(want) == 0 {
						t.Fatal("oracle found no paths; topology is not exercising the generator")
					}
					g := New(res)
					for i, w := range want {
						p, ok := g.Next()
						if !ok {
							t.Fatalf("generator ended at %d paths, oracle has %d", i, len(want))
						}
						if p.Rank != i+1 {
							t.Fatalf("path %d: rank %d", i, p.Rank)
						}
						if p.Node != w.end.node || p.Pol != w.end.pol || p.Kind != w.end.kind ||
							p.Wrapped != w.end.wrapped || p.Required != w.end.deadline {
							t.Fatalf("path %d: endpoint (%d,%s,%s,w=%v,req=%g), oracle (%d,%s,%s,w=%v,req=%g)",
								i, p.Node, p.Pol, p.Kind, p.Wrapped, p.Required,
								w.end.node, w.end.pol, w.end.kind, w.end.wrapped, w.end.deadline)
						}
						if p.Arrival != w.arrival {
							t.Fatalf("path %d: arrival %v, oracle replay %v", i, p.Arrival, w.arrival)
						}
						arcs := make([]int32, 0, len(p.Steps))
						for _, s := range p.Steps[1:] {
							arcs = append(arcs, s.Arc)
						}
						if p.Kind != KindLatch {
							arcs = append(arcs, -1) // terminal seeds carry the -1 sentinel
						}
						if !slices.Equal(arcs, w.arcs) {
							t.Fatalf("path %d: arcs %v, oracle %v", i, arcs, w.arcs)
						}
						if last := p.Steps[len(p.Steps)-1]; last.Arrival != p.Arrival {
							t.Fatalf("path %d: last step arrival %v != path arrival %v", i, last.Arrival, p.Arrival)
						}
					}
					if p, ok := g.Next(); ok {
						t.Fatalf("generator produced an extra path beyond the oracle's %d: %+v", len(want), p)
					}
				})
			}
		}
	}
}
