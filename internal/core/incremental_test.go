package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/cow"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// TestMoveArcs pins the arc-move walk: nil when no arc moved (the same
// array or an equal one with other delays), and otherwise each old arc's
// new index, -1 for an arc that is gone, with arcs of one (From, To,
// Invert) group matched by their full identity whatever their order. Two
// models of one arc layout have no moves without a walk.
func TestMoveArcs(t *testing.T) {
	arc := func(from, to int32, inv bool, mask uint8) delay.Edge {
		return delay.Edge{From: from, To: to, Invert: inv, MaskRise: mask, DRise: 1, DFall: 1}
	}
	old := cow.From([]delay.Edge{arc(0, 1, false, 0), arc(0, 1, true, 0), arc(1, 2, true, 0), arc(1, 2, true, 1), arc(2, 3, true, 0)})
	if m := moveArcs(&old, &old); m != nil {
		t.Fatalf("same array: %v, want nil", m)
	}
	if cl := old.Clone(); moveArcs(&old, &cl) != nil {
		t.Fatal("a version sharing every chunk has moves")
	}
	slower := old.Clone()
	for i := range slower.Len() {
		slower.Mut(i).DRise *= 2
	}
	if m := moveArcs(&old, &slower); m != nil {
		t.Fatalf("delays changed only: %v, want nil", m)
	}
	curArcs := []delay.Edge{
		arc(0, 1, true, 0),  // old 1; old 0 is gone
		arc(0, 2, false, 0), // new
		arc(1, 2, true, 1),  // old 3, now first in its group
		arc(1, 2, true, 0),  // old 2
		arc(2, 3, true, 0),  // old 4
	}
	cur, cut := cow.From(curArcs), cow.From(curArcs[:2])
	want := []int32{-1, 0, 3, 2, 4}
	if m := moveArcs(&old, &cur); !slices.Equal(m, want) {
		t.Fatalf("moves %v, want %v", m, want)
	}
	if m := moveArcs(&old, &cut); !slices.Equal(m, []int32{-1, 0, -1, -1, -1}) {
		t.Fatalf("truncated: moves %v", m)
	}
	// A build gives one layout only to arc arrays with the same identities,
	// so movesFrom takes a shared layout at its word: these arrays differ,
	// and a walk would find moves.
	prev := &Result{Model: &delay.Model{Edges: old, Layout: 7}, wave: &waveSchedule{id: 1}}
	if m := (*Plan)(nil).movesFrom(prev, &delay.Model{Edges: cur, Layout: 7}); m.idx != nil || m.from != 1 {
		t.Fatalf("kept layout: moves %+v, want none from plan 1", m)
	}
	for _, layout := range []uint64{0, 8} {
		if m := (*Plan)(nil).movesFrom(prev, &delay.Model{Edges: cur, Layout: layout}); !slices.Equal(m.idx, want) {
			t.Fatalf("layout 7 to %d: moves %v, want %v", layout, m.idx, want)
		}
	}
}

// chainDesign is a small clocked design with cyclic components: a
// two-phase shift register, a cross-coupled NOR pair, and a fan of
// inverter chains, so random device edits reorder, split and merge loops.
func chainDesign(p tech.Params) *netlist.Netlist {
	b := gen.New("chain", p)
	phi1, phi2 := b.Clock("phi1", 1), b.Clock("phi2", 2)
	in := b.Input("in")
	b.Output(b.ShiftRegister(in, phi1, phi2, 8))
	q, qb := b.Fresh("q"), b.Fresh("qb")
	b.NL.AddTransistor(netlist.Dep, q, b.NL.VDD, q, 4, 8)
	b.NL.AddTransistor(netlist.Enh, in, q, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Enh, qb, q, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Dep, qb, b.NL.VDD, qb, 4, 8)
	b.NL.AddTransistor(netlist.Enh, q, qb, b.NL.GND, 8, 4)
	b.Output(b.Inverter(q))
	for i := 0; i < 8; i++ {
		b.Output(b.InvChain(in, 3))
	}
	return b.Finish()
}

// TestIncrementalRequiredChain is the property test of the incremental
// forward and backward passes. Random chains of edits — resizes, setcaps,
// device adds and removes over a design with cyclic components — are
// built as a session builds them (a resize or setcap names its loads to
// the cached build) and analyzed step by step with AnalyzeIncremental,
// seeded as a session seeds it. After each step the forward result must
// equal a from-scratch analysis: arrivals, and the checks in order with
// their producing arcs, whether the step spliced them (no arc moved) or
// derived them all. The result's Required must equal a from-scratch
// backward pass bit for bit, both when it starts from the previous
// result's memo (incremental) and when it has none (full). A result whose
// pass has run must have released the previous Required.
func TestIncrementalRequiredChain(t *testing.T) {
	for chain := int64(1); chain <= 12; chain++ {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
			t.Run(fmt.Sprintf("chain%d/workers%d", chain, workers), func(t *testing.T) {
				runRequiredChain(t, chain, workers)
			})
		}
	}
}

// runRequiredChain runs one random edit chain of the property test.
func runRequiredChain(t *testing.T, chain int64, workers int) {
	ctx := context.Background()
	p := tech.Default()
	nl := chainDesign(p)
	sch := clocks.TwoPhase(500, 0.8)
	opt := Options{Workers: workers}
	dopt := delay.Options{Workers: workers}
	cache := delay.NewCache()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m, _, err := delay.BuildWithCache(ctx, nl, st, p, dopt, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(ctx, nl, m, sch, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Required(ctx, opt); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(chain*7919 + int64(workers)))
	node := func() *netlist.Node {
		for {
			if nd := nl.Nodes[rng.Intn(len(nl.Nodes))]; !nd.IsSupply() {
				return nd
			}
		}
	}
	incremental, moved := 0, 0
	for step := 0; step < 60; step++ {
		var seedNodes, loads []int
		topo := false
		switch k := rng.Intn(8); {
		case k < 3:
			tr := nl.Trans[rng.Intn(len(nl.Trans))]
			tr.W *= 0.5 + rng.Float64()*1.5
			loads = []int{tr.Gate.Index, tr.A.Index, tr.B.Index}
		case k < 5:
			nd := node()
			nd.Cap = rng.Float64() * 0.4
			seedNodes = append(seedNodes, nd.Index)
			loads = []int{nd.Index}
		case k < 7:
			b := node()
			if rng.Intn(3) == 0 {
				b = nl.Node(fmt.Sprintf("new%d", step))
			}
			nl.AddTransistor(netlist.Enh, node(), node(), b, 2+rng.Float64()*6, 2)
			topo = true
		default:
			tr := nl.Trans[rng.Intn(len(nl.Trans))]
			if stg := st.ByTrans(tr); stg != nil {
				for _, nd := range stg.Nodes {
					seedNodes = append(seedNodes, nd.Index)
				}
			}
			nl.RemoveTransistor(tr)
			topo = true
		}
		if topo {
			nl.Finalize()
			st = stage.Extract(nl)
			flow.Analyze(nl)
		}
		var bs delay.BuildStats
		if m, bs, err = delay.BuildWithCache(ctx, nl, st, p, dopt, cache, loads); err != nil {
			t.Fatal(err)
		}
		var seed []int32
		for _, i := range seedNodes {
			seed = append(seed, int32(i))
		}
		for _, stg := range bs.Rebuilt {
			for _, nd := range stg.Nodes {
				seed = append(seed, int32(nd.Index))
			}
		}
		hadMemo := res.memo() != nil
		next, ds, err := AnalyzeIncremental(ctx, nl, m, sch, opt, res, seed)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !ds.ReusedWave {
			moved++
		}
		ref, err := Analyze(ctx, nl, m, sch, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, workers, ref, next)
		for i := range nl.Nodes {
			for _, pol := range bothPols {
				if next.predOf(i, pol) != ref.predOf(i, pol) {
					t.Fatalf("step %d: node %d %s predecessor %+v, from scratch %+v",
						step, i, pol, next.predOf(i, pol), ref.predOf(i, pol))
				}
			}
		}
		if (next.reqPrev != nil) != hadMemo {
			t.Fatalf("step %d: kept previous Required %v, previous result had one %v",
				step, next.reqPrev != nil, hadMemo)
		}
		want := requiredFor(t, ref, workers)
		assertRequiredIdentical(t, workers, want, requiredFor(t, next, workers))
		// Every fourth result goes unread, so the step after it
		// runs the from-scratch pass.
		if step%4 != 3 {
			got, err := next.Required(ctx, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertRequiredIdentical(t, workers, want, got)
			if next.reqPrev != nil || next.reqSeeds != nil {
				t.Fatalf("step %d: the previous Required outlived the pass", step)
			}
			if hadMemo {
				incremental++
			}
		}
		res = next
	}
	if incremental == 0 || moved == 0 || moved == 60 {
		t.Fatalf("chain ran %d incremental passes and %d plan rebuilds in 60 steps; want both, and steps that splice checks", incremental, moved)
	}
}
