package delay

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nmostv/internal/cow"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// sizedFixture is a design with every arc kind — latch masks, precharge
// gate arcs, pass propagation, restoring stacks — plus an enhancement
// pullup gated by VDD, whose L-only resize moves no terminal's loading.
func sizedFixture(p tech.Params) (*netlist.Netlist, *netlist.Transistor) {
	b := gen.New("sized", p)
	phi1, phi2 := b.Clock("phi1", 1), b.Clock("phi2", 2)
	in := b.Input("in")
	b.Output(b.ShiftRegister(in, phi1, phi2, 4))
	b.Output(b.PassChain(b.Inverter(in), phi2, 3))
	dyn := b.PrechargedNode(phi1)
	b.DischargeBranch(dyn, in, phi2)
	b.Output(b.Inverter(dyn))
	// A node discharged and precharged by one clock: its inverting and
	// non-inverting arcs from that clock are built in the order the
	// merge must swap.
	dyn2 := b.PrechargedNode(phi2)
	b.DischargeBranch(dyn2, phi2, in)
	b.Output(b.Inverter(dyn2))
	b.Output(b.Nand(in, b.Inverter(in), b.Nor(in, b.Input("in2"))))
	out := b.Fresh("vddpu")
	pu := b.NL.AddTransistor(netlist.Enh, b.NL.VDD, b.NL.VDD, out, 4, 8)
	b.NL.AddTransistor(netlist.Enh, in, out, b.NL.GND, 8, 4)
	b.Output(b.Inverter(out))
	return b.Finish(), pu
}

// sameModel asserts two models bit-identical in every array.
func sameModel(t *testing.T, what string, got, want *Model) {
	t.Helper()
	if got.Edges.Len() != want.Edges.Len() {
		t.Fatalf("%s: %d arcs, want %d", what, got.Edges.Len(), want.Edges.Len())
	}
	for i := range want.Edges.Len() {
		g, w := got.Edges.At(i), want.Edges.At(i)
		if g != w || math.Float64bits(g.DRise) != math.Float64bits(w.DRise) ||
			math.Float64bits(g.DFall) != math.Float64bits(w.DFall) {
			t.Fatalf("%s: arc %d is %v, want %v", what, i, g, w)
		}
	}
	if got.Caps.Len() != want.Caps.Len() {
		t.Fatalf("%s: %d caps, want %d", what, got.Caps.Len(), want.Caps.Len())
	}
	for i := range want.Caps.Len() {
		if math.Float64bits(got.Caps.At(i)) != math.Float64bits(want.Caps.At(i)) {
			t.Fatalf("%s: node %d cap %v, want %v", what, i, got.Caps.At(i), want.Caps.At(i))
		}
	}
	if !slices.Equal(got.NodeFlags, want.NodeFlags) || !slices.Equal(got.NodePhase, want.NodePhase) {
		t.Fatalf("%s: node flags or phases differ", what)
	}
	if got.Truncated != want.Truncated {
		t.Fatalf("%s: truncated %d, want %d", what, got.Truncated, want.Truncated)
	}
	if math.Float64bits(got.DelayScale()) != math.Float64bits(want.DelayScale()) {
		t.Fatalf("%s: delay scale %v, want %v", what, got.DelayScale(), want.DelayScale())
	}
}

// TestSizedBuildBytesSurviveCollection: a cached build keeps its edge
// builders on the cache, so a sized build after two collections — which
// empty a sync.Pool — allocates the same bytes as one before them
// instead of a new builder's node-sized scratch and edge slab.
func TestSizedBuildBytesSurviveCollection(t *testing.T) {
	ctx := context.Background()
	p := tech.Default()
	nl := gen.TiledChip(p, gen.DefaultTiledChip(10_000))
	st := stage.Extract(nl)
	flow.Analyze(nl)
	opt := Options{Workers: 1}
	c := NewCache()
	if _, _, err := BuildWithCache(ctx, nl, st, p, opt, c, nil); err != nil {
		t.Fatal(err)
	}
	tr := nl.Trans[len(nl.Trans)/2]
	sized := func() int64 {
		tr.W *= 1.25
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, bs, err := BuildWithCache(ctx, nl, st, p, opt, c, []int{tr.Gate.Index, tr.A.Index, tr.B.Index})
		runtime.ReadMemStats(&after)
		if err != nil || len(bs.Rebuilt) == 0 {
			t.Fatalf("sized build: %d stages rebuilt, err %v", len(bs.Rebuilt), err)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	sized()
	warm := sized()
	runtime.GC()
	runtime.GC()
	if cold := sized(); cold-warm > 16<<10 || warm-cold > 16<<10 {
		t.Fatalf("a sized build allocated %d bytes before two collections and %d after", warm, cold)
	}
}

// TestSizedBuildMatchesFullProbe: over random sequences of resizes (W,
// L or both, with an L-only resize of a VDD-gated pullup in each) and
// setcaps, a sized BuildWithCache — loads naming each resized device's
// gate and terminals and each set node — equals a full-probe
// BuildWithCache and a from-scratch Build bit for bit, rebuilds the
// same stages, and retains the from-scratch fingerprints. A sized model
// that keeps the previous arc layout differs from the previous model
// only at the rebuilt stages' arcs and the named nodes' loading, and the
// two builds' corner views read the delays of ScaleModel's copy.
func TestSizedBuildMatchesFullProbe(t *testing.T) {
	ctx := context.Background()
	p := tech.Default()
	slow := tech.Corners()[0]
	for seq := int64(1); seq <= 8; seq++ {
		t.Run(fmt.Sprintf("seq%d", seq), func(t *testing.T) {
			nl, pu := sizedFixture(p)
			st := stage.Extract(nl)
			flow.Analyze(nl)
			opt := Options{Workers: int(seq%3) + 1}
			sized, full := NewCache(), NewCache()
			prev, _, err := BuildWithCache(ctx, nl, st, p, opt, sized, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := BuildWithCache(ctx, nl, st, p, opt, full, nil); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seq))
			patched := 0
			for step := 0; step < 40; step++ {
				var loads []int
				resize := func(tr *netlist.Transistor, w, l float64) {
					tr.W, tr.L = w, l
					loads = append(loads, tr.Gate.Index, tr.A.Index, tr.B.Index)
				}
				switch k := rng.Intn(6); {
				case step == 7:
					resize(pu, pu.W, pu.L*1.5)
				case k < 2:
					tr := nl.Trans[rng.Intn(len(nl.Trans))]
					resize(tr, tr.W*(0.5+rng.Float64()), tr.L)
				case k < 3:
					tr := nl.Trans[rng.Intn(len(nl.Trans))]
					resize(tr, tr.W, tr.L*(0.5+rng.Float64()))
				default:
					for j := rng.Intn(3); j >= 0; j-- {
						nd := nl.Nodes[rng.Intn(len(nl.Nodes))]
						nd.Cap = rng.Float64() * 0.3
						loads = append(loads, nd.Index)
					}
				}
				m, bs, err := BuildWithCache(ctx, nl, st, p, opt, sized, loads)
				if err != nil {
					t.Fatal(err)
				}
				mf, bf, err := BuildWithCache(ctx, nl, st, p, opt, full, nil)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("step %d", step)
				sameModel(t, what+" sized vs Build", m, Build(nl, st, p, opt))
				sameModel(t, what+" sized vs full probe", m, mf)
				if !slices.Equal(bs.Rebuilt, bf.Rebuilt) {
					t.Fatalf("%s: sized build rebuilt %v, full probe %v", what, bs.Rebuilt, bf.Rebuilt)
				}
				if !slices.Equal(sized.Fingerprints(), Fingerprints(nl, st, p, opt)) {
					t.Fatalf("%s: retained fingerprints differ from a from-scratch probe", what)
				}
				sameModel(t, what+" corner views", m.At(slow), mf.At(slow))
				sameView(t, what+" corner view", m.At(slow), ScaleModel(m, slow.RScale, slow.CScale))
				if m != prev && m.Layout == prev.Layout {
					patched++
					for k := range m.Edges.Len() {
						e := m.Edges.Ref(k)
						if si := st.NodeStage[e.To]; !sameEdge(e, prev.Edges.Ref(k)) && (si < 0 || !slices.Contains(bs.Rebuilt, st.Stages[si])) {
							t.Fatalf("%s: arc %d moved outside the rebuilt stages: %v, was %v", what, k, *e, prev.Edges.At(k))
						}
					}
					for i := range m.Caps.Len() {
						if math.Float64bits(m.Caps.At(i)) != math.Float64bits(prev.Caps.At(i)) && !slices.Contains(loads, i) {
							t.Fatalf("%s: node %d loading moved but was not named", what, i)
						}
					}
				} else if m != prev && len(bs.Rebuilt) == 0 {
					t.Fatalf("%s: nothing rebuilt but the arcs were laid out again", what)
				}
				prev = m
			}
			if patched == 0 {
				t.Fatal("no step derived its model from the previous one")
			}
		})
	}
}

// sameEdge reports whether two arcs are identical, delays bitwise.
func sameEdge(x, y *Edge) bool {
	return *x == *y && math.Float64bits(x.DRise) == math.Float64bits(y.DRise) &&
		math.Float64bits(x.DFall) == math.Float64bits(y.DFall)
}

// sameView asserts that a corner view and a materialized model hold the
// same arcs and read the same delays, bit for bit.
func sameView(t *testing.T, what string, view, mat *Model) {
	t.Helper()
	if view.Edges.Len() != mat.Edges.Len() {
		t.Fatalf("%s: %d arcs, materialized %d", what, view.Edges.Len(), mat.Edges.Len())
	}
	for i := range mat.Edges.Len() {
		v, w := view.Edges.Ref(i), mat.Edges.Ref(i)
		if !SameArc(v, w) || v.Via != w.Via {
			t.Fatalf("%s: arc %d is %v, materialized %v", what, i, *v, *w)
		}
		for _, fall := range []bool{false, true} {
			dv, mv := view.Delay(v, fall)
			dw, mw := mat.Delay(w, fall)
			if math.Float64bits(dv) != math.Float64bits(dw) || mv != mw {
				t.Fatalf("%s: arc %d (fall %v) reads %v, materialized %v", what, i, fall, dv, dw)
			}
		}
	}
}

// TestPlaceMatchesStableSort pins the merge order against its definition:
// the shards concatenated in stage order, stably sorted by (From, To,
// Invert). The placement must send every shard arc to the position the
// sort gives it.
func TestPlaceMatchesStableSort(t *testing.T) {
	p := tech.Default()
	nl, _ := sizedFixture(p)
	st := stage.Extract(nl)
	flow.Analyze(nl)
	opt := Options{Workers: 1}.withDefaults()
	shards := cow.Make(len(st.Stages), shard{})
	todo := make([]int, len(st.Stages))
	for i := range todo {
		todo[i] = i
	}
	if err := buildShards(context.Background(), newGraph(nl, p, ComputeCaps(nl, p), forcedMap(nl, opt), nil), st, opt, &shards, todo, nil); err != nil {
		t.Fatal(err)
	}
	var want []Edge
	for i := range shards.Len() {
		want = append(want, shards.At(i).edges...)
	}
	slices.SortStableFunc(want, func(x, y Edge) int {
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
	})
	m := &Model{Caps: ComputeCaps(nl, p)}
	pl := mergeShards(m, &shards)
	if !slices.Equal(m.Edges.Slice(), want) {
		t.Fatal("merged arcs are not the stable sort of the concatenated shards")
	}
	for i := range shards.Len() {
		for j, pos := range pl.of(i) {
			if *m.Arc(pos) != shards.At(i).edges[j] {
				t.Fatalf("shard %d arc %d placed at %d, which holds another arc", i, j, pos)
			}
		}
	}
	if slices.IndexFunc(want, func(e Edge) bool { return e.Invert }) < 0 {
		t.Fatal("fixture has no inverting arcs to order")
	}
}
