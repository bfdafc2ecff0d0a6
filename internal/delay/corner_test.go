package delay

import (
	"math"
	"testing"

	"nmostv/internal/gen"
	"nmostv/internal/tech"
)

// cornerTestModel builds a model with a representative arc mix: clocked
// latch masks, precharge gate arcs, inverting restoring arcs, and pass
// propagation.
func cornerTestModel(t *testing.T) *Model {
	t.Helper()
	b := gen.New("corner", tech.Default())
	phi1 := b.Clock("phi1", 1)
	d := b.Input("d")
	_, qbar := b.Latch(phi1, d)
	inv := b.Inverter(qbar)
	b.Output(b.Inverter(inv))
	_, m := buildModel(b, Options{})
	if m.Edges.Len() == 0 {
		t.Fatal("corner test model has no edges")
	}
	return m
}

func TestScaleModelStructureShared(t *testing.T) {
	base := cornerTestModel(t)
	c := tech.Slow()
	m := ScaleModel(base, c.RScale, c.CScale)
	if m == base {
		t.Fatal("non-unit scaling must derive a new model")
	}
	if m.Edges.Len() != base.Edges.Len() {
		t.Fatalf("scaled model has %d edges, want %d", m.Edges.Len(), base.Edges.Len())
	}
	ds := c.DelayScale()
	for i := range base.Edges.Len() {
		be, se := base.Edges.Ref(i), m.Edges.Ref(i)
		if se.From != be.From || se.To != be.To || se.MaskRise != be.MaskRise ||
			se.MaskFall != be.MaskFall || se.Invert != be.Invert ||
			se.GateArc != be.GateArc || se.Via != be.Via {
			t.Fatalf("edge %d: structure differs from base: %+v vs %+v", i, se, be)
		}
		if math.Float64bits(se.DRise) != math.Float64bits(be.DRise*ds) ||
			math.Float64bits(se.DFall) != math.Float64bits(be.DFall*ds) {
			t.Fatalf("edge %d: delays not scaled by exactly %g", i, ds)
		}
		if math.IsInf(be.DRise, 1) != math.IsInf(se.DRise, 1) ||
			math.IsInf(be.DFall, 1) != math.IsInf(se.DFall, 1) {
			t.Fatalf("edge %d: scaling changed impossibility", i)
		}
	}
	if m.Caps.Len() != 0 || m.DelayScale() != 1 {
		t.Error("a materialized corner model holds no Caps and reads its arcs unscaled")
	}
	// The structural snapshots are shared, not copied.
	if &m.NodeFlags[0] != &base.NodeFlags[0] || &m.NodePhase[0] != &base.NodePhase[0] {
		t.Error("NodeFlags/NodePhase must be shared with the base model")
	}
	if m.Truncated != base.Truncated {
		t.Error("Truncated must carry over")
	}
}

func TestScaleModelUnitReturnsBase(t *testing.T) {
	base := cornerTestModel(t)
	if ScaleModel(base, 1, 1) != base {
		t.Error("unit scaling must return the base model itself")
	}
}

func TestScaleModelLeavesBaseIntact(t *testing.T) {
	base := cornerTestModel(t)
	before := base.Edges.Slice()
	_ = ScaleModel(base, 1.3, 1.1)
	for i := range before {
		if base.Edges.At(i) != before[i] {
			t.Fatalf("edge %d of the base model mutated by ScaleModel", i)
		}
	}
}

// TestCornerViewSharesBase: a corner view is the base's arrays read at
// the corner's delay scale — the same arc array, node snapshot, layout
// and truncation count, no Caps — and reads exactly ScaleModel's
// delays. A typical corner's view is the base itself, and a Model
// literal that sets no scale reads its arcs unscaled.
func TestCornerViewSharesBase(t *testing.T) {
	base := cornerTestModel(t)
	if base.At(tech.Typical()) != base || base.DelayScale() != 1 {
		t.Fatal("the typical view must be the base, read at scale 1")
	}
	for _, c := range []tech.Corner{tech.Slow(), tech.Fast(), {Name: "hot", RScale: 1.45, CScale: 1.2}} {
		v := base.At(c)
		if v.Edges.SharedChunks(&base.Edges) != base.Edges.NumChunks() || &v.NodeFlags[0] != &base.NodeFlags[0] ||
			&v.NodePhase[0] != &base.NodePhase[0] || v.Layout != base.Layout || v.Truncated != base.Truncated {
			t.Fatalf("%s: the view does not share the base's arrays", c.Name)
		}
		if v.Caps.Len() != 0 {
			t.Fatalf("%s: the view holds Caps", c.Name)
		}
		if math.Float64bits(v.DelayScale()) != math.Float64bits(c.DelayScale()) {
			t.Fatalf("%s: view scale %v, want %v", c.Name, v.DelayScale(), c.DelayScale())
		}
		mat := ScaleModel(base, c.RScale, c.CScale)
		sameView(t, c.Name, v, mat)
	}
	lit := &Model{Edges: base.Edges}
	for i := range lit.Edges.Len() {
		e := lit.Edges.Ref(i)
		if d, m := lit.Delay(e, false); math.Float64bits(d) != math.Float64bits(e.DRise) || m != e.MaskRise {
			t.Fatalf("arc %d: a literal reads rise %v, stored %v", i, d, e.DRise)
		}
		if d, m := lit.Delay(e, true); math.Float64bits(d) != math.Float64bits(e.DFall) || m != e.MaskFall {
			t.Fatalf("arc %d: a literal reads fall %v, stored %v", i, d, e.DFall)
		}
	}
}
