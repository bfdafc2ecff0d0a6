package incr

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/pipeline"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// TestSizedAbortRefillsScratch: a batch aborted at incr.apply.analyze,
// after its build patched or refilled the delay builder's graph scratch
// for the edited netlist, is rolled back; a later sized batch that
// rebuilds the same stage — a resize of another of its devices and a
// setcap on its node — must build from the rolled-back netlist, not from
// the aborted batch's scratch. The aborted batches are a resize of the
// stage's first device and a new pulldown on the stage's node, whose
// full build refilled the scratch with the added device. SelfCheck
// proves each.
func TestSizedAbortRefillsScratch(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 8))
	s := newTestSession(t, "chain", b.Finish(), 1)
	stg := s.stages.Stages[len(s.stages.Stages)/2]
	if len(stg.Trans) < 2 {
		t.Fatalf("stage %v has one device", stg)
	}
	first, other := stg.Trans[0], stg.Trans[1]
	out := stg.Nodes[0].Name
	for i, aborted := range [][]Delta{
		{{Op: "resize", ID: first.ID, W: first.W * 3}},
		{{Op: "add", Kind: "e", Gate: "in", A: out, B: "gnd", W: 8, L: 2}},
	} {
		faultpoint.Arm("incr.apply.analyze", faultpoint.Action{Err: faultpoint.ErrInjected})
		if _, err := s.Apply(ctx, aborted); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("batch %d: Apply = %v, want injected fault", i, err)
		}
		faultpoint.Reset()
		st, err := s.Apply(ctx, []Delta{
			{Op: "resize", ID: other.ID, W: other.W * 2},
			{Op: "setcap", Node: out, Cap: 0.2 + 0.1*float64(i)},
		})
		if err != nil {
			t.Fatalf("batch %d: Apply after rollback: %v", i, err)
		}
		if st.StagesRebuilt == 0 {
			t.Fatalf("batch %d: the sized batch rebuilt no stage", i)
		}
		if err := s.SelfCheck(ctx); err != nil {
			t.Fatalf("batch %d: SelfCheck: %v", i, err)
		}
	}
}

// TestNamedLoadsMatchFullProbe: one resize-and-setcap batch run through
// pipeline.Run with its loads named (a sized build) and without (every
// stage probed) gives identical base models, identical corner views and
// identical re-analysis stats. The named build keeps the previous arc
// layout and differs from the previous model only at the rebuilt
// stages' arcs and the named nodes' loading.
func TestNamedLoadsMatchFullProbe(t *testing.T) {
	ctx := context.Background()
	run := func(named bool) (pipeline.State, pipeline.Stats) {
		s := newCornerSession(t, 1)
		var loads, seed []int
		tr := s.nl.Trans[len(s.nl.Trans)/3]
		tr.W *= 2
		tr.L *= 1.5
		loads = append(loads, tr.Gate.Index, tr.A.Index, tr.B.Index)
		nd := s.nl.Nodes[len(s.nl.Nodes)/2]
		nd.Cap += 0.1
		loads = append(loads, nd.Index)
		seed = append(seed, nd.Index)
		if !named {
			loads = nil
		}
		next, ps, err := s.pipe.Run(ctx, nil, s.state(), pipeline.Sizes, seed, loads)
		if err != nil {
			t.Fatal(err)
		}
		if named {
			prev, m := s.model, next.Model
			if m.Layout != prev.Layout {
				t.Fatal("the sized build laid the arcs out again")
			}
			for k := range m.Edges.Len() {
				e := m.Edges.Ref(k)
				si := next.Stages.NodeStage[e.To]
				if *e != prev.Edges.At(k) && (si < 0 || !slices.Contains(ps.Build.Rebuilt, next.Stages.Stages[si])) {
					t.Fatalf("arc %d moved outside the rebuilt stages: %v, was %v", k, *e, prev.Edges.At(k))
				}
			}
			for i := range m.Caps.Len() {
				if m.Caps.At(i) != prev.Caps.At(i) && !slices.Contains(loads, i) {
					t.Fatalf("node %d loading moved but was not named", i)
				}
			}
		}
		return next, ps
	}
	got, gs := run(true)
	want, ws := run(false)
	if err := sameModel(got.Model, want.Model); err != nil {
		t.Fatal(err)
	}
	for i := range want.Corners {
		if err := sameModel(got.Corners[i].Model, want.Corners[i].Model); err != nil {
			t.Fatalf("corner %s: %v", want.Corners[i].Corner.Name, err)
		}
	}
	if !sameStages(gs.Build.Rebuilt, ws.Build.Rebuilt) {
		t.Fatalf("rebuilt %d stages named, %d probed", len(gs.Build.Rebuilt), len(ws.Build.Rebuilt))
	}
	gd, wd := gs.Delta, ws.Delta
	if gd.Comps != wd.Comps || gd.CompsRelaxed != wd.CompsRelaxed || gd.NodesRelaxed != wd.NodesRelaxed ||
		gd.ReusedWave != wd.ReusedWave || !slices.Equal(gd.Relaxed, wd.Relaxed) {
		t.Fatalf("delta stats differ: named %+v, probed %+v", statsOf(gd), statsOf(wd))
	}
}

// sameModel asserts two models' arcs and per-node arrays bit-identical.
func sameModel(got, want *delay.Model) error {
	if err := compareArcs(got, want); err != nil {
		return err
	}
	if !slices.Equal(got.Caps.Slice(), want.Caps.Slice()) || !slices.Equal(got.NodeFlags, want.NodeFlags) ||
		!slices.Equal(got.NodePhase, want.NodePhase) || got.Truncated != want.Truncated {
		return errors.New("model node arrays differ")
	}
	if got.DelayScale() != want.DelayScale() {
		return fmt.Errorf("delay scale %v, want %v", got.DelayScale(), want.DelayScale())
	}
	return nil
}

// sameStages compares two rebuilt lists by stage index: the two runs
// partition separate netlists.
func sameStages(a, b []*stage.Stage) bool {
	return slices.EqualFunc(a, b, func(x, y *stage.Stage) bool { return x.Index == y.Index })
}

func statsOf(d core.DeltaStats) core.DeltaStats {
	d.Relaxed = nil
	return d
}

// TestResizeSupplyShortProbesAll: a device whose channel terminals are
// both supplies (an add delta can create one) owns no node, so no load
// names its stage; resizing it must probe every stage, or the session
// would retain the stage's old fingerprint.
func TestResizeSupplyShortProbesAll(t *testing.T) {
	ctx := context.Background()
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 4))
	s := newTestSession(t, "chain", b.Finish(), 1)
	st, err := s.Apply(ctx, []Delta{{Op: "add", Kind: "e", Gate: "in", A: "vdd", B: "gnd", W: 4, L: 2}})
	if err != nil {
		t.Fatal(err)
	}
	id := st.AddedIDs[0]
	if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: id, W: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
}
