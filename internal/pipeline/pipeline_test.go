package pipeline

import (
	"context"
	"errors"
	"math"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/tech"
)

func testPipeline(cache bool) Pipeline {
	p := Pipeline{
		Params:  tech.Default(),
		Delay:   delay.Options{Workers: 1},
		Sched:   clocks.TwoPhase(900, 0.8),
		Core:    core.Options{Workers: 1},
		Corners: tech.Corners(),
	}
	if cache {
		p.Cache, p.Arenas = delay.NewCache(), make([]core.Arena, 1+len(p.Corners))
	}
	return p
}

func testNetlist() *netlist.Netlist {
	return gen.MIPSDatapath(tech.Default(), gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
}

func sameArrivals(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	for _, pair := range [][2][]float64{
		{got.RiseAt.Slice(), want.RiseAt.Slice()}, {got.FallAt.Slice(), want.FallAt.Slice()},
		{got.EarlyRise.Slice(), want.EarlyRise.Slice()}, {got.EarlyFall.Slice(), want.EarlyFall.Slice()},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %d nodes, want %d", what, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s: node %d arrival %v, want %v", what, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// sameState asserts two runs' base and corner analyses bit-identical.
func sameState(t *testing.T, got, want State) {
	t.Helper()
	sameArrivals(t, "base", got.Base, want.Base)
	if len(got.Corners) != len(want.Corners) {
		t.Fatalf("%d corners, want %d", len(got.Corners), len(want.Corners))
	}
	for i := range want.Corners {
		sameArrivals(t, "corner "+want.Corners[i].Corner.Name, got.Corners[i].Res, want.Corners[i].Res)
	}
}

// TestFullRunIsPrepareThenAnalyze: the session's full run and the
// facade's Prepare + Analyze are one path, and the typical corner is the
// base analysis itself.
func TestFullRunIsPrepareThenAnalyze(t *testing.T) {
	ctx := context.Background()
	p := testPipeline(false)
	full, _, err := p.Run(ctx, nil, State{NL: testNetlist()}, Devices, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Prepare(ctx, nil, testNetlist())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Analyze(ctx, nil, &st); err != nil {
		t.Fatal(err)
	}
	sameState(t, st, full)
	for _, c := range st.Corners {
		if c.Corner.IsTypical() != (c.Res == st.Base) || c.Corner.IsTypical() != (c.Model == st.Model) {
			t.Fatalf("corner %s: aliases the base %v, typical %v", c.Corner.Name, c.Res == st.Base, c.Corner.IsTypical())
		}
	}
}

// TestIncrementalRunMatchesFull: a run from the previous state after a
// resize re-relaxes only its cone, reuses corner models only when the
// base model is unchanged, and ends bit-identical to a full run.
func TestIncrementalRunMatchesFull(t *testing.T) {
	ctx := context.Background()
	p := testPipeline(true)
	nl := testNetlist()
	prev, _, err := p.Run(ctx, nil, State{NL: nl}, Devices, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// An unchanged netlist rebuilds nothing and keeps every model.
	same, ps, err := p.Run(ctx, nil, prev, Sizes, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Build.Rebuilt) != 0 || same.Model != prev.Model || !ps.Delta.ReusedWave {
		t.Fatalf("no-op run rebuilt %d stages, kept model %v, reused wave %v",
			len(ps.Build.Rebuilt), same.Model == prev.Model, ps.Delta.ReusedWave)
	}
	for _, c := range same.Corners {
		if !c.Reused {
			t.Fatalf("corner %s re-derived its model on a no-op run", c.Corner.Name)
		}
	}

	tr := nl.Trans[len(nl.Trans)/2]
	tr.W *= 2
	next, ps, err := p.Run(ctx, nil, same, Sizes, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ps.Build.Rebuilt); n == 0 || n == len(next.Stages.Stages) {
		t.Fatalf("resize rebuilt %d of %d stages", n, len(next.Stages.Stages))
	}
	if ps.Delta.NodesRelaxed == len(nl.Nodes) {
		t.Fatal("resize re-relaxed every node")
	}
	for _, c := range next.Corners {
		if c.Reused {
			t.Fatalf("corner %s kept its model across a rebuilt base model", c.Corner.Name)
		}
	}
	ref := testPipeline(false)
	want, _, err := ref.Run(ctx, nil, State{NL: nl}, Devices, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, next, want)
}

// TestFaultPointsOnlyWithPreviousResult: the apply fault points fire on
// a run from a previous result and leave that result untouched; a full
// run never reaches them.
func TestFaultPointsOnlyWithPreviousResult(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	p := testPipeline(true)
	nl := testNetlist()
	for _, point := range []string{"incr.apply.analyze", "incr.apply.corner"} {
		faultpoint.Reset()
		faultpoint.Arm(point, faultpoint.Action{Err: faultpoint.ErrInjected})
		prev, _, err := p.Run(ctx, nil, State{NL: nl}, Devices, nil, nil)
		if err != nil {
			t.Fatalf("%s armed: full run failed: %v", point, err)
		}
		base := prev.Base
		if _, _, err := p.Run(ctx, nil, prev, Sizes, nil, nil); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("%s armed: incremental run returned %v", point, err)
		}
		if prev.Base != base {
			t.Fatalf("%s: failed run modified the previous state", point)
		}
	}
}
