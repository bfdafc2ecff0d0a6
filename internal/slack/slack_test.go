package slack

import (
	"context"
	"math"
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

func testDesign(t *testing.T) (*netlist.Netlist, *delay.Model) {
	t.Helper()
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
	st := stage.Extract(nl)
	flow.Analyze(nl)
	return nl, delay.Build(nl, st, p, delay.Options{Workers: 1})
}

func eqF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSweepMatchesIndependentRuns is the acceptance property: the shared-
// plan concurrent sweep produces, per corner, exactly the arrays an
// isolated single-corner analysis produces — and therefore a merged view
// bit-identical to merging independent runs.
func TestSweepMatchesIndependentRuns(t *testing.T) {
	nl, base := testDesign(t)
	sched := clocks.TwoPhase(1200, 0.8)
	corners := tech.Corners()
	sw, err := Analyze(context.Background(), nl, base, corners, Options{Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Corners) != len(corners) {
		t.Fatalf("%d corner results, want %d", len(sw.Corners), len(corners))
	}
	for i, c := range corners {
		model := delay.ScaleModel(base, c.RScale, c.CScale)
		res, err := core.Analyze(context.Background(), nl, model, sched, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		req, err := res.Required(context.Background(), core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cr := sw.Corners[i]
		if cr.Corner != c {
			t.Fatalf("corner %d is %v, want %v", i, cr.Corner, c)
		}
		if !eqF(cr.Res.RiseAt.Slice(), res.RiseAt.Slice()) || !eqF(cr.Res.FallAt.Slice(), res.FallAt.Slice()) ||
			!eqF(cr.Res.EarlyRise.Slice(), res.EarlyRise.Slice()) || !eqF(cr.Res.EarlyFall.Slice(), res.EarlyFall.Slice()) {
			t.Fatalf("corner %s: sweep arrivals differ from independent run", c.Name)
		}
		if !eqF(cr.Req.RiseRAT.Slice(), req.RiseRAT.Slice()) || !eqF(cr.Req.FallRAT.Slice(), req.FallRAT.Slice()) {
			t.Fatalf("corner %s: sweep required times differ from independent run", c.Name)
		}
		for n := range req.RiseRAT.Len() {
			for _, pol := range []core.Polarity{core.Rise, core.Fall} {
				if math.Float64bits(cr.Req.Slack(n, pol)) != math.Float64bits(req.Slack(n, pol)) {
					t.Fatalf("corner %s: node %d %s sweep slack differs from independent run", c.Name, n, pol)
				}
			}
		}
		if len(cr.Res.Checks) != len(res.Checks) {
			t.Fatalf("corner %s: %d checks, independent %d", c.Name, len(cr.Res.Checks), len(res.Checks))
		}
		for j := range res.Checks {
			if cr.Res.Checks[j] != res.Checks[j] {
				t.Fatalf("corner %s: check %d differs", c.Name, j)
			}
		}
	}
	// Merged view equals a hand merge of the independent results.
	for i := range nl.Nodes {
		want, wc := math.Inf(1), int32(-1)
		for ci := range sw.Corners {
			if s := sw.Corners[ci].Req.NodeSlack(i); s < want {
				want, wc = s, int32(ci)
			}
		}
		if math.Float64bits(sw.WorstSlack.At(i)) != math.Float64bits(want) || sw.WorstCorner.At(i) != wc {
			t.Fatalf("node %d: merged (%v, %d), want (%v, %d)",
				i, sw.WorstSlack.At(i), sw.WorstCorner.At(i), want, wc)
		}
	}
}

// TestSweepDeterministic: repeated sweeps, and sweeps at different worker
// counts, produce bit-identical merged views.
func TestSweepDeterministic(t *testing.T) {
	nl, base := testDesign(t)
	sched := clocks.TwoPhase(900, 0.8)
	first, err := Analyze(context.Background(), nl, base, tech.Corners(), Options{Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		again, err := Analyze(context.Background(), nl, base, tech.Corners(),
			Options{Sched: sched, Core: core.Options{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if !eqF(first.WorstSlack.Slice(), again.WorstSlack.Slice()) {
			t.Fatalf("workers=%d: merged worst slack differs", workers)
		}
		for i := range first.WorstCorner.Len() {
			if first.WorstCorner.At(i) != again.WorstCorner.At(i) {
				t.Fatalf("workers=%d: worst corner differs at node %d", workers, i)
			}
		}
	}
}

// TestTypicalCornerSharesBaseModel: a unit-scaled corner must not copy
// the edge array.
func TestTypicalCornerSharesBaseModel(t *testing.T) {
	nl, base := testDesign(t)
	sw, err := Analyze(context.Background(), nl, base, tech.Corners(),
		Options{Sched: clocks.TwoPhase(1200, 0.8)})
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := sw.Corner("typ")
	if !ok {
		t.Fatal("typ corner missing")
	}
	if cr.Model != base {
		t.Error("typical corner must share the base model")
	}
	if s, ok := sw.Corner("slow"); !ok || s.Model == base {
		t.Error("slow corner must derive its own model")
	}
}

// TestRankingMerged pins the merged report: one row per constrained node,
// worst first, each row naming a real corner and carrying that corner's
// numbers.
func TestRankingMerged(t *testing.T) {
	nl, base := testDesign(t)
	sw, err := Analyze(context.Background(), nl, base, tech.Corners(),
		Options{Sched: clocks.TwoPhase(900, 0.8)})
	if err != nil {
		t.Fatal(err)
	}
	all := sw.Ranking(0)
	if len(all) == 0 {
		t.Fatal("empty merged ranking")
	}
	seen := map[int]bool{}
	for i, e := range all {
		if i > 0 && all[i-1].Slack > e.Slack {
			t.Fatalf("ranking unsorted at %d", i)
		}
		if seen[e.Node.Index] {
			t.Fatalf("node %s appears twice", e.Node.Name)
		}
		seen[e.Node.Index] = true
		cr, ok := sw.Corner(e.Corner)
		if !ok {
			t.Fatalf("row %d names unknown corner %q", i, e.Corner)
		}
		if math.Float64bits(e.Slack) != math.Float64bits(sw.WorstSlack.At(e.Node.Index)) {
			t.Fatalf("row %d slack differs from merged array", i)
		}
		if math.Float64bits(e.Required) != math.Float64bits(cr.Req.RAT(e.Node.Index, e.Pol)) {
			t.Fatalf("row %d required differs from corner arrays", i)
		}
	}
	if top := sw.Ranking(3); len(top) != 3 {
		t.Fatalf("k=3 gave %d rows", len(top))
	}
	// The slow corner should dominate the worst rows of a max-delay view.
	if all[0].Corner != "slow" {
		t.Errorf("worst row at corner %q, want slow", all[0].Corner)
	}
	if _, corner, slack, ok := sw.WorstOverall(); !ok || corner != all[0].Corner ||
		math.Float64bits(slack) != math.Float64bits(all[0].Slack) {
		t.Error("WorstOverall disagrees with ranking head")
	}
}

func TestSweepValidation(t *testing.T) {
	nl, base := testDesign(t)
	sched := clocks.TwoPhase(900, 0.8)
	if _, err := Analyze(context.Background(), nl, base,
		[]tech.Corner{tech.Slow(), tech.Slow()}, Options{Sched: sched}); err == nil {
		t.Error("duplicate corners must be rejected")
	}
	if _, err := Analyze(context.Background(), nl, base,
		[]tech.Corner{{Name: "bad", RScale: -1, CScale: 1}}, Options{Sched: sched}); err == nil {
		t.Error("invalid corner must be rejected")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Analyze(ctx, nl, base, tech.Corners(), Options{Sched: sched}); err == nil {
		t.Error("canceled context must abort the sweep")
	}
	// Empty corner list defaults to typical.
	sw, err := Analyze(context.Background(), nl, base, nil, Options{Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Corners) != 1 || sw.Corners[0].Corner.Name != "typ" {
		t.Fatalf("empty corner list gave %v", sw.Corners)
	}
}

// TestRemergeFallsBackUnlessExtended: Remerge refolds only over backward
// passes that extended prev's. Analyses of an edited design made from
// scratch extend nothing, so their Remerge over the unedited sweep must
// fold every node — equal to Merge, and different from prev.
func TestRemergeFallsBackUnlessExtended(t *testing.T) {
	ctx := context.Background()
	p := tech.Default()
	nl, base := testDesign(t)
	opt := Options{Sched: clocks.TwoPhase(1200, 0.8), Core: core.Options{Workers: 1}}
	prev, err := Analyze(ctx, nl, base, tech.Corners(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range nl.Trans[:len(nl.Trans)/4] {
		tr.W *= 3
	}
	edited := delay.Build(nl, stage.Extract(nl), p, delay.Options{Workers: 1})
	fresh, err := Analyze(ctx, nl, edited, tech.Corners(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for ci, cr := range fresh.Corners {
		if _, ok := cr.Req.ChangedSince(prev.Corners[ci].Req); ok {
			t.Fatalf("corner %s: a from-scratch pass claims to extend another", cr.Corner.Name)
		}
	}
	got, err := Remerge(prev, fresh.Corners)
	if err != nil {
		t.Fatal(err)
	}
	if !eqF(got.WorstSlack.Slice(), fresh.WorstSlack.Slice()) || !slices.Equal(got.WorstCorner.Slice(), fresh.WorstCorner.Slice()) {
		t.Fatal("Remerge over passes that extend nothing differs from a full merge")
	}
	if eqF(got.WorstSlack.Slice(), prev.WorstSlack.Slice()) {
		t.Fatal("the edit moved no merged slack; the test cannot tell a refold from a full merge")
	}
}
