package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// TestCornerViewMatchesMaterialized: an analysis over a corner's view of
// the base model (delay.Model.At, which reads each delay as the rounded
// product) equals one over ScaleModel's materialized copy, bit for bit —
// settle and early arrivals, predecessors, checks in order, required
// times and slacks, TopPaths and CheckPath — on the oracle circuits and
// a small tiled chip, at one and several workers.
func TestCornerViewMatchesMaterialized(t *testing.T) {
	type design struct {
		name   string
		nl     *netlist.Netlist
		m      *delay.Model
		period float64
	}
	var designs []design
	for _, tc := range oracleCircuits(tech.Default()) {
		for _, period := range []float64{400, 30} {
			nl, m := oracleModel(t, tc.name, tc.build, period)
			designs = append(designs, design{fmt.Sprintf("%s/%g", tc.name, period), nl, m, period})
		}
	}
	p := tech.Default()
	nl := gen.TiledChip(p, gen.DefaultTiledChip(3000))
	st := stage.Extract(nl)
	flow.Analyze(nl)
	designs = append(designs, design{"tiled-3k", nl, delay.Build(nl, st, p, delay.Options{Workers: 1}), 1200})
	for _, d := range designs {
		s := clocks.TwoPhase(d.period, 0.8)
		for _, c := range []tech.Corner{tech.Slow(), tech.Fast()} {
			mat := delay.ScaleModel(d.m, c.RScale, c.CScale)
			for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
				what := fmt.Sprintf("%s %s workers %d", d.name, c.Name, workers)
				opt := Options{Workers: workers}
				rv, err := Analyze(context.Background(), d.nl, d.m.At(c), s, opt)
				if err != nil {
					t.Fatal(err)
				}
				rm, err := Analyze(context.Background(), d.nl, mat, s, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameAnalysis(t, what, rv, rm)
				qv, err := rv.Required(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				qm, err := rm.Required(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				for i := range d.nl.Nodes {
					for _, pol := range bothPols {
						if !sameBits(qv.RAT(i, pol), qm.RAT(i, pol)) || !sameBits(qv.Slack(i, pol), qm.Slack(i, pol)) {
							t.Fatalf("%s: node %d %s required %v slack %v, materialized %v %v",
								what, i, pol, qv.RAT(i, pol), qv.Slack(i, pol), qm.RAT(i, pol), qm.Slack(i, pol))
						}
					}
				}
			}
		}
	}
}

// sameAnalysis asserts two analyses of one netlist bit-identical in
// their arrivals, predecessors, checks and reported paths.
func sameAnalysis(t *testing.T, what string, got, want *Result) {
	t.Helper()
	for _, arr := range []struct {
		name      string
		got, want []float64
	}{
		{"RiseAt", got.RiseAt.Slice(), want.RiseAt.Slice()}, {"FallAt", got.FallAt.Slice(), want.FallAt.Slice()},
		{"EarlyRise", got.EarlyRise.Slice(), want.EarlyRise.Slice()}, {"EarlyFall", got.EarlyFall.Slice(), want.EarlyFall.Slice()},
	} {
		for i := range arr.want {
			if !sameBits(arr.got[i], arr.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, materialized %v", what, arr.name, i, arr.got[i], arr.want[i])
			}
		}
	}
	for i := range want.RiseAt.Len() {
		for _, pol := range bothPols {
			ga, gp := got.DominantPred(i, pol)
			wa, wp := want.DominantPred(i, pol)
			if ga != wa || gp != wp {
				t.Fatalf("%s: node %d %s predecessor arc %d, materialized %d", what, i, pol, ga, wa)
			}
		}
	}
	if len(got.Checks) != len(want.Checks) {
		t.Fatalf("%s: %d checks, materialized %d", what, len(got.Checks), len(want.Checks))
	}
	for i := range want.Checks {
		if g, w := got.Checks[i], want.Checks[i]; !sameCheck(g, w) {
			t.Fatalf("%s: check %d is %s, materialized %s", what, i, g, w)
		}
		if g, w := got.CheckPath(got.Checks[i]), want.CheckPath(want.Checks[i]); !sameSteps(g, w) {
			t.Fatalf("%s: check %d path differs:\n%s\nmaterialized\n%s", what, i, FormatPath(g), FormatPath(w))
		}
	}
	gp, wp := got.TopPaths(20), want.TopPaths(20)
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d top paths, materialized %d", what, len(gp), len(wp))
	}
	for i := range wp {
		if !sameCheck(gp[i].Check, wp[i].Check) || !sameSteps(gp[i].Steps, wp[i].Steps) {
			t.Fatalf("%s: top path %d differs", what, i)
		}
	}
}

// sameCheck compares two checks field by field, times bitwise.
func sameCheck(x, y Check) bool {
	return x == y && sameBits(x.Arrival, y.Arrival) && sameBits(x.Deadline, y.Deadline) && sameBits(x.Slack, y.Slack)
}

// sameSteps compares two paths hop by hop, times bitwise.
func sameSteps(x, y []Step) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] || !sameBits(x[i].Time, y[i].Time) {
			return false
		}
	}
	return true
}
