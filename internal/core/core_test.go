package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

// pipeline prepares a generated circuit for analysis.
func pipeline(b *gen.B) (*netlist.Netlist, *delay.Model) {
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	return nl, delay.Build(nl, st, tech.Default(), delay.Options{})
}

func sched() clocks.Schedule { return clocks.TwoPhase(100, 0.8) }

func analyze(t *testing.T, nl *netlist.Netlist, m *delay.Model, s clocks.Schedule) *Result {
	t.Helper()
	res, err := Analyze(context.Background(), nl, m, s, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func edgeBetween(m *delay.Model, from, to *netlist.Node) *delay.Edge {
	for i := range m.Edges.Len() {
		e := m.Edges.Ref(i)
		if int(e.From) == from.Index && int(e.To) == to.Index {
			return e
		}
	}
	return nil
}

func TestInverterChainArrivalAccumulation(t *testing.T) {
	b := gen.New("t", tech.Default())
	in := b.Input("in")
	o1 := b.Inverter(in)
	o2 := b.Inverter(o1)
	o3 := b.Inverter(o2)
	nl, m := pipeline(b)
	res := analyze(t, nl, m, sched())

	e1 := edgeBetween(m, in, o1)
	e2 := edgeBetween(m, o1, o2)
	e3 := edgeBetween(m, o2, o3)

	// Polarity-aware longest paths: inputs change at t=0 both ways.
	wantFall1 := e1.DFall // caused by in rising
	wantRise1 := e1.DRise // caused by in falling
	if math.Abs(res.FallAt.At(o1.Index)-wantFall1) > 1e-9 {
		t.Errorf("fall(o1) = %g, want %g", res.FallAt.At(o1.Index), wantFall1)
	}
	if math.Abs(res.RiseAt.At(o1.Index)-wantRise1) > 1e-9 {
		t.Errorf("rise(o1) = %g, want %g", res.RiseAt.At(o1.Index), wantRise1)
	}
	// o2 rises when o1 falls; o2 falls when o1 rises.
	if want := wantFall1 + e2.DRise; math.Abs(res.RiseAt.At(o2.Index)-want) > 1e-9 {
		t.Errorf("rise(o2) = %g, want %g", res.RiseAt.At(o2.Index), want)
	}
	if want := wantRise1 + e2.DFall; math.Abs(res.FallAt.At(o2.Index)-want) > 1e-9 {
		t.Errorf("fall(o2) = %g, want %g", res.FallAt.At(o2.Index), want)
	}
	// And one more inversion for o3.
	if want := wantRise1 + e2.DFall + e3.DRise; math.Abs(res.RiseAt.At(o3.Index)-want) > 1e-9 {
		t.Errorf("rise(o3) = %g, want %g", res.RiseAt.At(o3.Index), want)
	}
}

func TestClockArrivalsFixed(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	b.Latch(phi1, b.Input("d"))
	nl, m := pipeline(b)
	s := sched()
	res := analyze(t, nl, m, s)
	if res.RiseAt.At(phi1.Index) != s.Rise(1) || res.FallAt.At(phi1.Index) != s.Fall(1) {
		t.Error("phi1 arrivals must equal the schedule edges")
	}
	if res.RiseAt.At(phi2.Index) != s.Rise(2) || res.FallAt.At(phi2.Index) != s.Fall(2) {
		t.Error("phi2 arrivals must equal the schedule edges")
	}
}

func TestLatchLaunchesAtClockRise(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	d := b.Input("d")
	store, _ := b.Latch(phi1, d)
	nl, m := pipeline(b)
	s := sched()
	res := analyze(t, nl, m, s)

	clkArc := edgeBetween(m, phi1, store)
	want := s.Rise(1) + clkArc.DRise
	if math.Abs(res.RiseAt.At(store.Index)-want) > 1e-9 {
		t.Errorf("storage rise = %g, want clock rise + pass delay = %g",
			res.RiseAt.At(store.Index), want)
	}
	if math.Abs(res.FallAt.At(store.Index)-want) > 1e-9 {
		t.Errorf("storage fall = %g, want %g", res.FallAt.At(store.Index), want)
	}

	// A latch-settle check for the data arc must exist and pass.
	found := false
	for _, c := range res.Checks {
		if c.Kind == CheckLatch && c.Node == store && c.Phase == 1 {
			found = true
			if !c.OK {
				t.Errorf("latch check fails at a generous period: %v", c)
			}
		}
	}
	if !found {
		t.Error("no latch-settle check emitted for the storage node")
	}
}

func TestSetupViolationAtShortPeriod(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	in := b.Input("in")
	_, q1 := b.Latch(phi1, in)
	logic := b.InvChain(q1, 6)
	b.Latch(phi2, logic)
	nl, m := pipeline(b)

	long := analyze(t, nl, m, clocks.TwoPhase(200, 0.8))
	if len(long.Violations()) != 0 {
		t.Fatalf("long period must pass: %v", long.Violations())
	}
	short := analyze(t, nl, m, clocks.TwoPhase(1, 0.8))
	if len(short.Violations()) == 0 {
		t.Fatal("1 ns period must violate")
	}
}

func TestCrossPhaseWrappedCheck(t *testing.T) {
	// φ2-latched data consumed by a φ1 latch wraps into the next
	// cycle's φ1 window: with the wrap it passes; the check's deadline
	// exceeds the period-local φ1 fall.
	// The chain is long enough that the data arrives inside the *next*
	// cycle's φ1 window (past its rise clamp), making the wrapped data
	// check strictly tighter than the latch's own flow-through check.
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	in := b.Input("in")
	_, q2 := b.Latch(phi2, in)
	store1, _ := b.Latch(phi1, b.InvChain(q2, 45))
	nl, m := pipeline(b)
	s := sched()
	res := analyze(t, nl, m, s)

	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("wrapped pipeline must pass at a generous period: %v", v)
	}
	var wrapped *Check
	for i := range res.Checks {
		c := &res.Checks[i]
		if c.Kind == CheckLatch && c.Node == store1 && c.Deadline > s.Fall(1)+1e-9 {
			wrapped = c
		}
	}
	if wrapped == nil {
		t.Fatal("expected a wrapped (next-cycle) check at the φ1 latch")
	}
	if math.Abs(wrapped.Deadline-(s.Fall(1)+s.Period)) > 1e-9 {
		t.Errorf("wrapped deadline = %g, want %g", wrapped.Deadline, s.Fall(1)+s.Period)
	}
}

func TestPrechargedSemantics(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi2 := b.Clock("phi2", 2)
	sig := b.Input("sig")
	dyn := b.PrechargedNode(phi2)
	b.DischargeBranch(dyn, sig)
	b.Output(dyn)
	nl, m := pipeline(b)
	s := sched()
	res := analyze(t, nl, m, s)

	// Rise is pinned at cycle start (precharged in the previous cycle).
	if res.RiseAt.At(dyn.Index) != 0 {
		t.Errorf("precharged rise = %g, want 0", res.RiseAt.At(dyn.Index))
	}
	// Fall (evaluate) propagates from the data input.
	if !(res.FallAt.At(dyn.Index) > 0) {
		t.Errorf("precharged fall = %g, want positive", res.FallAt.At(dyn.Index))
	}
	// The precharge-completes check exists against φ2's fall.
	found := false
	for _, c := range res.Checks {
		if c.Kind == CheckLatch && c.Node == dyn && c.Pol == Rise && c.Phase == 2 {
			found = true
			if !c.OK {
				t.Errorf("precharge completion should pass: %v", c)
			}
		}
	}
	if !found {
		t.Error("no precharge-completion check emitted")
	}
}

func TestMissedWindow(t *testing.T) {
	// A φ1-qualified discharge whose data input arrives after φ1 fell,
	// on a non-storage node: a missed evaluate window.
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	sig := b.Input("late")
	dyn := b.PrechargedNode(phi2)
	b.DischargeBranch(dyn, phi1, sig)
	nl, m := pipeline(b)
	s := sched()
	res, err := Analyze(context.Background(), nl, m, s, Options{InputTime: map[string]float64{"late": s.Fall(1) + 1}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Checks {
		if c.Kind == CheckMissedWindow && c.Node == dyn {
			found = true
			if c.OK {
				t.Error("missed window must be a violation")
			}
		}
	}
	if !found {
		t.Fatal("expected a missed-window check")
	}
}

func TestDeadPathCheck(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	out := b.Fresh("out")
	out.Flags |= netlist.FlagOutput
	b.DischargeBranch(out, phi1, phi2)
	nl, m := pipeline(b)
	res := analyze(t, nl, m, sched())
	found := false
	for _, c := range res.Checks {
		if c.Kind == CheckDeadPath {
			found = true
		}
	}
	if !found {
		t.Fatal("series φ1·φ2 path must produce a dead-path check")
	}
}

func TestCombinationalLoopFlagged(t *testing.T) {
	// Cross-coupled NORs (an unclocked RS latch) form a divergent
	// arrival cycle; the analyzer must flag it rather than hang.
	b := gen.New("t", tech.Default())
	s := b.Input("s")
	r := b.Input("r")
	q := b.Fresh("q")
	qb := b.Fresh("qb")
	// q = NOR(r, qb): build manually to wire the feedback.
	b.NL.AddTransistor(netlist.Dep, q, b.NL.VDD, q, 4, 8)
	b.NL.AddTransistor(netlist.Enh, r, q, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Enh, qb, q, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Dep, qb, b.NL.VDD, qb, 4, 8)
	b.NL.AddTransistor(netlist.Enh, s, qb, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Enh, q, qb, b.NL.GND, 8, 4)
	nl, m := pipeline(b)
	res := analyze(t, nl, m, sched())
	loops := 0
	for _, c := range res.Checks {
		if c.Kind == CheckLoop {
			loops++
		}
	}
	if loops == 0 {
		t.Fatal("cross-coupled NOR pair must be flagged as a loop")
	}
}

func TestMinPeriodBracketsTransition(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	in := b.Input("in")
	_, q1 := b.Latch(phi1, in)
	b.Latch(phi2, b.InvChain(q1, 4))
	nl, m := pipeline(b)
	base := clocks.TwoPhase(500, 0.8)

	T, res, err := MinPeriod(context.Background(), nl, m, base, Options{}, 0.1, 500, 0.01)
	if err != nil {
		t.Fatalf("MinPeriod: %v", err)
	}
	if !passes(res) {
		t.Fatal("result at Tmin must pass")
	}
	below, err := Analyze(context.Background(), nl, m, base.WithPeriod(T*0.9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if passes(below) {
		t.Errorf("10%% below Tmin=%g still passes; search too loose", T)
	}

	// An upper bound below Tmin must report ErrNoPeriod.
	if _, _, err := MinPeriod(context.Background(), nl, m, base, Options{}, 0.01, T/2, 0.01); err != ErrNoPeriod {
		t.Errorf("MinPeriod with hi < Tmin: err = %v, want ErrNoPeriod", err)
	}
}

func TestPathReconstruction(t *testing.T) {
	b := gen.New("t", tech.Default())
	in := b.Input("in")
	out := b.Output(b.InvChain(in, 4))
	nl, m := pipeline(b)
	res := analyze(t, nl, m, sched())

	pol := Rise
	if res.FallAt.At(out.Index) > res.RiseAt.At(out.Index) {
		pol = Fall
	}
	steps := res.Path(out, pol)
	if len(steps) != 5 { // in + 4 inverters
		t.Fatalf("path length = %d, want 5", len(steps))
	}
	if steps[0].Node != in {
		t.Errorf("path must start at the input, got %s", steps[0].Node)
	}
	if steps[len(steps)-1].Node != out {
		t.Errorf("path must end at the output, got %s", steps[len(steps)-1].Node)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Time < steps[i-1].Time {
			t.Error("path times must be non-decreasing")
		}
		if steps[i].Pol == steps[i-1].Pol {
			t.Error("inverter chain path must alternate polarity")
		}
	}
	if FormatPath(steps) == "" || FormatPath(nil) != "(no path)" {
		t.Error("FormatPath output wrong")
	}
}

func TestStaticDesign(t *testing.T) {
	// No inputs, no clocks: everything is static.
	b := gen.New("t", tech.Default())
	dangling := b.Fresh("x")
	b.Inverter(dangling)
	nl, m := pipeline(b)
	res := analyze(t, nl, m, sched())
	n, s := res.MaxSettle()
	if n != nil || !math.IsInf(s, -1) {
		t.Errorf("static design MaxSettle = %v @ %g, want none", n, s)
	}
	if res.CriticalPath() != nil {
		t.Error("static design has no critical path")
	}
	if p := res.Path(dangling, Rise); p != nil {
		t.Error("Path of a static node must be nil")
	}
	if _, ok := res.MinSlack(); ok {
		t.Error("static design has no slack checks")
	}
}

func TestInputTimeShiftsArrivals(t *testing.T) {
	b := gen.New("t", tech.Default())
	in := b.Input("in")
	out := b.Output(b.InvChain(in, 2))
	nl, m := pipeline(b)

	r0 := analyze(t, nl, m, sched())
	r5, err := Analyze(context.Background(), nl, m, sched(), Options{InputTime: map[string]float64{"in": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((r5.Settle(out)-r0.Settle(out))-5) > 1e-9 {
		t.Errorf("shifting the input by 5 must shift the output by 5: %g vs %g",
			r0.Settle(out), r5.Settle(out))
	}

	rd, err := Analyze(context.Background(), nl, m, sched(), Options{DefaultInputTime: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((rd.Settle(out)-r0.Settle(out))-7) > 1e-9 {
		t.Error("DefaultInputTime must shift unlisted inputs")
	}
}

func TestAnalyzeRejectsBadSchedule(t *testing.T) {
	b := gen.New("t", tech.Default())
	b.Inverter(b.Input("in"))
	nl, m := pipeline(b)
	if _, err := Analyze(context.Background(), nl, m, clocks.Schedule{}, Options{}); err == nil {
		t.Fatal("zero schedule must be rejected")
	}
}

func TestDeterminism(t *testing.T) {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 4, ShiftAmounts: 2})
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{})
	s := clocks.TwoPhase(2000, 0.8)
	a := analyze(t, nl, m, s)
	c := analyze(t, nl, m, s)
	for i := range a.RiseAt.Len() {
		if a.RiseAt.At(i) != c.RiseAt.At(i) || a.FallAt.At(i) != c.FallAt.At(i) {
			t.Fatalf("arrivals differ between identical runs at node %d", i)
		}
	}
	if len(a.Checks) != len(c.Checks) {
		t.Fatal("check lists differ between identical runs")
	}
	for i := range a.Checks {
		if a.Checks[i] != c.Checks[i] {
			t.Fatalf("check %d differs between runs", i)
		}
	}
}

func TestChecksSortedViolationsFirst(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	in := b.Input("in")
	_, q1 := b.Latch(phi1, in)
	b.Latch(phi2, b.InvChain(q1, 8))
	nl, m := pipeline(b)
	res := analyze(t, nl, m, clocks.TwoPhase(10, 0.8))
	sawOK := false
	for _, c := range res.Checks {
		if c.OK {
			sawOK = true
		} else if sawOK {
			t.Fatal("violations must sort before passing checks")
		}
	}
}

func TestCaseAnalysisKillsFalsePath(t *testing.T) {
	// A two-way pass mux: the slow leg routes through a long inverter
	// chain. Statically both legs count; holding the slow leg's select
	// low removes it — TV's false-path elimination.
	build := func(setLow []string) float64 {
		b := gen.New("t", tech.Default())
		fast := b.Input("fast")
		slow := b.Input("slow")
		sel := b.Input("sel")
		selB := b.Input("selb")
		slowEnd := b.InvChain(slow, 10)
		out := b.Output(b.Mux2(sel, selB, fast, slowEnd))
		nl := b.Finish()
		st := stage.Extract(nl)
		flow.Analyze(nl)
		m := delay.Build(nl, st, tech.Default(), delay.Options{SetLow: setLow})
		res, err := Analyze(context.Background(), nl, m, sched(), Options{SetLow: setLow})
		if err != nil {
			t.Fatal(err)
		}
		return res.Settle(out)
	}
	both := build(nil)
	fastOnly := build([]string{"selb"})
	if !(fastOnly < both/2) {
		t.Fatalf("case analysis should remove the slow leg: both=%g fastOnly=%g", both, fastOnly)
	}
}

func TestCaseAnalysisForcedNodeStatic(t *testing.T) {
	b := gen.New("t", tech.Default())
	in := b.Input("in")
	out := b.Output(b.Inverter(in))
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, tech.Default(), delay.Options{SetHigh: []string{"in"}})
	res, err := Analyze(context.Background(), nl, m, sched(), Options{SetHigh: []string{"in"}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Settle(out), -1) {
		t.Errorf("a gate fed only by a constant must be static, settle = %g", res.Settle(out))
	}
}

// TestAnalyzeRejectsUnknownCaseNames: a case constant or an input time
// that names no node — a misspelling, or an alias such as "VDD" that the
// netlist binds to the supply "vdd" — fails the analysis, from scratch
// and incremental alike, with an Invalid error naming it and its option,
// instead of analyzing a different case than the one asked for.
func TestAnalyzeRejectsUnknownCaseNames(t *testing.T) {
	b := gen.New("t", tech.Default())
	b.Output(b.Inverter(b.Input("in")))
	nl, m := pipeline(b)
	if nl.Node("VDD") != nl.VDD || nl.Lookup("VDD") != nl.VDD {
		t.Fatal("VDD must be bound as an alias of the supply")
	}
	prev := analyze(t, nl, m, sched())
	for _, tc := range []struct {
		opt  Options
		want string
	}{
		{Options{SetHigh: []string{"bogus"}}, "core: no such node: SetHigh bogus"},
		{Options{SetLow: []string{"VDD"}}, "core: no such node: SetLow VDD"},
		{Options{InputTime: map[string]float64{"nosuch": 1, "in": 2}}, "core: no such node: InputTime nosuch"},
		{Options{SetHigh: []string{"in", "VDD", "VDD"}, SetLow: []string{"bogus"}}, "core: no such node: SetHigh VDD, SetLow bogus"},
	} {
		_, err := Analyze(context.Background(), nl, m, sched(), tc.opt)
		if tverr.KindOf(err) != tverr.Invalid || err.Error() != tc.want {
			t.Errorf("Analyze(%+v): error %v, want Invalid %q", tc.opt, err, tc.want)
		}
		_, _, err = AnalyzeIncremental(context.Background(), nl, m, sched(), tc.opt, prev, nil)
		if tverr.KindOf(err) != tverr.Invalid || err.Error() != tc.want {
			t.Errorf("AnalyzeIncremental(%+v): error %v, want Invalid %q", tc.opt, err, tc.want)
		}
	}
	if _, err := Analyze(context.Background(), nl, m, sched(), Options{SetHigh: []string{"vdd"}, InputTime: map[string]float64{"in": 2}}); err != nil {
		t.Fatalf("own names must resolve: %v", err)
	}
}

func TestCaseAnalysisForcedHighPrecharge(t *testing.T) {
	// An enhancement pullup gated by a forced-high signal behaves as a
	// static pullup: the node can rise via normal inverting arcs.
	b := gen.New("t", tech.Default())
	en := b.Input("en")
	in := b.Input("in")
	out := b.Fresh("out")
	b.NL.AddTransistor(netlist.Enh, en, b.NL.VDD, out, 4, 4)
	b.NL.AddTransistor(netlist.Enh, in, out, b.NL.GND, 8, 4)
	b.Output(out)
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, tech.Default(), delay.Options{SetHigh: []string{"en"}})
	res, err := Analyze(context.Background(), nl, m, sched(), Options{SetHigh: []string{"en"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.RiseAt.At(out.Index), -1) {
		t.Error("forced-high pullup must let the node rise when the input falls")
	}
}

func TestEarlyNeverExceedsLate(t *testing.T) {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 4, ShiftAmounts: 2})
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{})
	res := analyze(t, nl, m, clocks.TwoPhase(2000, 0.8))
	for i := range res.RiseAt.Len() {
		if !math.IsInf(res.RiseAt.At(i), -1) && res.EarlyRise.At(i) > res.RiseAt.At(i)+1e-9 {
			t.Fatalf("node %s: early rise %g exceeds settle %g",
				nl.Nodes[i], res.EarlyRise.At(i), res.RiseAt.At(i))
		}
		if !math.IsInf(res.FallAt.At(i), -1) && res.EarlyFall.At(i) > res.FallAt.At(i)+1e-9 {
			t.Fatalf("node %s: early fall %g exceeds settle %g",
				nl.Nodes[i], res.EarlyFall.At(i), res.FallAt.At(i))
		}
		// A transition that never happens is consistent in both views.
		if math.IsInf(res.RiseAt.At(i), -1) != math.IsInf(res.EarlyRise.At(i), 1) {
			t.Fatalf("node %s: rise existence disagrees between passes", nl.Nodes[i])
		}
	}
}

func TestEarlyShorterPathWins(t *testing.T) {
	// Two converging paths of different depth: the settle time follows
	// the long one, the earliest arrival the short one.
	b := gen.New("t", tech.Default())
	in := b.Input("in")
	short := b.Inverter(in)
	long := b.InvChain(in, 5)
	out := b.Output(b.Nand(short, long))
	nl, m := pipeline(b)
	res := analyze(t, nl, m, sched())
	if !(res.EarlyFall.At(out.Index) < res.FallAt.At(out.Index)) {
		t.Errorf("early fall %g must precede settle fall %g",
			res.EarlyFall.At(out.Index), res.FallAt.At(out.Index))
	}
}

func TestSkewToleranceOnPipeline(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	in := b.Input("in")
	_, q1 := b.Latch(phi1, in)
	b.Latch(phi2, b.InvChain(q1, 4))
	nl, m := pipeline(b)
	s := sched()
	res := analyze(t, nl, m, s)

	tol, ok := res.SkewTolerance()
	if !ok {
		t.Fatal("pipeline must produce race-margin checks")
	}
	if tol <= 0 {
		t.Errorf("non-overlapping clocks must give positive skew tolerance, got %g", tol)
	}
	// The φ2 latch sees data launched at φ1's rise; its previous close
	// was Fall(2)−T. The margin must exceed the raw gap between those
	// clock edges (the data also crosses real logic).
	gap := s.Rise(1) - (s.Fall(2) - s.Period)
	if tol < gap {
		t.Errorf("skew tolerance %g below the clock gap %g", tol, gap)
	}
	// Race checks must not contaminate the setup-slack summary.
	slack, _ := res.MinSlack()
	if slack == tol {
		t.Error("MinSlack must exclude race margins")
	}
}

func TestPhi2LatchDoesNotWrap(t *testing.T) {
	// A φ2 latch must capture same-cycle φ1-launched data; when the
	// logic is too slow for the window, that is a violation — not a
	// silent multicycle reinterpretation.
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	in := b.Input("in")
	_, q1 := b.Latch(phi1, in)
	store2, _ := b.Latch(phi2, b.InvChain(q1, 30))
	nl, m := pipeline(b)
	// Pick a period where the 30-stage chain misses φ2's fall.
	res := analyze(t, nl, m, clocks.TwoPhase(40, 0.8))
	violated := false
	for _, c := range res.Violations() {
		if c.Node == store2 && (c.Kind == CheckLatch || c.Kind == CheckMissedWindow) {
			violated = true
		}
	}
	if !violated {
		t.Fatalf("slow same-cycle data into a φ2 latch must violate; checks: %v", res.Checks[:4])
	}
}

func TestSignalGatedStoragePropagates(t *testing.T) {
	// A storage node behind a non-clock gate (a register-file cell) is
	// transparent while its gate is high: its arrival follows the data,
	// not a clock launch.
	b := gen.New("t", tech.Default())
	word := b.Input("word")
	data := b.Input("data")
	cell := b.Fresh("cell")
	cell.Flags |= netlist.FlagStorage
	b.NL.AddTransistor(netlist.Enh, word, data, cell, 4, 4)
	out := b.Output(b.Inverter(cell))
	nl, m := pipeline(b)
	res := analyze(t, nl, m, sched())
	if math.IsInf(res.Settle(cell), -1) {
		t.Fatal("signal-gated storage must receive arrivals")
	}
	if math.IsInf(res.Settle(out), -1) {
		t.Fatal("logic behind signal-gated storage must be timed")
	}
}

func TestRaceCheckPathReconstructs(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	_, q1 := b.Latch(phi1, b.Input("in"))
	b.Latch(phi2, b.Inverter(q1))
	nl, m := pipeline(b)
	res := analyze(t, nl, m, sched())
	for _, c := range res.Checks {
		if c.Kind == CheckRace {
			if steps := res.CheckPath(c); len(steps) == 0 {
				t.Errorf("race check %v has no path", c)
			}
		}
	}
}

func TestKindAndCheckStrings(t *testing.T) {
	for k := CheckLatch; k <= CheckRace; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "CheckKind(") {
			t.Errorf("kind %d missing name", k)
		}
	}
	c := Check{Kind: CheckLatch, Node: &netlist.Node{Name: "n"}, Slack: -1}
	if !strings.Contains(c.String(), "VIOLATION") {
		t.Error("failing check must print VIOLATION")
	}
	if Rise.String() != "rise" || Fall.String() != "fall" {
		t.Error("polarity names wrong")
	}
}
