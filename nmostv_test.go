package nmostv_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"nmostv"
	"nmostv/internal/gen"
	"nmostv/internal/tverr"
)

func TestInverterChainPipeline(t *testing.T) {
	p := nmostv.DefaultParams()
	b := gen.New("chain", p)
	in := b.Input("in")
	out := b.Output(b.InvChain(in, 6))
	nl := b.Finish()

	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
	res, err := d.Analyze(nmostv.TwoPhase(200, 0.8), nmostv.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	s := res.Settle(out)
	if math.IsInf(s, -1) || s <= 0 {
		t.Fatalf("output settle = %v, want positive finite", s)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// Each inverter adds delay; settle through 6 stages must exceed the
	// settle through 1.
	one := res.Settle(nl.Lookup("inv_1"))
	if !(s > one) {
		t.Fatalf("6-stage settle %v not greater than 1-stage settle %v", s, one)
	}
	path := res.CriticalPath()
	if len(path) < 3 {
		t.Fatalf("critical path too short: %v", path)
	}
}

func TestLatchedPipelineChecks(t *testing.T) {
	p := nmostv.DefaultParams()
	b := gen.New("pipe", p)
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	in := b.Input("in")
	out := b.Output(b.ShiftRegister(in, phi1, phi2, 3))
	nl := b.Finish()

	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
	res, err := d.Analyze(nmostv.TwoPhase(100, 0.8), nmostv.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("generous period should pass, got violations: %v", v)
	}
	if len(res.Checks) == 0 {
		t.Fatal("expected latch checks on a clocked pipeline")
	}
	if math.IsInf(res.Settle(out), -1) {
		t.Fatal("output never settles")
	}

	// An absurdly fast clock must produce violations.
	resFast, err := d.Analyze(nmostv.TwoPhase(0.05, 0.8), nmostv.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze fast: %v", err)
	}
	if len(resFast.Violations()) == 0 {
		t.Fatal("50ps cycle should violate timing")
	}

	// MinPeriod must find a passing period between the two.
	T, resMin, err := d.MinPeriod(nmostv.TwoPhase(100, 0.8), nmostv.AnalyzeOptions{}, 0.05, 100, 0.01)
	if err != nil {
		t.Fatalf("MinPeriod: %v", err)
	}
	if !(T > 0.05 && T <= 100) {
		t.Fatalf("MinPeriod = %v out of range", T)
	}
	if len(resMin.Violations()) != 0 {
		t.Fatalf("MinPeriod result still violates: %v", resMin.Violations())
	}
}

func TestMIPSDatapathAnalyzes(t *testing.T) {
	p := nmostv.DefaultParams()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 4, ShiftAmounts: 2})
	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
	res, err := d.Analyze(nmostv.TwoPhase(2000, 0.8), nmostv.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("violations at generous period: %v", v[:min(4, len(v))])
	}
	n, s := res.MaxSettle()
	if n == nil || math.IsInf(s, -1) {
		t.Fatal("no settling activity in datapath")
	}
	if len(res.CriticalPath()) < 2 {
		t.Fatal("no critical path at generous period")
	}

	// At the minimum period the binding constraint is the ALU data path
	// into the result latches — a long multi-arc path.
	_, resMin, err := d.MinPeriod(nmostv.TwoPhase(2000, 0.8), nmostv.AnalyzeOptions{}, 1, 2000, 0.1)
	if err != nil {
		t.Fatalf("MinPeriod: %v", err)
	}
	path := resMin.CriticalPath()
	if len(path) < 6 {
		t.Fatalf("datapath critical path at min period suspiciously short: %d steps\n%s",
			len(path), nmostv.FormatPath(path))
	}
}

func TestSimRoundTrip(t *testing.T) {
	p := nmostv.DefaultParams()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 4, Words: 2, ShiftAmounts: 2})
	var buf bytes.Buffer
	if err := nmostv.WriteSim(&buf, nl); err != nil {
		t.Fatalf("WriteSim: %v", err)
	}
	text := buf.String()
	d, err := nmostv.LoadSim(strings.NewReader(text), "roundtrip", p)
	if err != nil {
		t.Fatalf("LoadSim: %v", err)
	}
	if got, want := len(d.NL.Trans), len(nl.Trans); got != want {
		t.Fatalf("transistor count after round trip: got %d want %d", got, want)
	}
	res, err := d.Analyze(nmostv.TwoPhase(2000, 0.8), nmostv.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("round-tripped design violates: %v", v[:min(4, len(v))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFacadeERCAndCharge(t *testing.T) {
	p := nmostv.DefaultParams()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
	if findings := d.CheckERC(); len(findings) != 0 {
		t.Errorf("generated datapath must be ERC-clean: %v", findings)
	}
	ch := d.CheckCharge()
	if len(ch) == 0 {
		t.Fatal("datapath has dynamic nodes to analyze")
	}
	if hz := nmostv.ChargeHazards(ch); len(hz) != 0 {
		t.Errorf("unexpected charge hazards: %v", hz)
	}
}

func TestFacadeAnalyzeCase(t *testing.T) {
	p := nmostv.DefaultParams()
	b := gen.New("case", p)
	fast := b.Input("fast")
	slow := b.Input("slow")
	sel := b.Input("sel")
	selB := b.Input("selb")
	out := b.Output(b.Mux2(sel, selB, fast, b.InvChain(slow, 8)))
	nl := b.Finish()

	both, err := nmostv.AnalyzeCase(nl, p, nmostv.TwoPhase(200, 0.8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fastOnly, err := nmostv.AnalyzeCase(nl, p, nmostv.TwoPhase(200, 0.8), nil, []string{"selb"})
	if err != nil {
		t.Fatal(err)
	}
	if !(fastOnly.Settle(out) < both.Settle(out)) {
		t.Errorf("case analysis must remove the slow leg: %g vs %g",
			fastOnly.Settle(out), both.Settle(out))
	}
}

// TestAnalyzeCaseRejectsUnknownNames: a case that names no node — a
// misspelling, or the supply alias "VDD" bound by the netlist — is an
// Invalid error through both facade entry points, not a silently
// different case.
func TestAnalyzeCaseRejectsUnknownNames(t *testing.T) {
	p := nmostv.DefaultParams()
	b := gen.New("case", p)
	b.Output(b.Inverter(b.Input("in")))
	nl := b.Finish()
	if nl.Node("VDD") != nl.VDD {
		t.Fatal("VDD must be bound as an alias of the supply")
	}
	sched := nmostv.TwoPhase(200, 0.8)
	for _, tc := range []struct {
		high, low []string
		want      string
	}{
		{[]string{"bogus"}, nil, "SetHigh bogus"},
		{nil, []string{"VDD"}, "SetLow VDD"},
	} {
		if _, err := nmostv.AnalyzeCase(nl, p, sched, tc.high, tc.low); tverr.KindOf(err) != tverr.Invalid || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Errorf("AnalyzeCase(%v, %v): error %v, want Invalid naming %q", tc.high, tc.low, err, tc.want)
		}
		d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{SetHigh: tc.high, SetLow: tc.low})
		if _, err := d.Analyze(sched, nmostv.AnalyzeOptions{SetHigh: tc.high, SetLow: tc.low}); tverr.KindOf(err) != tverr.Invalid || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Errorf("Design.Analyze(%v, %v): error %v, want Invalid naming %q", tc.high, tc.low, err, tc.want)
		}
	}
}

func TestLoadSimFileError(t *testing.T) {
	if _, err := nmostv.LoadSimFile("/nonexistent/file.sim", nmostv.DefaultParams()); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestSkewToleranceExposed(t *testing.T) {
	p := nmostv.DefaultParams()
	b := gen.New("pipe", p)
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	_, q := b.Latch(phi1, b.Input("in"))
	b.Latch(phi2, b.Inverter(q))
	nl := b.Finish()
	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
	res, err := d.Analyze(nmostv.TwoPhase(100, 0.8), nmostv.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tol, ok := res.SkewTolerance(); !ok || tol <= 0 {
		t.Errorf("skew tolerance = %v, %v; want positive", tol, ok)
	}
}

func TestTutorialSimFile(t *testing.T) {
	p := nmostv.DefaultParams()
	d, err := nmostv.LoadSimFile("testdata/tutorial.sim", p)
	if err != nil {
		t.Fatalf("LoadSimFile: %v", err)
	}
	stats := d.NL.ComputeStats()
	if stats.Transistors != 16 {
		t.Fatalf("tutorial has %d transistors, want 16", stats.Transistors)
	}
	if stats.Clocks != 2 || stats.Inputs != 2 || stats.Outputs != 1 || stats.Precharged != 1 {
		t.Fatalf("annotations parsed wrong: %+v", stats)
	}
	res, err := d.Analyze(nmostv.TwoPhase(100, 0.8), nmostv.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("tutorial circuit violates at 100 ns: %v", v)
	}
	out := d.NL.Lookup("dout")
	if math.IsInf(res.Settle(out), -1) {
		t.Fatal("tutorial output never settles")
	}
	if tol, ok := res.SkewTolerance(); !ok || tol <= 0 {
		t.Fatalf("tutorial skew tolerance = %v, %v", tol, ok)
	}
	if findings := d.CheckERC(); len(findings) != 0 {
		t.Fatalf("tutorial must be ERC-clean: %v", findings)
	}
	T, _, err := d.MinPeriod(nmostv.TwoPhase(100, 0.8), nmostv.AnalyzeOptions{}, 0.5, 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(T > 0.5 && T < 100) {
		t.Fatalf("tutorial min period = %g", T)
	}
}
