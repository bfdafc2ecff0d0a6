package delay

import (
	"math"
	"testing"

	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/rc"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// buildModel runs the full pre-analysis pipeline on a generated circuit.
func buildModel(b *gen.B, opt Options) (*netlist.Netlist, *Model) {
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	return nl, Build(nl, st, tech.Default(), opt)
}

func findEdges(m *Model, from, to *netlist.Node) []Edge {
	var out []Edge
	for _, e := range m.Edges.Slice() {
		if int(e.From) == from.Index && int(e.To) == to.Index {
			out = append(out, e)
		}
	}
	return out
}

func TestNodeCapByHand(t *testing.T) {
	p := tech.Default()
	b := gen.New("t", p)
	in := b.Input("in")
	out := b.Inverter(in)
	nl := b.Finish()
	_ = nl
	// out carries: 0.01 wire + 0.0128 load gate (4×8 µm) + 0.002 load
	// diffusion (W=4) + 0.004 pulldown diffusion (W=8).
	want := 0.01 + 0.0128 + 0.002 + 0.004
	if got := NodeCap(out, p); math.Abs(got-want) > 1e-12 {
		t.Fatalf("NodeCap(out) = %g, want %g", got, want)
	}
	// in carries: 0.01 wire + 0.0128 pulldown gate (8×4 µm).
	wantIn := 0.01 + 0.0128
	if got := NodeCap(in, p); math.Abs(got-wantIn) > 1e-12 {
		t.Fatalf("NodeCap(in) = %g, want %g", got, wantIn)
	}
}

func TestInverterEdgeByHand(t *testing.T) {
	p := tech.Default()
	b := gen.New("t", p)
	in := b.Input("in")
	out := b.Inverter(in)
	nl, m := buildModel(b, Options{})

	edges := findEdges(m, in, out)
	if len(edges) != 1 {
		t.Fatalf("inverter has %d in→out edges, want 1", len(edges))
	}
	e := edges[0]
	if !e.Invert || e.GateArc {
		t.Error("inverter edge must be inverting, not a gate arc")
	}
	cout := NodeCap(out, p)
	// Pulldown: 8/4 µm → 5 kΩ; load: 4/8 µm depletion → 80 kΩ.
	if want := 5 * cout; math.Abs(e.DFall-want) > 1e-9 {
		t.Errorf("DFall = %g, want %g", e.DFall, want)
	}
	if want := 80 * cout; math.Abs(e.DRise-want) > 1e-9 {
		t.Errorf("DRise = %g, want %g", e.DRise, want)
	}
	if e.MaskRise != 0 || e.MaskFall != 0 {
		t.Error("unclocked inverter edges carry no masks")
	}
	_ = nl
}

func TestNandStackElmore(t *testing.T) {
	p := tech.Default()
	b := gen.New("t", p)
	a, c := b.Input("a"), b.Input("b")
	out := b.Nand(a, c)
	nl, m := buildModel(b, Options{})

	ea := findEdges(m, a, out)
	ec := findEdges(m, c, out)
	if len(ea) != 1 || len(ec) != 1 {
		t.Fatalf("nand edges: %d from a, %d from c, want 1 each", len(ea), len(ec))
	}
	// Both series gates see the same worst path: total stack R times the
	// output load plus the remaining R times the internal node cap.
	var nst *netlist.Node
	for _, n := range nl.Nodes {
		if n != out && !n.IsSupply() && len(n.Terms) == 2 && len(n.Gates) == 0 {
			nst = n
		}
	}
	if nst == nil {
		t.Fatal("internal stack node not found")
	}
	// The grounded-source bottom device conducts at REnh; the upper
	// stack member, whose source sits above ground, is charged at the
	// degraded RPass rate (its Role is pass: no supply terminal).
	rTop := p.RPassDevice(16, 4)
	rBot := p.RPulldown(16, 4)
	want := (rTop+rBot)*NodeCap(out, p) + rBot*NodeCap(nst, p)
	if math.Abs(ea[0].DFall-want) > 1e-9 {
		t.Errorf("nand DFall = %g, want %g", ea[0].DFall, want)
	}
	if ea[0].DFall != ec[0].DFall {
		t.Error("both series inputs must see the same worst-case fall")
	}
	// The series stack is slower than a single device discharging the
	// same load.
	if !(ea[0].DFall > rBot*NodeCap(out, p)) {
		t.Error("stack discharge must exceed single-device discharge")
	}
}

func TestPassChainMatchesRCElmore(t *testing.T) {
	p := tech.Default()
	b := gen.New("t", p)
	in := b.Input("in")
	ctrl := b.Input("ctrl")
	const k = 7
	end := b.PassChain(in, ctrl, k)
	nl, m := buildModel(b, Options{})

	// Sum the stepwise pass-arc delays along the chain.
	total := 0.0
	cur := int32(in.Index)
	for cur != int32(end.Index) {
		next := int32(-1)
		var d float64
		for _, e := range m.Edges.Slice() {
			if e.From == cur && !e.Invert && !e.GateArc && e.To != cur {
				next = e.To
				d = e.DRise
				break
			}
		}
		if next < 0 {
			t.Fatal("chain arc missing")
		}
		total += d
		cur = next
	}

	// Reference: an rc.Tree with the same per-node caps.
	tree := rc.New(0)
	parent := 0
	curN := in
	rPass := p.RPassDevice(4, 4)
	for i := 0; i < k; i++ {
		// Find the next chain node by walking the netlist.
		var next *netlist.Node
		for _, tr := range curN.Terms {
			if tr.Role == netlist.RolePass && tr.ConductsToward(tr.Other(curN)) {
				next = tr.Other(curN)
			}
		}
		parent = tree.Add(parent, rPass, NodeCap(next, p))
		curN = next
	}
	want := tree.Elmore(parent)
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("stepwise chain delay %g != rc Elmore %g", total, want)
	}
	_ = nl
}

func TestLatchArcsAndMasks(t *testing.T) {
	p := tech.Default()
	b := gen.New("t", p)
	phi := b.Clock("phi1", 1)
	d := b.Input("d")
	store, _ := b.Latch(phi, d)
	_, m := buildModel(b, Options{})

	data := findEdges(m, d, store)
	if len(data) != 1 {
		t.Fatalf("latch data arcs = %d, want 1", len(data))
	}
	if data[0].MaskRise != MaskPhi1 || data[0].MaskFall != MaskPhi1 {
		t.Errorf("data arc masks = %v/%v, want φ1", data[0].MaskRise, data[0].MaskFall)
	}
	if data[0].GateArc || data[0].Invert {
		t.Error("data arc must be plain pass propagation")
	}

	clk := findEdges(m, phi, store)
	if len(clk) != 1 {
		t.Fatalf("latch clock arcs = %d, want 1", len(clk))
	}
	if !clk[0].GateArc {
		t.Error("clock arc must be a gate arc (launch on clock rise)")
	}
	if clk[0].DRise != data[0].DRise {
		t.Error("clock and data arcs share the pass RC delay")
	}
	_ = p
}

func TestPrechargeArcRiseOnly(t *testing.T) {
	p := tech.Default()
	b := gen.New("t", p)
	phi2 := b.Clock("phi2", 2)
	sig := b.Input("sig")
	dyn := b.PrechargedNode(phi2)
	b.DischargeBranch(dyn, sig)
	_, m := buildModel(b, Options{})

	pre := findEdges(m, phi2, dyn)
	if len(pre) != 1 {
		t.Fatalf("precharge arcs = %d, want 1", len(pre))
	}
	e := pre[0]
	if !e.GateArc || e.Invert {
		t.Error("precharge arc must be a gate arc")
	}
	if !math.IsInf(e.DFall, 1) {
		t.Error("precharge arc must not cause falls")
	}
	if e.MaskRise != MaskPhi2 {
		t.Errorf("precharge mask = %v, want φ2", e.MaskRise)
	}
	// The enhancement pullup has degraded drive: RPass-based delay.
	cdyn := NodeCap(dyn, p)
	if want := p.RPassDevice(8, 4) * cdyn; math.Abs(e.DRise-want) > 1e-9 {
		t.Errorf("precharge DRise = %g, want %g", e.DRise, want)
	}

	// The evaluate arc falls only; it is unmasked (no clock in series).
	ev := findEdges(m, sig, dyn)
	if len(ev) != 1 {
		t.Fatalf("evaluate arcs = %d, want 1", len(ev))
	}
	if ev[0].MaskFall != 0 {
		t.Error("unclocked evaluate path must carry no mask")
	}
	if !math.IsInf(ev[0].DRise, 1) {
		t.Error("a dynamic node with no static pullup cannot rise from data")
	}
}

func TestClockQualifiedPathMask(t *testing.T) {
	p := tech.Default()
	b := gen.New("t", p)
	phi1 := b.Clock("phi1", 1)
	sig := b.Input("sig")
	dyn := b.PrechargedNode(b.Clock("phi2", 2))
	b.DischargeBranch(dyn, phi1, sig)
	_, m := buildModel(b, Options{})

	ev := findEdges(m, sig, dyn)
	if len(ev) != 1 {
		t.Fatalf("evaluate arcs = %d, want 1", len(ev))
	}
	if ev[0].MaskFall != MaskPhi1 {
		t.Errorf("clock-qualified fall mask = %v, want φ1", ev[0].MaskFall)
	}
	_ = p
}

func TestDeadPathBothPhases(t *testing.T) {
	b := gen.New("t", tech.Default())
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	out := b.Fresh("out")
	out.Flags |= netlist.FlagOutput
	b.DischargeBranch(out, phi1, phi2)
	_, m := buildModel(b, Options{})
	found := false
	for _, e := range m.Edges.Slice() {
		if e.MaskFall == MaskPhi1|MaskPhi2 {
			found = true
		}
	}
	if !found {
		t.Error("series φ1·φ2 path must carry both mask bits")
	}
}

func TestFlowAblationAddsArcs(t *testing.T) {
	build := func(useFlow bool) int {
		p := tech.Default()
		b := gen.New("t", p)
		in := b.Input("in")
		b.Output(b.PassChain(b.Inverter(in), b.Input("ctrl"), 5))
		nl := b.Finish()
		st := stage.Extract(nl)
		if useFlow {
			flow.Analyze(nl)
		} else {
			flow.Reset(nl)
		}
		return Build(nl, st, p, Options{}).Edges.Len()
	}
	with, without := build(true), build(false)
	if !(without > with) {
		t.Fatalf("bidirectional treatment must add arcs: with=%d without=%d", with, without)
	}
}

func TestTruncationCounter(t *testing.T) {
	// A dense unoriented pass mesh with pulldowns and a tiny step
	// budget must hit the truncation counter, not hang.
	p := tech.Default()
	b := gen.New("t", p)
	var nodes []*netlist.Node
	for i := 0; i < 8; i++ {
		n := b.Fresh("m")
		n.Flags |= netlist.FlagOutput
		nodes = append(nodes, n)
	}
	g := b.Input("g")
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			b.NL.AddTransistor(netlist.Enh, g, nodes[i], nodes[j], 4, 4)
		}
	}
	b.NL.AddTransistor(netlist.Enh, g, nodes[0], b.NL.GND, 8, 4)
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Reset(nl)
	m := Build(nl, st, p, Options{MaxSteps: 50})
	if m.Truncated == 0 {
		t.Error("tiny step budget on a dense mesh must truncate")
	}
}

func TestMergeDelay(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct{ a, b, want float64 }{
		{inf, 3, 3},
		{3, inf, 3},
		{inf, inf, inf},
		{2, 5, 5},
		{5, 2, 5},
	}
	for _, c := range cases {
		if got := mergeDelay(c.a, c.b); got != c.want {
			t.Errorf("mergeDelay(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDeviceRRoles(t *testing.T) {
	p := tech.Default()
	nl := netlist.New("t")
	g, a := nl.Node("g"), nl.Node("a")
	dep := nl.AddTransistor(netlist.Dep, a, nl.VDD, a, 4, 8)
	pd := nl.AddTransistor(netlist.Enh, g, a, nl.GND, 8, 4)
	pass := nl.AddTransistor(netlist.Enh, g, a, nl.Node("b"), 4, 4)
	preq := nl.AddTransistor(netlist.Enh, g, nl.VDD, a, 4, 4)
	nl.Finalize()
	if got := DeviceR(dep, p); got != p.RLoad(4, 8) {
		t.Error("depletion load resistance wrong")
	}
	if got := DeviceR(pd, p); got != p.RPulldown(8, 4) {
		t.Error("pulldown resistance wrong")
	}
	if got := DeviceR(pass, p); got != p.RPassDevice(4, 4) {
		t.Error("pass resistance wrong")
	}
	if got := DeviceR(preq, p); got != p.RPassDevice(4, 4) {
		t.Error("enhancement pullup must use degraded drive")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	p := tech.Default()
	build := func() *Model {
		nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
		st := stage.Extract(nl)
		flow.Analyze(nl)
		return Build(nl, st, p, Options{})
	}
	a, c := build(), build()
	if a.Edges.Len() != c.Edges.Len() {
		t.Fatalf("edge counts differ: %d vs %d", a.Edges.Len(), c.Edges.Len())
	}
	for i := range a.Edges.Len() {
		ea, eb := a.Edges.At(i), c.Edges.At(i)
		if ea.From != eb.From || ea.To != eb.To ||
			ea.DRise != eb.DRise || ea.DFall != eb.DFall {
			t.Fatalf("edge %d differs between identical builds", i)
		}
	}
}

func TestGateArcIncludesDriverSource(t *testing.T) {
	// A latch whose data input is a restored gate output: opening the
	// pass must charge the store through the driver, so the clock arc's
	// delay exceeds the bare pass step (which the data arc uses).
	p := tech.Default()
	b := gen.New("t", p)
	phi := b.Clock("phi1", 1)
	driver := b.Inverter(b.Input("in"))
	store, _ := b.Latch(phi, driver)
	_, m := buildModel(b, Options{})

	data := findEdges(m, driver, store)
	clk := findEdges(m, phi, store)
	if len(data) != 1 || len(clk) != 1 {
		t.Fatalf("arcs: %d data, %d clock; want 1 each", len(data), len(clk))
	}
	if !(clk[0].DFall > data[0].DFall) {
		t.Errorf("clock arc fall %g must exceed the bare pass step %g (driver pulldown)",
			clk[0].DFall, data[0].DFall)
	}
	if !(clk[0].DRise > data[0].DRise) {
		t.Errorf("clock arc rise %g must exceed the bare pass step %g (driver pullup)",
			clk[0].DRise, data[0].DRise)
	}
	// The rise excess is the slow depletion pullup; fall excess the
	// pulldown: rise excess must be larger.
	riseExcess := clk[0].DRise - data[0].DRise
	fallExcess := clk[0].DFall - data[0].DFall
	if !(riseExcess > fallExcess) {
		t.Errorf("driver rise source %g should exceed fall source %g", riseExcess, fallExcess)
	}
}

func TestSourceDelayAccumulatesAlongChain(t *testing.T) {
	// Gate arcs deeper in a pass chain include the whole upstream path.
	p := tech.Default()
	b := gen.New("t", p)
	in := b.Input("in")
	ctrl := b.Input("ctrl")
	end := b.PassChain(in, ctrl, 4)
	nl, m := buildModel(b, Options{})
	var first, last *netlist.Node
	for _, n := range nl.Nodes {
		if n.Name == "pch_1" {
			first = n
		}
	}
	last = end
	gFirst := findEdges(m, ctrl, first)
	gLast := findEdges(m, ctrl, last)
	if len(gFirst) != 1 || len(gLast) != 1 {
		t.Fatalf("gate arcs missing: %d, %d", len(gFirst), len(gLast))
	}
	if !(gLast[0].DRise > gFirst[0].DRise) {
		t.Errorf("deep gate arc %g must exceed shallow %g", gLast[0].DRise, gFirst[0].DRise)
	}
}
