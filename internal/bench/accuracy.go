package bench

import (
	"fmt"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/report"
	"nmostv/internal/sim"
	"nmostv/internal/tech"
)

// AccCase is one analyzer-vs-simulator comparison: a circuit, a stimulus
// that exercises a specific output transition, and the polarity to compare.
type AccCase struct {
	Name string
	Pol  core.Polarity
	// Build constructs the circuit and returns the observed output.
	Build func(b *gen.B) *netlist.Node
	// Setup drives the initial vector (the harness quiesces after).
	Setup func(s *sim.Sim, nl *netlist.Netlist)
	// Stim applies the final input change whose response is measured.
	Stim func(s *sim.Sim, nl *netlist.Netlist)
}

// AccRow is one measured comparison.
type AccRow struct {
	Name string
	Pol  core.Polarity
	// TV is the static analyzer's worst-case arrival (ns from input
	// change at t=0).
	TV float64
	// Sim is the switch-level simulator's measured transition time (ns
	// from the stimulus).
	Sim float64
}

// Ratio is TV/Sim, the conservatism factor.
func (r AccRow) Ratio() float64 { return r.TV / r.Sim }

// AccuracyCases returns the T3 comparison set: one representative path per
// nMOS circuit idiom.
func AccuracyCases() []AccCase {
	set := func(s *sim.Sim, nl *netlist.Netlist, name string, v sim.Value) {
		s.Set(nl.Lookup(name), v)
	}
	return []AccCase{
		{
			Name: "invchain8", Pol: core.Rise,
			Build: func(b *gen.B) *netlist.Node {
				return b.InvChain(b.Input("in"), 8)
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "in", sim.V0) },
			Stim:  func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "in", sim.V1) },
		},
		{
			Name: "invchain8", Pol: core.Fall,
			Build: func(b *gen.B) *netlist.Node {
				return b.InvChain(b.Input("in"), 8)
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "in", sim.V1) },
			Stim:  func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "in", sim.V0) },
		},
		{
			Name: "nand4", Pol: core.Fall,
			Build: func(b *gen.B) *netlist.Node {
				return b.Nand(b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"))
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) {
				for _, n := range []string{"a", "b", "c"} {
					set(s, nl, n, sim.V1)
				}
				set(s, nl, "d", sim.V0)
			},
			Stim: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "d", sim.V1) },
		},
		{
			Name: "nand4", Pol: core.Rise,
			Build: func(b *gen.B) *netlist.Node {
				return b.Nand(b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"))
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) {
				for _, n := range []string{"a", "b", "c", "d"} {
					set(s, nl, n, sim.V1)
				}
			},
			Stim: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "d", sim.V0) },
		},
		{
			Name: "nor4", Pol: core.Fall,
			Build: func(b *gen.B) *netlist.Node {
				return b.Nor(b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"))
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) {
				for _, n := range []string{"a", "b", "c", "d"} {
					set(s, nl, n, sim.V0)
				}
			},
			Stim: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "a", sim.V1) },
		},
		{
			Name: "nor4", Pol: core.Rise,
			Build: func(b *gen.B) *netlist.Node {
				return b.Nor(b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"))
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) {
				set(s, nl, "a", sim.V1)
				for _, n := range []string{"b", "c", "d"} {
					set(s, nl, n, sim.V0)
				}
			},
			Stim: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "a", sim.V0) },
		},
		{
			Name: "passchain8", Pol: core.Rise,
			Build: func(b *gen.B) *netlist.Node {
				return b.PassChain(b.Input("in"), b.Input("ctrl"), 8)
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) {
				set(s, nl, "ctrl", sim.V1)
				set(s, nl, "in", sim.V0)
			},
			Stim: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "in", sim.V1) },
		},
		{
			Name: "aoi-carry", Pol: core.Fall,
			Build: func(b *gen.B) *netlist.Node {
				a, c, cin := b.Input("a"), b.Input("b"), b.Input("cin")
				return b.AOI(
					[]*netlist.Node{a, c},
					[]*netlist.Node{a, cin},
					[]*netlist.Node{c, cin},
				)
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) {
				set(s, nl, "a", sim.V1)
				set(s, nl, "b", sim.V0)
				set(s, nl, "cin", sim.V0)
			},
			Stim: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "cin", sim.V1) },
		},
		{
			Name: "superbuffer", Pol: core.Fall,
			Build: func(b *gen.B) *netlist.Node {
				out := b.Superbuffer(b.Input("in"))
				out.Cap += 0.5 // the big load a superbuffer exists to drive
				return out
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "in", sim.V0) },
			Stim:  func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "in", sim.V1) },
		},
		{
			Name: "dynamic-bus", Pol: core.Fall,
			Build: func(b *gen.B) *netlist.Node {
				pre := b.Input("pre")
				sig := b.Input("sig")
				en := b.Input("en")
				dyn := b.PrechargedNode(pre)
				b.DischargeBranch(dyn, en, sig)
				return dyn
			},
			Setup: func(s *sim.Sim, nl *netlist.Netlist) {
				set(s, nl, "sig", sim.V0)
				set(s, nl, "en", sim.V1)
				set(s, nl, "pre", sim.V1)
				s.Quiesce()
				set(s, nl, "pre", sim.V0)
			},
			Stim: func(s *sim.Sim, nl *netlist.Netlist) { set(s, nl, "sig", sim.V1) },
		},
	}
}

// MeasureAccuracy runs every comparison case and returns the rows.
func MeasureAccuracy() []AccRow {
	p := tech.Default()
	var rows []AccRow
	for _, c := range AccuracyCases() {
		// Static analysis: inputs at t=0, no clocks involved.
		b := gen.New(c.Name, p)
		out := b.Output(c.Build(b))
		nl := b.Finish()
		pr := prepare(nl, p, true)
		res, _ := pr.analyze(genericSchedule())
		tv := res.RiseAt.At(out.Index)
		if c.Pol == core.Fall {
			tv = res.FallAt.At(out.Index)
		}

		// Simulation of the same transition.
		b2 := gen.New(c.Name, p)
		out2 := b2.Output(c.Build(b2))
		nl2 := b2.Finish()
		s := sim.New(nl2, nil, p)
		c.Setup(s, nl2)
		s.Quiesce()
		before := s.Value(out2)
		t0 := s.Now()
		c.Stim(s, nl2)
		s.Quiesce()
		after := s.Value(out2)
		if before == after {
			panic(fmt.Sprintf("bench T3 %s/%s: stimulus did not flip the output (%v)",
				c.Name, c.Pol, after))
		}
		rows = append(rows, AccRow{
			Name: c.Name, Pol: c.Pol,
			TV:  tv,
			Sim: s.LastChange(out2) - t0,
		})
	}
	return rows
}

// CheckConservatism returns an error naming the first row where the static
// analyzer under-predicts the simulator — the invariant T3 verifies.
func CheckConservatism(rows []AccRow) error {
	const tolerance = 1e-9
	for _, r := range rows {
		if r.TV+tolerance < r.Sim {
			return fmt.Errorf("bench: %s/%s: TV %.6g < sim %.6g (not conservative)",
				r.Name, r.Pol, r.TV, r.Sim)
		}
	}
	return nil
}

// RunT3 renders the accuracy comparison table.
func RunT3() *Report {
	rows := MeasureAccuracy()
	tab := report.NewTable("Table T3 — static analysis vs switch-level simulation",
		"path", "transition", "TV (ns)", "sim (ns)", "TV/sim")
	sum, n := 0.0, 0
	for _, r := range rows {
		tab.Add(r.Name, r.Pol.String(), r.TV, r.Sim, r.Ratio())
		sum += r.Ratio()
		n++
	}
	notes := fmt.Sprintf("mean conservatism TV/sim = %.3f over %d paths.\n", sum/float64(n), n)
	if err := CheckConservatism(rows); err != nil {
		notes += "INVARIANT VIOLATED: " + err.Error() + "\n"
	} else {
		notes += "conservatism invariant holds: TV ≥ sim on every path.\n"
	}
	return &Report{ID: "T3", Title: "Accuracy vs switch-level simulation",
		Sections: []string{tab.String(), notes}}
}
