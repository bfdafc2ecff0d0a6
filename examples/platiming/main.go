// platiming: control-logic timing — build a NOR-NOR PLA, verify its logic
// function against the switch-level simulator for every input vector, and
// report the static per-output worst-case delays with their critical
// paths. PLAs generated the control signals of every 1983 chip; their
// input-to-output delay gated when control could be trusted within a
// phase.
package main

import (
	"fmt"
	"log"

	"nmostv"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/report"
	"nmostv/internal/sim"
)

// Personality: 3 inputs, 5 products, 3 outputs (a tiny opcode decoder).
//
//	p0 = a·b̄    p1 = ā·c    p2 = b·c    p3 = ā·b̄·c̄    p4 = a·c
//	out0 = p0 + p2, out1 = p1 + p3, out2 = p4
var (
	andPlane = [][]int{
		{1, -1, 0},
		{-1, 0, 1},
		{0, 1, 1},
		{-1, -1, -1},
		{1, 0, 1},
	}
	orPlane = [][]int{{0, 2}, {1, 3}, {4}}
)

// reference computes the PLA function in software.
func reference(a, b, c bool) [3]bool {
	p0 := a && !b
	p1 := !a && c
	p2 := b && c
	p3 := !a && !b && !c
	p4 := a && c
	return [3]bool{p0 || p2, p1 || p3, p4}
}

func main() {
	p := nmostv.DefaultParams()
	b := gen.New("pladecode", p)
	ins := []*netlist.Node{b.Input("a"), b.Input("b"), b.Input("c")}
	outs := b.PLA(ins, andPlane, orPlane)
	for _, o := range outs {
		b.Output(o)
	}
	nl := b.Finish()
	stats := nl.ComputeStats()
	fmt.Printf("%s: %d transistors, %d nodes\n\n", nl.Name, stats.Transistors, stats.Nodes)

	// Functional verification: simulate all 8 input vectors.
	s := sim.New(nl, nil, p)
	toV := func(x bool) sim.Value {
		if x {
			return sim.V1
		}
		return sim.V0
	}
	fails := 0
	for v := 0; v < 8; v++ {
		a, bb, c := v&1 != 0, v&2 != 0, v&4 != 0
		s.Set(ins[0], toV(a))
		s.Set(ins[1], toV(bb))
		s.Set(ins[2], toV(c))
		s.Quiesce()
		want := reference(a, bb, c)
		for i, o := range outs {
			got := s.Value(o)
			if got != toV(want[i]) {
				fmt.Printf("MISMATCH in=%d%d%d out%d: got %v want %v\n",
					b2i(a), b2i(bb), b2i(c), i, got, toV(want[i]))
				fails++
			}
		}
	}
	if fails == 0 {
		fmt.Println("switch-level simulation matches the reference truth table on all 8 vectors")
	}

	// Static timing: per-output worst-case settle.
	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
	res, err := d.Analyze(nmostv.TwoPhase(1000, 0.8), nmostv.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tab := report.NewTable("\nper-output worst-case delay (inputs change at t=0)",
		"output", "rise (ns)", "fall (ns)", "settle (ns)")
	var worst *nmostv.Node
	worstT := -1.0
	for _, o := range outs {
		st := res.Settle(o)
		tab.Add(o.Name, res.RiseAt.At(o.Index), res.FallAt.At(o.Index), st)
		if st > worstT {
			worst, worstT = o, st
		}
	}
	fmt.Print(tab.String())

	fmt.Printf("\nworst output %s settles at %.4g ns via:\n", worst, worstT)
	pol := nmostv.Rise
	if res.FallAt.At(worst.Index) > res.RiseAt.At(worst.Index) {
		pol = nmostv.Fall
	}
	fmt.Print(nmostv.FormatPath(res.Path(worst, pol)))
}

func b2i(x bool) int {
	if x {
		return 1
	}
	return 0
}
