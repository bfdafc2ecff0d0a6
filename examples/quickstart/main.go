// Quickstart: build a small clocked nMOS circuit with the generator API,
// run the timing analyzer, and read the report — the five-minute tour of
// the library.
package main

import (
	"fmt"
	"log"

	"nmostv"
	"nmostv/internal/gen"
)

func main() {
	p := nmostv.DefaultParams()
	fmt.Println("process:", p)

	// A two-stage pipeline: input → φ1 latch → 4-input NAND + inverters
	// → φ2 latch → output. The kind of fragment a datapath is made of.
	b := gen.New("quickstart", p)
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)

	var nandIns []*nmostv.Node
	for i := 0; i < 4; i++ {
		in := b.Input(fmt.Sprintf("in%d", i))
		_, q := b.Latch(phi1, in)
		nandIns = append(nandIns, b.Inverter(q)) // restore true polarity
	}
	logic := b.Inverter(b.Nand(nandIns...))
	_, q := b.Latch(phi2, logic)
	out := b.Output(b.Inverter(q))
	nl := b.Finish()

	fmt.Println("built:", nl)

	// Prepare: stage extraction, signal-flow analysis, RC timing arcs.
	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{})
	fmt.Println("flow:", d.Flow)
	fmt.Println("timing arcs:", d.Model.Edges.Len())

	// Analyze one clock cycle.
	sched := nmostv.TwoPhase(50, 0.8)
	res, err := d.Analyze(sched, nmostv.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nschedule:", res.Sched)
	fmt.Printf("output %s settles at %.4g ns\n", out, res.Settle(out))
	slack, _ := res.MinSlack()
	fmt.Printf("worst slack: %.4g ns, violations: %d\n", slack, len(res.Violations()))

	// How fast can this pipeline be clocked?
	T, resMin, err := d.MinPeriod(sched, nmostv.AnalyzeOptions{}, 0.5, 50, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nminimum cycle time: %.4g ns (%.4g MHz)\n", T, 1000/T)
	fmt.Println("binding path:")
	fmt.Print(nmostv.FormatPath(resMin.CriticalPath()))
}
