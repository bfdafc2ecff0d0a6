package delay

import (
	"fmt"
	"runtime"
	"testing"

	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// TestBuildWorkersBitIdentical asserts the parallel builder's tentpole
// guarantee: every worker count produces the exact same edge list —
// same order, same delays to the last bit — as the serial build.
func TestBuildWorkersBitIdentical(t *testing.T) {
	p := tech.Default()
	circuits := []struct {
		name string
		opt  Options
	}{
		{"datapath", Options{}},
		{"datapath-case", Options{SetHigh: []string{"op0"}, SetLow: []string{"op1"}}},
	}
	for _, tc := range circuits {
		nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
		st := stage.Extract(nl)
		flow.Analyze(nl)
		serialOpt := tc.opt
		serialOpt.Workers = 1
		base := Build(nl, st, p, serialOpt)
		for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
			parOpt := tc.opt
			parOpt.Workers = w
			m := Build(nl, st, p, parOpt)
			if m.Truncated != base.Truncated {
				t.Errorf("%s workers=%d: Truncated %d != %d", tc.name, w, m.Truncated, base.Truncated)
			}
			if m.Edges.Len() != base.Edges.Len() {
				t.Fatalf("%s workers=%d: %d edges != %d", tc.name, w, m.Edges.Len(), base.Edges.Len())
			}
			for i := range m.Edges.Len() {
				// Edge is a comparable struct; node and device pointers
				// come from the same netlist, so == is exact identity.
				if m.Edges.At(i) != base.Edges.At(i) {
					t.Fatalf("%s workers=%d: edge %d differs:\n got %v\nwant %v",
						tc.name, w, i, m.Edges.At(i), base.Edges.At(i))
				}
			}
			for i := range m.Caps.Len() {
				if m.Caps.At(i) != base.Caps.At(i) {
					t.Fatalf("%s workers=%d: cap %d differs", tc.name, w, i)
				}
			}
		}
	}
}

// TestBuildWorkersClockedIdiom covers clock-masked arcs (precharge,
// two-phase latches) under the sharded builder.
func TestBuildWorkersClockedIdiom(t *testing.T) {
	p := tech.Default()
	b := gen.New("clocked", p)
	phi1 := b.Clock("phi1", 1)
	phi2 := b.Clock("phi2", 2)
	b.Output(b.ShiftRegister(b.Input("in"), phi1, phi2, 8))
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	base := Build(nl, st, p, Options{Workers: 1})
	m := Build(nl, st, p, Options{Workers: runtime.GOMAXPROCS(0) + 2})
	if m.Edges.Len() != base.Edges.Len() {
		t.Fatalf("edge count %d != %d", m.Edges.Len(), base.Edges.Len())
	}
	for i := range m.Edges.Len() {
		if m.Edges.At(i) != base.Edges.At(i) {
			t.Fatalf("edge %d differs:\n got %v\nwant %v", i, m.Edges.At(i), base.Edges.At(i))
		}
	}
}

// BenchmarkBuildWorkers measures the sharded model build; run with
// different -cpu values to see the scaling.
func BenchmarkBuildWorkers(b *testing.B) {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 32, Words: 32, ShiftAmounts: 8})
	st := stage.Extract(nl)
	flow.Analyze(nl)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(nl, st, p, Options{Workers: w})
			}
		})
	}
}
