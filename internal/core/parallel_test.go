package core

import (
	"context"
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

// datapathModel prepares a mid-size clocked datapath for the parallel
// equivalence tests and benchmarks.
func datapathModel(cfg gen.DatapathConfig) (*netlist.Netlist, *delay.Model) {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, cfg)
	st := stage.Extract(nl)
	flow.Analyze(nl)
	return nl, delay.Build(nl, st, p, delay.Options{Workers: 1})
}

func assertResultsIdentical(t *testing.T, workers int, base, res *Result) {
	t.Helper()
	arrays := []struct {
		name       string
		want, have []float64
	}{
		{"RiseAt", base.RiseAt.Slice(), res.RiseAt.Slice()},
		{"FallAt", base.FallAt.Slice(), res.FallAt.Slice()},
		{"EarlyRise", base.EarlyRise.Slice(), res.EarlyRise.Slice()},
		{"EarlyFall", base.EarlyFall.Slice(), res.EarlyFall.Slice()},
	}
	for _, arr := range arrays {
		for i := range arr.want {
			if arr.want[i] != arr.have[i] {
				t.Fatalf("workers=%d: %s[%d] = %v, serial %v",
					workers, arr.name, i, arr.have[i], arr.want[i])
			}
		}
	}
	got, want := res.CheckList(), base.CheckList()
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d checks, serial %d", workers, len(got), len(want))
	}
	for i := range got {
		// Check is comparable and node pointers come from the same
		// netlist, so == is exact (slacks to the last bit).
		if got[i] != want[i] {
			t.Fatalf("workers=%d: check %d differs:\n got %v\nwant %v",
				workers, i, got[i], want[i])
		}
	}
	if got, want := FormatPath(res.CriticalPath()), FormatPath(base.CriticalPath()); got != want {
		t.Fatalf("workers=%d: critical path differs:\n got %s\nwant %s", workers, got, want)
	}
}

// TestAnalyzeWorkersBitIdentical asserts the wavefront engine's tentpole
// guarantee: arrivals, checks, and critical paths are bit-identical at
// every worker count.
func TestAnalyzeWorkersBitIdentical(t *testing.T) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
	s := clocks.TwoPhase(2000, 0.8)
	base, err := Analyze(context.Background(), nl, m, s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		res, err := Analyze(context.Background(), nl, m, s, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, w, base, res)
	}
}

// TestAnalyzeWorkersCyclicComponent pins the wavefront scheduling of a
// cyclic SCC (a cross-coupled pair stays one serial unit inside its
// level) alongside parallel singleton relaxation.
func TestAnalyzeWorkersCyclicComponent(t *testing.T) {
	p := tech.Default()
	b := gen.New("latchring", p)
	in := b.Input("in")
	// A cross-coupled NOR pair (combinational cycle) next to a wide fan
	// of independent inverters that populates the same wavefront levels.
	q := b.Fresh("q")
	qb := b.Fresh("qb")
	b.NL.AddTransistor(netlist.Dep, q, b.NL.VDD, q, 4, 8)
	b.NL.AddTransistor(netlist.Enh, in, q, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Enh, qb, q, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Dep, qb, b.NL.VDD, qb, 4, 8)
	b.NL.AddTransistor(netlist.Enh, q, qb, b.NL.GND, 8, 4)
	for i := 0; i < 32; i++ {
		b.Output(b.Inverter(in))
	}
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{Workers: 1})
	s := clocks.TwoPhase(500, 0.8)
	base, err := Analyze(context.Background(), nl, m, s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	loops := 0
	for _, c := range base.Checks {
		if c.Kind == CheckLoop {
			loops++
		}
	}
	if loops == 0 {
		t.Fatal("circuit must exercise the cyclic-SCC path (no loop check found)")
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		res, err := Analyze(context.Background(), nl, m, s, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, w, base, res)
	}
}

// buildAdjacencyAppend is the pre-flat-array construction (per-node
// append growth), kept as the benchmark baseline that
// BenchmarkBuildAdjacency/flat is measured against.
func buildAdjacencyAppend(n int, m *delay.Model) (out, in [][]int32) {
	out = make([][]int32, n)
	in = make([][]int32, n)
	for i := range m.Edges.Len() {
		e := m.Edges.Ref(i)
		out[e.From] = append(out[e.From], int32(i))
		in[e.To] = append(in[e.To], int32(i))
	}
	return out, in
}

// TestBuildAdjacencyMatchesAppend pins the flat construction to the
// obvious one.
func TestBuildAdjacencyMatchesAppend(t *testing.T) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
	n := len(nl.Nodes)
	var ws waveSchedule
	buildAdjacency(n, m, &ws)
	wantOut, wantIn := buildAdjacencyAppend(n, m)
	for i := 0; i < n; i++ {
		v := int32(i)
		for _, pair := range []struct{ got, want []int32 }{{ws.out(v), wantOut[i]}, {ws.in(v), wantIn[i]}} {
			if len(pair.got) != len(pair.want) {
				t.Fatalf("node %d: %d edges, want %d", i, len(pair.got), len(pair.want))
			}
			for j := range pair.got {
				if pair.got[j] != pair.want[j] {
					t.Fatalf("node %d edge %d: %d, want %d", i, j, pair.got[j], pair.want[j])
				}
			}
		}
	}
}

// BenchmarkBuildAdjacency proves the allocation reduction of the
// count-first flat layout over per-node append growth (compare allocs/op
// between the two sub-benchmarks).
func BenchmarkBuildAdjacency(b *testing.B) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 32, Words: 32, ShiftAmounts: 8})
	n := len(nl.Nodes)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var ws waveSchedule
			buildAdjacency(n, m, &ws)
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildAdjacencyAppend(n, m)
		}
	})
}

// BenchmarkAnalyzeWorkers measures the whole analysis at serial and
// all-CPU worker counts.
func BenchmarkAnalyzeWorkers(b *testing.B) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 32, Words: 32, ShiftAmounts: 8})
	s := clocks.TwoPhase(5000, 0.8)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(map[bool]string{true: "serial", false: "parallel"}[w == 1], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(context.Background(), nl, m, s, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
