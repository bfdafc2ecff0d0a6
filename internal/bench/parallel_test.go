package bench

import (
	"context"
	"runtime"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// equivalenceWorkloads is the generator coverage for the parallel-engine
// golden-equality test: a clocked datapath, the barrel shifter (pass
// matrix), and the PLA (wide NOR planes), plus the two-phase shift
// register for latch/precharge idioms.
func equivalenceWorkloads() []Workload {
	suite := map[string]Workload{}
	for _, w := range Suite() {
		suite[w.Name] = w
	}
	datapath := Workload{
		Name:    "datapath8x8",
		Clocked: true,
		Build: func(p tech.Params) *netlist.Netlist {
			return gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
		},
	}
	return []Workload{
		datapath,
		suite["barrel32x8"],
		suite["placontrol"],
		suite["shiftreg16"],
	}
}

// TestParallelEngineGoldenEquality asserts, for every worker count in
// {1, 2, NumCPU}, that the delay model, arrivals, checks, and critical
// path are identical to the serial engine — golden equality over the
// generator suite (datapath, shifter, PLA).
func TestParallelEngineGoldenEquality(t *testing.T) {
	p := tech.Default()
	sched := genericSchedule()
	for _, w := range equivalenceWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			nl := w.Build(p)
			st := stage.Extract(nl)
			flow.Analyze(nl)
			mBase := delay.Build(nl, st, p, delay.Options{Workers: 1})
			rBase, err := core.Analyze(context.Background(), nl, mBase, sched, core.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
				m := delay.Build(nl, st, p, delay.Options{Workers: workers})
				if m.Edges.Len() != mBase.Edges.Len() {
					t.Fatalf("workers=%d: %d edges, serial %d", workers, m.Edges.Len(), mBase.Edges.Len())
				}
				for i := range m.Edges.Len() {
					if m.Edges.At(i) != mBase.Edges.At(i) {
						t.Fatalf("workers=%d: edge %d differs:\n got %v\nwant %v",
							workers, i, m.Edges.At(i), mBase.Edges.At(i))
					}
				}
				res, err := core.Analyze(context.Background(), nl, m, sched, core.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for i := range rBase.RiseAt.Len() {
					if res.RiseAt.At(i) != rBase.RiseAt.At(i) || res.FallAt.At(i) != rBase.FallAt.At(i) {
						t.Fatalf("workers=%d: arrivals differ at node %d", workers, i)
					}
					if res.EarlyRise.At(i) != rBase.EarlyRise.At(i) || res.EarlyFall.At(i) != rBase.EarlyFall.At(i) {
						t.Fatalf("workers=%d: early arrivals differ at node %d", workers, i)
					}
				}
				if len(res.Checks) != len(rBase.Checks) {
					t.Fatalf("workers=%d: %d checks, serial %d", workers, len(res.Checks), len(rBase.Checks))
				}
				for i := range res.Checks {
					if res.Checks[i] != rBase.Checks[i] {
						t.Fatalf("workers=%d: check %d differs:\n got %v\nwant %v",
							workers, i, res.Checks[i], rBase.Checks[i])
					}
				}
				if got, want := core.FormatPath(res.CriticalPath()), core.FormatPath(rBase.CriticalPath()); got != want {
					t.Fatalf("workers=%d: critical path differs:\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

// TestT2SamplesShape pins the BENCH_T2.json row derivation: serial rows
// carry speedup 1, parallel rows carry the serial/parallel ratio, and
// every row has a positive throughput.
func TestT2SamplesShape(t *testing.T) {
	serial := []ScalePoint{
		{Config: gen.DatapathConfig{Bits: 8, Words: 8}, Transistors: 1000, Prep: 40e6, Analyze: 10e6, Workers: 1},
	}
	parallel := []ScalePoint{
		{Config: gen.DatapathConfig{Bits: 8, Words: 8}, Transistors: 1000, Prep: 16e6, Analyze: 9e6, Workers: 4},
	}
	rows := t2Samples(serial, parallel)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Speedup != 1 || rows[0].Workers != 1 {
		t.Fatalf("serial row wrong: %+v", rows[0])
	}
	if rows[1].Workers != 4 {
		t.Fatalf("parallel row wrong workers: %+v", rows[1])
	}
	if want := 2.0; rows[1].Speedup != want {
		t.Fatalf("parallel speedup = %v, want %v", rows[1].Speedup, want)
	}
	for _, r := range rows {
		if r.TransPerSec <= 0 || r.NsPerOp <= 0 {
			t.Fatalf("non-positive throughput row: %+v", r)
		}
	}
}
