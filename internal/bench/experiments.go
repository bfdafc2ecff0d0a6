package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
	"nmostv/internal/pipeline"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// Workers is the worker count every experiment passes to the delay
// builder and the analyzer: 0 (the default) means one goroutine per CPU,
// 1 forces the serial engine. cmd/experiments -j sets it. Results are
// bit-identical at any value; only wall-clock changes.
var Workers int

// Report is the rendered output of one experiment.
type Report struct {
	ID       string
	Title    string
	Sections []string
	// Artifacts maps file names to machine-readable payloads the runner
	// should persist next to the printed report (e.g. BENCH_T2.json).
	Artifacts map[string][]byte
}

// String concatenates the sections under a header.
func (r *Report) String() string {
	out := fmt.Sprintf("== %s: %s ==\n\n", r.ID, r.Title)
	for _, s := range r.Sections {
		out += s
		if len(s) > 0 && s[len(s)-1] != '\n' {
			out += "\n"
		}
		out += "\n"
	}
	return out
}

// Experiment is one runnable table or figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Report
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Benchmark inventory", RunT1},
		{"T2", "Analyzer cost vs design size", RunT2},
		{"T3", "Accuracy vs switch-level simulation", RunT3},
		{"T4", "Flagship datapath verification report", RunT4},
		{"T5", "Signal-flow analysis ablation", RunT5},
		{"T6", "Incremental vs full re-analysis", RunT6},
		{"T7", "Load shedding at the /delta admission gate", RunT7},
		{"T8", "Million-transistor throughput", RunT8},
		{"T9", "Multi-corner sweep scaling", RunT9},
		{"T10", "Flight-recorder overhead", RunT10},
		{"T11", "Durability cost: snapshot, restore, journal", RunT11},
		{"F1", "Settle-time distribution per phase", RunF1},
		{"F2", "Runtime scaling curve", RunF2},
		{"F3", "Pass-chain delay vs length", RunF3},
		{"F4", "Delay vs pullup/pulldown ratio", RunF4},
		{"A1", "Carry implementation ablation", RunA1},
		{"A2", "Setup slack vs skew tolerance", RunA2},
	}
}

// Run executes the experiment with the given ID.
func Run(id string) (*Report, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run(), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// prepared is one workload through the pipeline's preparation steps.
type prepared struct {
	nl      *netlist.Netlist
	stats   netlist.Stats
	stages  *stage.Result
	model   *delay.Model
	prepDur time.Duration
	workers int
}

func prepare(nl *netlist.Netlist, p tech.Params, useFlow bool) *prepared {
	return prepareWorkers(nl, p, useFlow, Workers)
}

// prepareWorkers is prepare with an explicit worker count (T2 measures
// the same sweep serial and parallel).
func prepareWorkers(nl *netlist.Netlist, p tech.Params, useFlow bool, workers int) *prepared {
	start := time.Now()
	pl := pipeline.Pipeline{Params: p, NoFlow: !useFlow, Delay: delay.Options{Workers: workers}}
	st, err := pl.Prepare(context.Background(), nil, nl)
	if err != nil {
		panic(fmt.Sprintf("bench: prepare %s: %v", nl.Name, err))
	}
	return &prepared{
		nl:      nl,
		stats:   nl.ComputeStats(),
		stages:  st.Stages,
		model:   st.Model,
		prepDur: time.Since(start),
		workers: workers,
	}
}

// analyze runs case analysis and returns the result with its duration.
func (pr *prepared) analyze(sched clocks.Schedule) (*core.Result, time.Duration) {
	start := time.Now()
	pl := pipeline.Pipeline{Sched: sched, Core: core.Options{Workers: pr.workers}}
	st := pipeline.State{NL: pr.nl, Stages: pr.stages, Model: pr.model}
	if err := pl.Analyze(context.Background(), nil, &st); err != nil {
		panic(fmt.Sprintf("bench: analyze %s: %v", pr.nl.Name, err))
	}
	return st.Base, time.Since(start)
}

// genericSchedule is the long default cycle used when an experiment is not
// probing cycle time.
func genericSchedule() clocks.Schedule { return clocks.TwoPhase(5000, 0.8) }

// settleTimes collects finite settle times of all signal nodes.
func settleTimes(res *core.Result) []float64 {
	var out []float64
	for _, n := range res.NL.Nodes {
		if n.IsSupply() || n.IsClock() {
			continue
		}
		if s := res.Settle(n); !isNegInf(s) {
			out = append(out, s)
		}
	}
	sort.Float64s(out)
	return out
}

func isNegInf(v float64) bool { return v < -1e300 }
