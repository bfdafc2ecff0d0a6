package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/report"
	"nmostv/internal/tech"
)

// RunT1 builds every suite circuit and tabulates its structure.
func RunT1() *Report {
	p := tech.Default()
	tab := report.NewTable("Table T1 — benchmark inventory",
		"circuit", "transistors", "nodes", "stages", "pass devices", "clocked", "structure")
	for _, w := range Suite() {
		nl := w.Build(p)
		pr := prepare(nl, p, true)
		clocked := "no"
		if w.Clocked {
			clocked = "two-phase"
		}
		tab.Add(w.Name, pr.stats.Transistors, pr.stats.Nodes,
			len(pr.stages.Stages), pr.stats.Passes, clocked, w.Note)
	}
	return &Report{ID: "T1", Title: "Benchmark inventory", Sections: []string{tab.String()}}
}

// ScalePoints returns the datapath configurations swept by T2/F2.
func ScalePoints() []gen.DatapathConfig {
	return []gen.DatapathConfig{
		{Bits: 8, Words: 8, ShiftAmounts: 4},
		{Bits: 16, Words: 16, ShiftAmounts: 4},
		{Bits: 32, Words: 16, ShiftAmounts: 4},
		{Bits: 32, Words: 32, ShiftAmounts: 8},
		{Bits: 32, Words: 64, ShiftAmounts: 8},
		{Bits: 64, Words: 64, ShiftAmounts: 8},
		{Bits: 64, Words: 128, ShiftAmounts: 16},
	}
}

// ScalePoint is one measured size/cost sample.
type ScalePoint struct {
	Config      gen.DatapathConfig
	Transistors int
	Edges       int
	Prep        time.Duration
	Analyze     time.Duration
	// Workers is the effective worker count the sample was measured at.
	Workers int
}

// Total is the wall-clock cost of the sample (prepare + analyze).
func (s ScalePoint) Total() time.Duration { return s.Prep + s.Analyze }

// MeasureScaling runs the size sweep once, at the package-default worker
// count, and returns the samples.
func MeasureScaling() []ScalePoint {
	return MeasureScalingWorkers(Workers)
}

// MeasureScalingWorkers runs the size sweep at an explicit worker count
// (0 = one per CPU). Each point is the median of T8Repeats timed runs
// after one warmup run (measureMedian): a single cold run per size let
// first-touch page faults and heap growth land on arbitrary points and
// made the reported throughput non-monotone in design size.
func MeasureScalingWorkers(workers int) []ScalePoint {
	p := tech.Default()
	eff := workers
	if eff <= 0 {
		eff = runtime.GOMAXPROCS(0)
	}
	var out []ScalePoint
	for _, cfg := range ScalePoints() {
		nl := gen.MIPSDatapath(p, cfg)
		m := measureMedian(nl, p, true, workers, T8Repeats)
		out = append(out, ScalePoint{
			Config:      cfg,
			Transistors: m.transistors,
			Edges:       m.arcs,
			Prep:        m.prep,
			Analyze:     m.analyze,
			Workers:     eff,
		})
	}
	return out
}

// T2Sample is one machine-readable row of the T2 benchmark, persisted as
// BENCH_T2.json so the perf trajectory stays visible across PRs.
type T2Sample struct {
	Config      string  `json:"config"`
	Transistors int     `json:"transistors"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_per_op"`
	TransPerSec float64 `json:"transistors_per_sec"`
	// Speedup is serial wall-clock over this sample's wall-clock at the
	// same size (1 for the serial rows themselves).
	Speedup float64 `json:"speedup"`
}

// t2Samples flattens the serial and parallel sweeps into JSON rows. On a
// single-CPU host the two sweeps are the same measurement; only the
// serial rows are emitted then.
func t2Samples(serial, parallel []ScalePoint) []T2Sample {
	var out []T2Sample
	add := func(s ScalePoint, speedup float64) {
		out = append(out, T2Sample{
			Config:      fmt.Sprintf("%db×%dw", s.Config.Bits, s.Config.Words),
			Transistors: s.Transistors,
			Workers:     s.Workers,
			NsPerOp:     s.Total().Nanoseconds(),
			TransPerSec: float64(s.Transistors) / s.Total().Seconds(),
			Speedup:     speedup,
		})
	}
	for i, s := range serial {
		add(s, 1)
		p := parallel[i]
		if p.Workers == s.Workers {
			continue
		}
		add(p, s.Total().Seconds()/p.Total().Seconds())
	}
	return out
}

// RunT2 reports analyzer cost against design size, measured with the
// serial engine (workers = 1) and the parallel engine (one worker per
// CPU), plus the parallel speedup per size.
func RunT2() *Report {
	nCPU := runtime.GOMAXPROCS(0)
	serial := MeasureScalingWorkers(1)
	parallel := serial
	if nCPU > 1 {
		parallel = MeasureScalingWorkers(nCPU)
	}
	tab := report.NewTable("Table T2 — analyzer cost vs design size (MIPS-like datapath sweep)",
		"config", "transistors", "timing arcs",
		"j=1 prep (ms)", "j=1 analyze (ms)",
		fmt.Sprintf("j=%d total (ms)", nCPU), "speedup", "total ktrans/s")
	var xs, ys []float64
	for i, s := range serial {
		par := parallel[i]
		rate := float64(par.Transistors) / par.Total().Seconds() / 1000
		tab.Add(fmt.Sprintf("%db×%dw", s.Config.Bits, s.Config.Words),
			s.Transistors, s.Edges,
			float64(s.Prep.Microseconds())/1000,
			float64(s.Analyze.Microseconds())/1000,
			float64(par.Total().Microseconds())/1000,
			s.Total().Seconds()/par.Total().Seconds(),
			rate)
		xs = append(xs, float64(s.Transistors))
		ys = append(ys, par.Total().Seconds()*1000)
	}
	slope, intercept, r2 := report.LinearFit(xs, ys)
	last := len(serial) - 1
	notes := fmt.Sprintf("linear fit: time(ms) = %.4g·transistors + %.4g, R² = %.4f\n"+
		"claim under test: near-linear scaling (R² close to 1), whole-chip analysis in seconds.\n"+
		"parallel speedup at the largest size (%db×%dw, %d workers): %.2fx\n",
		slope, intercept, r2,
		serial[last].Config.Bits, serial[last].Config.Words, nCPU,
		serial[last].Total().Seconds()/parallel[last].Total().Seconds())
	blob, err := json.MarshalIndent(t2Samples(serial, parallel), "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench T2: marshal samples: %v", err))
	}
	return &Report{ID: "T2", Title: "Analyzer cost vs design size",
		Sections:  []string{tab.String(), notes},
		Artifacts: map[string][]byte{"BENCH_T2.json": append(blob, '\n')}}
}

// RunT4 produces the flagship verification report: the MIPS-like datapath
// analyzed at its minimum passing period.
func RunT4() *Report {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DefaultDatapath())
	pr := prepare(nl, p, true)
	base := genericSchedule()
	T, res, err := core.MinPeriod(context.Background(), nl, pr.model, base, core.Options{}, 1, base.Period, 0.05)
	if err != nil {
		panic(fmt.Sprintf("bench T4: %v", err))
	}

	summary := report.NewTable("Table T4 — flagship datapath verification",
		"quantity", "value")
	summary.Add("circuit", nl.Name)
	summary.Add("transistors", pr.stats.Transistors)
	summary.Add("stages", len(pr.stages.Stages))
	summary.Add("timing arcs", pr.model.Edges.Len())
	summary.Add("minimum cycle time (ns)", T)
	summary.Add("clock schedule", res.Sched.String())
	minSlack, _ := res.MinSlack()
	summary.Add("worst slack at Tmin (ns)", minSlack)
	if tol, ok := res.SkewTolerance(); ok {
		summary.Add("clock skew tolerance (ns)", tol)
	}
	worstNode, worstT := res.MaxSettle()
	summary.Add("latest settling node", fmt.Sprintf("%s @ %.4g ns", worstNode, worstT))
	summary.Add("checks evaluated", len(res.Checks))
	summary.Add("violations at Tmin", len(res.Violations()))

	// Per-phase latch-check census.
	perPhase := report.NewTable("latch checks per phase",
		"phase", "checks", "min slack (ns)")
	for phase := 1; phase <= 2; phase++ {
		count := 0
		min := 0.0
		first := true
		for _, c := range res.Checks {
			if c.Kind == core.CheckLatch && c.Phase == phase {
				count++
				if first || c.Slack < min {
					min = c.Slack
					first = false
				}
			}
		}
		perPhase.Add(phase, count, min)
	}

	pathText := "critical path (binding constraint at Tmin):\n" +
		core.FormatPath(res.CriticalPath())

	return &Report{ID: "T4", Title: "Flagship datapath verification report",
		Sections: []string{summary.String(), perPhase.String(), pathText}}
}

// RunT5 contrasts analysis with and without signal-flow inference on the
// pass-transistor-heavy workloads.
func RunT5() *Report {
	p := tech.Default()
	tab := report.NewTable("Table T5 — signal-flow analysis ablation",
		"circuit", "flow", "bidir passes", "timing arcs", "false loops", "max settle (ns)", "analyze (ms)")

	workloads := []string{"barrel32x8", "regfile16x32", "mips32r16"}
	for _, name := range workloads {
		var w Workload
		for _, cand := range Suite() {
			if cand.Name == name {
				w = cand
				break
			}
		}
		for _, useFlow := range []bool{true, false} {
			nl := w.Build(p)
			pr := prepare(nl, p, useFlow)
			res, dur := pr.analyze(genericSchedule())
			loops := 0
			for _, c := range res.Checks {
				if c.Kind == core.CheckLoop {
					loops++
				}
			}
			bidir := 0
			for _, t := range nl.Trans {
				if t.Role == netlist.RolePass && t.Flow == netlist.FlowBoth {
					bidir++
				}
			}
			_, maxSettle := res.MaxSettle()
			mode := "on"
			if !useFlow {
				mode = "off"
			}
			tab.Add(w.Name, mode, bidir, pr.model.Edges.Len(), loops,
				maxSettle, float64(dur.Microseconds())/1000)
		}
	}
	notes := "claim under test: without direction inference, pass networks become\n" +
		"bidirectional — arc count inflates, false cyclic paths appear, and settle\n" +
		"times grow pessimistic; with it, the same circuits analyze cleanly at\n" +
		"similar cost.\n"
	return &Report{ID: "T5", Title: "Signal-flow analysis ablation",
		Sections: []string{tab.String(), notes}}
}
