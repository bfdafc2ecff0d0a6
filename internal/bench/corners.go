package bench

// T9: multi-corner sweep scaling. The slack engine runs every PVT corner
// in turn over one shared netlist, stage partition, and propagation
// plan (internal/slack); this experiment checks that the sharing actually
// pays at chip scale. Per tiled-chip size it times a single-corner
// analysis (forward + backward pass at the typical process) against the
// three-corner slow/typ/fast sweep and asserts two budgets: the sweep's
// per-corner throughput stays at ≥0.7× the single-corner rate, and the
// total live heap of the three-corner analysis stays under
// T9MemCeiling × the single-corner analysis — both only possible
// because the corners share the design, the plan and the arcs (each
// non-typ corner reads the base model through a view). It also re-runs
// every corner independently over a materialized copy of its model
// (delay.ScaleModel), with no shared plan, and requires the sweep's
// per-corner and merged outputs to match bit for bit. The rows persist
// as BENCH_T6.json; cmd/perfgate holds CI to the throughput floor.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/report"
	"nmostv/internal/slack"
	"nmostv/internal/tech"
)

// T9Cap, when positive, drops sweep points whose transistor target
// exceeds it, the same CI knob as T8Cap.
var T9Cap int

// T9Repeats is how many timed runs each measurement gets after its
// warmup; the reported duration is the median.
var T9Repeats = 3

// T9ThroughputFloor is the acceptance bound on the sweep's per-corner
// throughput relative to a single-corner analysis.
const T9ThroughputFloor = 0.7

// T9MemCeiling is the acceptance bound on the three-corner analysis's
// live heap relative to the single-corner analysis's. Corners that read
// the base model's arcs through views measure 1.22–1.24 at 10k and
// 100k; corners that each held a copy of the arcs measured 1.58–1.64.
const T9MemCeiling = 1.4

// T9Targets returns the transistor-count floors of the sweep.
func T9Targets() []int {
	return []int{10_000, 100_000, 1_000_000}
}

// T9Sample is one machine-readable row of the T9 sweep, persisted as
// BENCH_T6.json. Heap figures are total live bytes — netlist, stage
// partition, timing model(s), shared plan, and analysis products — so
// the memory ratio states what an operator actually pays to hold an
// N-corner analysis resident versus one corner.
type T9Sample struct {
	Target            int     `json:"target_transistors"`
	Transistors       int     `json:"transistors"`
	Nodes             int     `json:"nodes"`
	Arcs              int     `json:"timing_arcs"`
	Corners           int     `json:"corners"`
	Workers           int     `json:"workers"`
	SingleNs          int64   `json:"single_corner_ns"`
	SweepNs           int64   `json:"sweep_ns"`
	SingleTransPerSec float64 `json:"single_corner_trans_per_sec"`
	PerCornerRatio    float64 `json:"per_corner_throughput_ratio"`
	SingleHeapBytes   int64   `json:"single_corner_live_bytes"`
	SweepHeapBytes    int64   `json:"sweep_live_bytes"`
	MemRatio          float64 `json:"sweep_mem_ratio"`
	BitIdentical      bool    `json:"bit_identical_vs_independent"`
}

func (s T9Sample) pass() bool {
	return s.BitIdentical && s.PerCornerRatio >= T9ThroughputFloor && s.MemRatio < T9MemCeiling
}

// liveHeap returns the bytes of reachable heap after a full collection.
// Two GC cycles let finalizer-revived and freshly-unreferenced memory
// actually drain before the read.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// timeSweep runs slack.Analyze over the given corners once untimed, then
// T9Repeats timed runs with a collection between each (as measureMedian
// does for the forward pipeline), returning the median wall-clock.
func timeSweep(nl *netlist.Netlist, model *delay.Model, corners []tech.Corner, workers, repeats int) time.Duration {
	opt := slack.Options{Sched: genericSchedule(), Core: core.Options{Workers: workers}}
	ctx := context.Background()
	if _, err := slack.Analyze(ctx, nl, model, corners, opt); err != nil {
		panic(fmt.Sprintf("bench T9: warmup sweep: %v", err))
	}
	if repeats < 1 {
		repeats = 1
	}
	durs := make([]time.Duration, repeats)
	for i := range durs {
		runtime.GC()
		start := time.Now()
		if _, err := slack.Analyze(ctx, nl, model, corners, opt); err != nil {
			panic(fmt.Sprintf("bench T9: timed sweep: %v", err))
		}
		durs[i] = time.Since(start)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[repeats/2]
}

// sameRequired reports whether two backward passes produced bit-identical
// required times and slacks.
func sameRequired(a, b *core.Required) bool {
	if a.RiseRAT.Len() != b.RiseRAT.Len() {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a.RiseRAT.Len() {
		for _, pol := range []core.Polarity{core.Rise, core.Fall} {
			if !same(a.RAT(i, pol), b.RAT(i, pol)) || !same(a.Slack(i, pol), b.Slack(i, pol)) {
				return false
			}
		}
	}
	return true
}

// sweepMatchesIndependent re-analyzes every corner with no shared plan —
// each gets its own freshly computed wave schedule — and reports whether
// the sweep's per-corner results, required times, and merged worst-slack
// view equal the independent runs bit for bit.
func sweepMatchesIndependent(nl *netlist.Netlist, model *delay.Model, sw *slack.Sweep, workers int) bool {
	ctx := context.Background()
	copt := core.Options{Workers: workers}
	indep := make([]slack.CornerResult, len(sw.Corners))
	for i, cr := range sw.Corners {
		m := delay.ScaleModel(model, cr.Corner.RScale, cr.Corner.CScale)
		res, err := core.Analyze(ctx, nl, m, genericSchedule(), copt)
		if err != nil {
			return false
		}
		req, err := res.Required(ctx, copt)
		if err != nil {
			return false
		}
		if !sameResult(cr.Res, res) || !sameRequired(cr.Req, req) {
			return false
		}
		indep[i] = slack.CornerResult{Corner: cr.Corner, Model: m, Res: res, Req: req}
	}
	merged, err := slack.Merge(indep)
	if err != nil {
		return false
	}
	if merged.WorstSlack.Len() != sw.WorstSlack.Len() {
		return false
	}
	for i := range sw.WorstSlack.Len() {
		if math.Float64bits(merged.WorstSlack.At(i)) != math.Float64bits(sw.WorstSlack.At(i)) ||
			merged.WorstCorner.At(i) != sw.WorstCorner.At(i) {
			return false
		}
	}
	return true
}

// measureCornerPoint runs the complete T9 measurement for one tiled-chip
// target: bit-identity against independent runs, median single-corner
// and sweep timings, and live-heap totals for both configurations.
func measureCornerPoint(target, workers, repeats int) T9Sample {
	p := tech.Default()
	corners := tech.Corners()
	typOnly := []tech.Corner{tech.Typical()}
	opt := slack.Options{Sched: genericSchedule(), Core: core.Options{Workers: workers}}
	ctx := context.Background()

	// Everything below h0 — netlist, stage partition, flow, model, plan,
	// results — counts toward the live-heap totals.
	h0 := liveHeap()
	nl := gen.TiledChip(p, gen.DefaultTiledChip(target))
	pr := prepareWorkers(nl, p, true, workers)

	sweep, err := slack.Analyze(ctx, nl, pr.model, corners, opt)
	if err != nil {
		panic(fmt.Sprintf("bench T9: sweep at %d: %v", target, err))
	}
	bit := sweepMatchesIndependent(nl, pr.model, sweep, workers)
	sweepBytes := func() int64 {
		h := liveHeap() - h0
		runtime.KeepAlive(sweep)
		return h
	}()
	sweep = nil

	single, err := slack.Analyze(ctx, nl, pr.model, typOnly, opt)
	if err != nil {
		panic(fmt.Sprintf("bench T9: single-corner at %d: %v", target, err))
	}
	singleBytes := func() int64 {
		h := liveHeap() - h0
		runtime.KeepAlive(single)
		return h
	}()
	single = nil

	singleDur := timeSweep(nl, pr.model, typOnly, workers, repeats)
	sweepDur := timeSweep(nl, pr.model, corners, workers, repeats)

	nc := float64(len(corners))
	singleTPS := float64(pr.stats.Transistors) / singleDur.Seconds()
	// Per-corner throughput ratio: the sweep completes nc corner-analyses
	// in sweepDur, so its aggregate rate per corner is nc·single/sweep of
	// the single-corner rate. 1.0 = the sharing made extra corners free
	// of overhead beyond their own propagation.
	ratio := nc * singleDur.Seconds() / sweepDur.Seconds()
	memRatio := math.Inf(1)
	if singleBytes > 0 {
		memRatio = float64(sweepBytes) / float64(singleBytes)
	}
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return T9Sample{
		Target:            target,
		Transistors:       pr.stats.Transistors,
		Nodes:             pr.stats.Nodes,
		Arcs:              pr.model.Edges.Len(),
		Corners:           len(corners),
		Workers:           w,
		SingleNs:          singleDur.Nanoseconds(),
		SweepNs:           sweepDur.Nanoseconds(),
		SingleTransPerSec: singleTPS,
		PerCornerRatio:    ratio,
		SingleHeapBytes:   singleBytes,
		SweepHeapBytes:    sweepBytes,
		MemRatio:          memRatio,
		BitIdentical:      bit,
	}
}

// MeasureCornerSweep is the perfgate entry point: one T9 measurement at
// the given tiled-chip target and worker count (0 = one per CPU).
func MeasureCornerSweep(target, workers int) T9Sample {
	return measureCornerPoint(target, workers, T9Repeats)
}

// t9Artifact is the BENCH_T6.json payload.
type t9Artifact struct {
	Experiment      string     `json:"experiment"`
	HostCPUs        int        `json:"host_cpus"`
	Repeats         int        `json:"repeats"`
	Corners         []string   `json:"corners"`
	ThroughputFloor float64    `json:"per_corner_throughput_floor"`
	MemCeiling      float64    `json:"sweep_mem_ceiling"`
	AllPass         bool       `json:"all_pass"`
	Samples         []T9Sample `json:"samples"`
}

// RunT9 sweeps the tiled chip across T9Targets, measuring the 3-corner
// sweep against single-corner analysis, and emits BENCH_T6.json.
func RunT9() *Report {
	var targets []int
	dropped := 0
	for _, t := range T9Targets() {
		if T9Cap > 0 && t > T9Cap && len(targets) > 0 {
			dropped++
			continue
		}
		targets = append(targets, t)
	}

	var samples []T9Sample
	allPass := true
	for _, target := range targets {
		s := measureCornerPoint(target, 1, T9Repeats)
		samples = append(samples, s)
		if !s.pass() {
			allPass = false
		}
	}

	tab := report.NewTable("Table T9 — multi-corner sweep scaling (slow/typ/fast over the shared plan)",
		"target", "transistors", "corners",
		"single (ms)", "sweep (ms)", "per-corner ratio",
		"single heap (MB)", "sweep heap (MB)", "mem ratio", "bit-identical")
	for _, s := range samples {
		eq := "yes"
		if !s.BitIdentical {
			eq = "NO"
		}
		tab.Add(s.Target, s.Transistors, s.Corners,
			float64(s.SingleNs)/1e6, float64(s.SweepNs)/1e6, s.PerCornerRatio,
			float64(s.SingleHeapBytes)/1e6, float64(s.SweepHeapBytes)/1e6, s.MemRatio, eq)
	}
	verdict := "PASS"
	if !allPass {
		verdict = "FAIL"
	}
	var names []string
	for _, c := range tech.Corners() {
		names = append(names, c.Name)
	}
	notes := fmt.Sprintf("claim under test: a %d-corner MCMM sweep over the shared netlist, stage\n"+
		"partition, and propagation plan sustains ≥%.2g× single-corner throughput per\n"+
		"corner and holds total live memory under %.2g× a single-corner analysis,\n"+
		"while every per-corner and merged output stays bit-identical to running the\n"+
		"corners independently with no shared plan. verdict: %s.\n"+
		"heap figures are reachable bytes after GC with the analysis products live —\n"+
		"netlist, partition, model(s), plan, arrivals, required times.\n"+
		"median of %d runs per timing after one warmup; netlist generation excluded.\n",
		len(names), T9ThroughputFloor, T9MemCeiling, verdict, T9Repeats)
	if dropped > 0 {
		notes += fmt.Sprintf("T9Cap=%d dropped the %d largest sweep point(s).\n", T9Cap, dropped)
	}

	art := t9Artifact{
		Experiment:      "T9",
		HostCPUs:        runtime.GOMAXPROCS(0),
		Repeats:         T9Repeats,
		Corners:         names,
		ThroughputFloor: T9ThroughputFloor,
		MemCeiling:      T9MemCeiling,
		AllPass:         allPass,
		Samples:         samples,
	}
	blob, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench T9: marshal samples: %v", err))
	}
	return &Report{ID: "T9", Title: "Multi-corner sweep scaling",
		Sections:  []string{tab.String(), notes},
		Artifacts: map[string][]byte{"BENCH_T6.json": append(blob, '\n')}}
}
