package bench

// T10: flight-recorder overhead. The daemon keeps a bounded per-request
// tracer attached to every request (internal/obs.FlightRecorder), so the
// recorder's cost rides the hot incremental-apply path. The design bound
// is <3% — one pooled span per wavefront level a pass relaxes, with
// lazily-formatted names, against a walk that touches every node in the
// cone — and this
// experiment measures it: interleaved recorder-on / recorder-off apply
// batches on the tiled benchmark chip, same devices, same resize factors,
// medians compared. cmd/perfgate re-runs the same measurement in CI when
// the committed baseline carries a recorder_target_transistors entry.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/incr"
	"nmostv/internal/obs"
	"nmostv/internal/report"
	"nmostv/internal/tech"
)

// T10Cap, when positive, drops measurement points whose transistor target
// exceeds it (the first point always survives). CI caps at 100k; the
// full-size 1M point is a workstation run.
var T10Cap int

// T10Pairs is how many recorder-on/recorder-off apply pairs each point
// measures after warm-up. Each pair resizes one device up and back down,
// alternating which direction the recorder observes, so cone shape and
// resize direction cancel out of the comparison.
var T10Pairs = 24

// T10OverheadCeiling is the acceptance bound: the median recorder-on
// apply must stay within 3% of the median recorder-off apply.
const T10OverheadCeiling = 1.03

// T10Sample is one machine-readable row of the T10 measurement, persisted
// as BENCH_T7.json.
type T10Sample struct {
	Transistors   int     `json:"transistors"`
	Workers       int     `json:"workers"`
	Pairs         int     `json:"pairs"`
	OffNSPerApply int64   `json:"off_ns_per_apply"`
	OnNSPerApply  int64   `json:"on_ns_per_apply"`
	Overhead      float64 `json:"overhead"`
	SpansPerApply int     `json:"spans_per_apply"`
	SpansDropped  int64   `json:"spans_dropped"`
}

func (s T10Sample) pass() bool { return s.Overhead <= T10OverheadCeiling }

// MeasureRecorderOverhead builds the tiled chip at the given transistor
// target, opens an incremental session on it, and times single-device
// resize applies with and without a flight-recorder request span in the
// context. Recorder-off applies run with a nil tracer — the wavefront
// walk's zero-alloc configuration — and recorder-on applies run under a
// real FlightRecorder.Start/Finish cycle, so the measured delta includes
// span recording, snapshotting, and ring insertion, exactly what every
// daemon request pays. cmd/perfgate calls this for the CI gate.
func MeasureRecorderOverhead(target, workers int) T10Sample {
	p := tech.Default()
	nl := gen.TiledChip(p, gen.DefaultTiledChip(target))
	opts := incr.Options{Params: p, Sched: genericSchedule(), Core: core.Options{Workers: workers}}
	ctx := context.Background()
	sess, err := incr.New(ctx, "t10", nl, opts)
	if err != nil {
		panic(fmt.Sprintf("bench T10: open: %v", err))
	}
	if _, err := sess.Full(ctx); err != nil {
		panic(fmt.Sprintf("bench T10: full: %v", err))
	}
	devs := sess.Devices()
	info := sess.Info()
	rec := obs.NewFlightRecorder(4, 0)

	var spans int
	var dropped int64
	apply := func(recorded bool, id int64, w float64) int64 {
		actx := ctx
		var rs *obs.ReqSpan
		if recorded {
			rs = rec.Start(obs.TraceContext{}, "POST", "/delta")
			actx = obs.WithRequest(ctx, rs)
		}
		st, err := sess.Apply(actx, []incr.Delta{{Op: "resize", ID: id, W: w}})
		if err != nil {
			panic(fmt.Sprintf("bench T10: resize dev %d: %v", id, err))
		}
		if recorded {
			rt := rec.Finish(rs, "/delta", 200, false)
			spans = len(rt.Spans)
			dropped = rt.Dropped
		}
		return st.Elapsed.Nanoseconds()
	}

	// Warm-up: prime the wave plan, the span pool, and the allocator on
	// a device the timed loop does not revisit.
	for i := 0; i < 3; i++ {
		d := devs[0]
		apply(true, d.ID, d.W*1.25)
		apply(false, d.ID, d.W)
	}

	var on, off []int64
	for i := 0; i < T10Pairs; i++ {
		d := devs[1+((i*(len(devs)-1))/T10Pairs)]
		// Alternate which direction the recorder observes, so widening
		// vs narrowing cost cancels across the pair sequence.
		recFirst := i%2 == 0
		a := apply(recFirst, d.ID, d.W*1.25)
		b := apply(!recFirst, d.ID, d.W)
		if recFirst {
			on, off = append(on, a), append(off, b)
		} else {
			off, on = append(off, a), append(on, b)
		}
	}
	if err := sess.SelfCheck(ctx); err != nil {
		panic(fmt.Sprintf("bench T10: equivalence check failed: %v", err))
	}
	med := func(xs []int64) int64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs[len(xs)/2]
	}
	onMed, offMed := med(on), med(off)
	return T10Sample{
		Transistors:   info.Devices,
		Workers:       workers,
		Pairs:         T10Pairs,
		OffNSPerApply: offMed,
		OnNSPerApply:  onMed,
		Overhead:      float64(onMed) / float64(offMed),
		SpansPerApply: spans,
		SpansDropped:  dropped,
	}
}

// t10Artifact is the BENCH_T7.json payload.
type t10Artifact struct {
	Experiment      string      `json:"experiment"`
	OverheadCeiling float64     `json:"overhead_ceiling"`
	Pass            bool        `json:"pass"`
	Samples         []T10Sample `json:"samples"`
}

// RunT10 measures flight-recorder overhead on the incremental apply path
// at 100k and (uncapped) 1M transistors, and emits BENCH_T7.json.
func RunT10() *Report {
	var targets []int
	dropped := 0
	for _, t := range []int{100_000, 1_000_000} {
		if T10Cap > 0 && t > T10Cap && len(targets) > 0 {
			dropped++
			continue
		}
		targets = append(targets, t)
	}

	var samples []T10Sample
	pass := true
	for _, target := range targets {
		s := MeasureRecorderOverhead(target, Workers)
		pass = pass && s.pass()
		samples = append(samples, s)
	}

	tab := report.NewTable("Table T10 — flight-recorder overhead on the incremental apply path",
		"transistors", "pairs", "off (µs)", "on (µs)", "overhead %", "spans/apply", "ok")
	for _, s := range samples {
		tab.Add(s.Transistors, s.Pairs,
			float64(s.OffNSPerApply)/1e3, float64(s.OnNSPerApply)/1e3,
			100*(s.Overhead-1), s.SpansPerApply, s.pass())
	}
	verdict := "PASS"
	if !pass {
		verdict = "FAIL"
	}
	notes := fmt.Sprintf("claim under test: the always-on flight recorder — a bounded pooled-span\n"+
		"tracer attached to every request — costs under %.0f%% on the incremental\n"+
		"apply path, so tvd can afford it on every request rather than sampling.\n"+
		"Medians of %d interleaved on/off apply pairs per point; %s.\n",
		100*(T10OverheadCeiling-1), T10Pairs, verdict)
	if dropped > 0 {
		notes += fmt.Sprintf("T10Cap=%d dropped the %d largest point(s).\n", T10Cap, dropped)
	}

	blob, err := json.MarshalIndent(t10Artifact{
		Experiment: "T10", OverheadCeiling: T10OverheadCeiling,
		Pass: pass, Samples: samples,
	}, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench T10: marshal samples: %v", err))
	}
	return &Report{ID: "T10", Title: "Flight-recorder overhead",
		Sections:  []string{tab.String(), notes},
		Artifacts: map[string][]byte{"BENCH_T7.json": append(blob, '\n')}}
}
