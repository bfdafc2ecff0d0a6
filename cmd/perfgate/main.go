// Command perfgate is the CI performance smoke gate. It measures
// full-pipeline throughput (stage extraction, flow inference, delay
// build, case analysis) on the tiled benchmark chip at the size recorded
// in the committed baseline — 100k transistors, small enough for a CI
// runner, large enough to expose an allocation or GC regression in the
// structure-of-arrays core — and exits nonzero if transistors/sec falls
// more than -tol below the baseline figure.
//
// The baseline (testdata/perf_baseline.json) is committed deliberately
// low relative to the reference-host measurement so that runner-to-
// runner hardware variance does not trip the gate; the gate exists to
// catch order-of-magnitude regressions (a pointer chase or per-edge
// allocation creeping back into the walk), not single-digit noise.
//
// Usage:
//
// When the baseline carries a corner_target_transistors entry, the gate
// also measures the 3-corner MCMM sweep at that size (bench T9) and
// fails unless the sweep's per-corner throughput clears corner_ratio_floor
// times the single-corner rate, its live heap stays under the T9 memory
// ceiling, and its outputs match independent per-corner runs bit for bit.
//
// When the baseline carries a recorder_target_transistors entry, the gate
// also measures flight-recorder overhead on the incremental apply path at
// that size (bench T10) and fails if the recorder-on median exceeds
// recorder_overhead_ceiling times the recorder-off median — the recorder
// is always on in production, so a regression here taxes every request.
//
// When the baseline carries an apply_ratio_target_transistors entry, the
// gate also measures the edit→check loop against a cold load at that
// size, three corners: the median single-device resize followed by the
// merged slack read must stay within apply_ratio_ceiling times the median
// cold load plus its first slack read. A resize that costs as much as a
// load — an O(design) step on the apply or read path — fails it.
//
// Usage:
//
//	perfgate                      # gate against testdata/perf_baseline.json
//	perfgate -tol 0.30            # allowed fractional regression
//	perfgate -out BENCH_T5.json   # also persist the measurement as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"nmostv/internal/bench"
)

type baseline struct {
	Target      int     `json:"target_transistors"`
	Workers     int     `json:"workers"`
	TransPerSec float64 `json:"transistors_per_sec"`
	// CornerTarget, when positive, adds the multi-corner gate: a 3-corner
	// sweep at this size must keep per-corner throughput at or above
	// CornerRatioFloor × the single-corner rate (0 = the T9 default).
	CornerTarget     int     `json:"corner_target_transistors,omitempty"`
	CornerRatioFloor float64 `json:"corner_ratio_floor,omitempty"`
	// RecorderTarget, when positive, adds the flight-recorder gate: the
	// incremental apply path with a recorder request span attached must
	// stay within RecorderOverheadCeiling × the recorder-off median at
	// this size (0 = the T10 default, 1.03).
	RecorderTarget          int     `json:"recorder_target_transistors,omitempty"`
	RecorderOverheadCeiling float64 `json:"recorder_overhead_ceiling,omitempty"`
	// JournalTarget, when positive, adds the durability gate: the
	// journaled apply (append, no fsync) at this size must stay within
	// JournalOverheadCeiling × the bare apply median (0 = the T11
	// default, 1.25).
	JournalTarget          int     `json:"journal_target_transistors,omitempty"`
	JournalOverheadCeiling float64 `json:"journal_overhead_ceiling,omitempty"`
	// ApplyRatioTarget, when positive, adds the apply-ratio gate: at this
	// size, three corners, the median resize+slack edit must stay within
	// ApplyRatioCeiling × the median cold load+slack.
	ApplyRatioTarget  int     `json:"apply_ratio_target_transistors,omitempty"`
	ApplyRatioCeiling float64 `json:"apply_ratio_ceiling,omitempty"`
	Note              string  `json:"note,omitempty"`
}

type gateResult struct {
	Experiment string         `json:"experiment"`
	Baseline   baseline       `json:"baseline"`
	Floor      float64        `json:"floor_trans_per_sec"`
	Pass       bool           `json:"pass"`
	Sample     bench.T8Sample `json:"sample"`
	// CornerFloor and CornerSample are present when the baseline enables
	// the multi-corner gate.
	CornerFloor  float64         `json:"corner_ratio_floor,omitempty"`
	CornerSample *bench.T9Sample `json:"corner_sample,omitempty"`
	// RecorderCeiling and RecorderSample are present when the baseline
	// enables the flight-recorder gate.
	RecorderCeiling float64          `json:"recorder_overhead_ceiling,omitempty"`
	RecorderSample  *bench.T10Sample `json:"recorder_sample,omitempty"`
	// JournalCeiling and JournalSample are present when the baseline
	// enables the durability gate.
	JournalCeiling float64          `json:"journal_overhead_ceiling,omitempty"`
	JournalSample  *bench.T11Sample `json:"journal_sample,omitempty"`
	// ApplyRatioCeiling and ApplyRatioSample are present when the
	// baseline enables the apply-ratio gate.
	ApplyRatioCeiling float64                 `json:"apply_ratio_ceiling,omitempty"`
	ApplyRatioSample  *bench.ApplyRatioSample `json:"apply_ratio_sample,omitempty"`
}

func main() {
	basePath := flag.String("baseline", "testdata/perf_baseline.json", "committed throughput baseline")
	tol := flag.Float64("tol", 0.30, "allowed fractional regression below the baseline")
	out := flag.String("out", "", "optional path to persist the measurement as JSON")
	flag.Parse()

	blob, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	var b baseline
	if err := json.Unmarshal(blob, &b); err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: parse %s: %v\n", *basePath, err)
		os.Exit(2)
	}
	if b.Target <= 0 || b.TransPerSec <= 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %s: target and transistors_per_sec must be positive\n", *basePath)
		os.Exit(2)
	}

	sample := bench.MeasureTiled(b.Target, b.Workers)
	floor := b.TransPerSec * (1 - *tol)
	pass := sample.TransPerSec >= floor

	fmt.Printf("perfgate: %d transistors, %d workers: %.0f trans/s (median of %d runs)\n",
		sample.Transistors, sample.Workers, sample.TransPerSec, bench.T8Repeats)
	fmt.Printf("perfgate: baseline %.0f trans/s, tolerance %.0f%% -> floor %.0f trans/s\n",
		b.TransPerSec, *tol*100, floor)

	var cornerSample *bench.T9Sample
	cornerFloor := b.CornerRatioFloor
	cornerPass := true
	if b.CornerTarget > 0 {
		if cornerFloor <= 0 {
			cornerFloor = bench.T9ThroughputFloor
		}
		cs := bench.MeasureCornerSweep(b.CornerTarget, b.Workers)
		cornerSample = &cs
		cornerPass = cs.BitIdentical && cs.PerCornerRatio >= cornerFloor &&
			cs.MemRatio < bench.T9MemCeiling
		fmt.Printf("perfgate: %d-corner sweep at %d transistors: %.2f× per-corner throughput (floor %.2f), %.2f× memory (ceiling %.2g), bit-identical %v\n",
			cs.Corners, cs.Transistors, cs.PerCornerRatio, cornerFloor, cs.MemRatio, bench.T9MemCeiling, cs.BitIdentical)
	}

	var recorderSample *bench.T10Sample
	recorderCeiling := b.RecorderOverheadCeiling
	recorderPass := true
	if b.RecorderTarget > 0 {
		if recorderCeiling <= 0 {
			recorderCeiling = bench.T10OverheadCeiling
		}
		rs := bench.MeasureRecorderOverhead(b.RecorderTarget, b.Workers)
		recorderSample = &rs
		recorderPass = rs.Overhead <= recorderCeiling
		fmt.Printf("perfgate: flight recorder at %d transistors: %.2f%% apply overhead (ceiling %.0f%%), %d spans/apply, medians of %d pairs\n",
			rs.Transistors, 100*(rs.Overhead-1), 100*(recorderCeiling-1), rs.SpansPerApply, rs.Pairs)
	}

	var journalSample *bench.T11Sample
	journalCeiling := b.JournalOverheadCeiling
	journalPass := true
	if b.JournalTarget > 0 {
		if journalCeiling <= 0 {
			journalCeiling = bench.T11OverheadCeiling
		}
		js := bench.MeasureDurability(b.JournalTarget, b.Workers)
		journalSample = &js
		journalPass = js.Overhead <= journalCeiling
		fmt.Printf("perfgate: journal at %d transistors: %.2f%% apply overhead (ceiling %.0f%%), snapshot %.1f MiB save %.1fms restore %.1fms\n",
			js.Transistors, 100*(js.Overhead-1), 100*(journalCeiling-1),
			float64(js.SnapshotBytes)/(1<<20), float64(js.SaveNS)/1e6, float64(js.RestoreNS)/1e6)
	}

	var applySample *bench.ApplyRatioSample
	applyPass := true
	if b.ApplyRatioTarget > 0 {
		as := bench.MeasureApplyRatio(b.ApplyRatioTarget, b.Workers)
		applySample = &as
		applyPass = as.Ratio <= b.ApplyRatioCeiling
		fmt.Printf("perfgate: resize+slack at %d transistors, %d corners: %.1fms against cold load+slack %.1fms = %.2f× (ceiling %.2f×), %d of %d edits kept the plan\n",
			as.Transistors, as.Corners, float64(as.EditNS)/1e6, float64(as.ColdNS)/1e6,
			as.Ratio, b.ApplyRatioCeiling, as.ReusedWave, as.Edits)
	}

	if *out != "" {
		res := gateResult{Experiment: "perf-smoke", Baseline: b, Floor: floor,
			Pass: pass && cornerPass && recorderPass && journalPass && applyPass, Sample: sample,
			CornerFloor: cornerFloor, CornerSample: cornerSample,
			RecorderCeiling: recorderCeiling, RecorderSample: recorderSample,
			JournalCeiling: journalCeiling, JournalSample: journalSample,
			ApplyRatioCeiling: b.ApplyRatioCeiling, ApplyRatioSample: applySample}
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: marshal: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("perfgate: wrote %s\n", *out)
	}

	if !pass {
		fmt.Fprintf(os.Stderr, "perfgate: FAIL — throughput regressed more than %.0f%% below baseline\n", *tol*100)
		os.Exit(1)
	}
	if !cornerPass {
		fmt.Fprintf(os.Stderr, "perfgate: FAIL — multi-corner sweep missed its throughput, memory, or bit-identity budget\n")
		os.Exit(1)
	}
	if !recorderPass {
		fmt.Fprintf(os.Stderr, "perfgate: FAIL — flight recorder overhead exceeded its ceiling on the apply path\n")
		os.Exit(1)
	}
	if !journalPass {
		fmt.Fprintf(os.Stderr, "perfgate: FAIL — journal append overhead exceeded its ceiling on the apply path\n")
		os.Exit(1)
	}
	if !applyPass {
		fmt.Fprintf(os.Stderr, "perfgate: FAIL — a resize plus its slack read exceeded its ceiling against a cold load\n")
		os.Exit(1)
	}
	fmt.Println("perfgate: PASS")
}
