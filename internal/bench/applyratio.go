package bench

// The apply-ratio gate: what a designer's edit→check loop costs against
// loading the design. A single-device resize followed by the merged
// worst-slack read should pay for the changed cone, not the design, so
// its wall time is a small fraction of a cold load plus the load's first
// read. Both sides run in one process on the same chip, so the ratio
// does not depend on host speed. cmd/perfgate runs it when the committed
// baseline carries an apply_ratio_target_transistors entry.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/incr"
	"nmostv/internal/tech"
)

// ApplyRatioColdRuns and ApplyRatioEdits are how many cold loads and how
// many resize+read edits the gate takes the median of.
const (
	ApplyRatioColdRuns = 3
	ApplyRatioEdits    = 9
)

// ApplyRatioSample is one measurement of the apply-ratio gate.
type ApplyRatioSample struct {
	Transistors int `json:"transistors"`
	Workers     int `json:"workers"`
	Corners     int `json:"corners"`
	// ColdNS is the median of ColdRuns cold loads, each incr.New plus
	// its first merged Slack read.
	ColdRuns int   `json:"cold_runs"`
	ColdNS   int64 `json:"cold_ns"`
	// EditNS is the median of Edits single-device resizes, each followed
	// by the merged Slack read.
	Edits  int   `json:"edits"`
	EditNS int64 `json:"edit_ns"`
	// Ratio is EditNS / ColdNS.
	Ratio float64 `json:"ratio"`
	// ReusedWave counts the edits that kept the propagation plan.
	ReusedWave int `json:"reused_wave"`
}

// MeasureApplyRatio builds the tiled chip at the given transistor target
// and times, with slow/typ/fast corners, cold loads against resize+read
// edits on the last loaded session. The session's equivalence check runs
// after the edits, so a fast but wrong apply fails loudly.
func MeasureApplyRatio(target, workers int) ApplyRatioSample {
	p := tech.Default()
	cfg := gen.DefaultTiledChip(target)
	opts := incr.Options{Params: p, Sched: genericSchedule(),
		Core: core.Options{Workers: workers}, Corners: tech.Corners()}
	ctx := context.Background()
	slack := func(sess *incr.Session) {
		if _, err := sess.Slack(ctx, 10, ""); err != nil {
			panic(fmt.Sprintf("bench apply ratio: slack: %v", err))
		}
	}

	var sess *incr.Session
	cold := make([]int64, ApplyRatioColdRuns)
	for i := range cold {
		sess = nil // only one loaded chip is alive at a time
		nl := gen.TiledChip(p, cfg)
		start := time.Now()
		s, err := incr.New(ctx, "apply-ratio", nl, opts)
		if err != nil {
			panic(fmt.Sprintf("bench apply ratio: open: %v", err))
		}
		slack(s)
		cold[i] = time.Since(start).Nanoseconds()
		sess = s
	}

	devs := sess.Devices()
	edits := make([]int64, ApplyRatioEdits)
	reused := 0
	for i := range edits {
		d := devs[(i*len(devs))/len(edits)]
		start := time.Now()
		st, err := sess.Apply(ctx, []incr.Delta{{Op: "resize", ID: d.ID, W: d.W * 1.25}})
		if err != nil {
			panic(fmt.Sprintf("bench apply ratio: resize dev %d: %v", d.ID, err))
		}
		slack(sess)
		edits[i] = time.Since(start).Nanoseconds()
		if st.ReusedWave {
			reused++
		}
	}
	if err := sess.SelfCheck(ctx); err != nil {
		panic(fmt.Sprintf("bench apply ratio: equivalence check failed: %v", err))
	}
	coldMed, editMed := medianNS(cold), medianNS(edits)
	return ApplyRatioSample{
		Transistors: sess.Info().Devices,
		Workers:     workers,
		Corners:     len(opts.Corners),
		ColdRuns:    len(cold),
		ColdNS:      coldMed,
		Edits:       len(edits),
		EditNS:      editMed,
		Ratio:       float64(editMed) / float64(coldMed),
		ReusedWave:  reused,
	}
}

// medianNS returns the median of xs, sorting it in place.
func medianNS(xs []int64) int64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
