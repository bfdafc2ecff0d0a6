package core

import (
	"context"
	"errors"
	"math"

	"nmostv/internal/clocks"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// isInfPos reports +Inf.
func isInfPos(v float64) bool { return math.IsInf(v, 1) }

// isInfNeg reports -Inf.
func isInfNeg(v float64) bool { return math.IsInf(v, -1) }

// passes reports whether a result has no timing violations that depend on
// the clock period (latch, output, missed-window). Structural findings
// (dead paths, loops) do not block the period search — they are reported
// but no period fixes them.
func passes(r *Result) bool {
	for _, run := range r.checkRuns() {
		for i := range run {
			if c := &run[i]; !c.OK && (c.Kind == CheckLatch || c.Kind == CheckOutput || c.Kind == CheckMissedWindow) {
				return false
			}
		}
	}
	return true
}

// ErrNoPeriod is returned when even the upper search bound fails timing.
var ErrNoPeriod = errors.New("core: design fails timing even at the maximum searched period")

// MinPeriod binary-searches the smallest clock period, between lo and hi
// ns, at which the design passes all period-dependent checks. The base
// schedule's phase proportions are preserved. It returns the period, the
// analysis result at that period, and an error when even hi fails. tol is
// the absolute search tolerance in ns.
func MinPeriod(ctx context.Context, nl *netlist.Netlist, model *delay.Model, base clocks.Schedule, opt Options, lo, hi, tol float64) (float64, *Result, error) {
	if tol <= 0 {
		tol = 0.01
	}
	probe := func(T float64) (*Result, error) {
		return Analyze(ctx, nl, model, base.WithPeriod(T), opt)
	}
	rHi, err := probe(hi)
	if err != nil {
		return 0, nil, err
	}
	if !passes(rHi) {
		return 0, rHi, ErrNoPeriod
	}
	if rLo, err := probe(lo); err == nil && passes(rLo) {
		return lo, rLo, nil
	}
	best := rHi
	bestT := hi
	for hi-lo > tol {
		mid := (lo + hi) / 2
		r, err := probe(mid)
		if err != nil {
			return 0, nil, err
		}
		if passes(r) {
			hi, best, bestT = mid, r, mid
		} else {
			lo = mid
		}
	}
	return bestT, best, nil
}
