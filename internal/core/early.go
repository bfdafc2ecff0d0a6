package core

import (
	"math"
)

// PosInf is the earliest arrival of a node that never transitions.
var PosInf = math.Inf(1)

// relaxNodeEarly recomputes both polarities' earliest (best-case)
// arrivals from the incoming arcs: the shortest-path dual of relaxNode,
// min instead of max. Two-phase discipline needs them for race margins:
// how much clock skew the design tolerates before a newly launched value
// could reach a latch whose previous-phase clock has not yet closed.
// Storage nodes launch from clock arcs only, as in the settle pass.
// fresh starts from PosInf and stores only a value that moved, as
// relaxNode does.
func (a *analysis) relaxNodeEarly(v int32, fresh bool) bool {
	idx := int(v)
	storage := a.src.storage[idx]
	changed := false
	for _, pol := range bothPols {
		if a.isFixed(idx, pol) {
			continue
		}
		cur := a.earlyArrival(idx, pol)
		best := cur
		if fresh {
			best = PosInf
		}
		for _, ei := range a.wave.in(v) {
			if storage && !a.Model.IsClock(a.Model.Arc(ei).From) {
				continue
			}
			t, ok := a.relaxEdgeEarly(ei, pol)
			if ok && t < best {
				best = t
			}
		}
		if fresh && !sameBits(best, cur) || !fresh && best < cur {
			a.setEarly(idx, pol, best)
			changed = true
		}
	}
	return changed
}

// relaxEdgeEarly is relaxEdge with best-case semantics: the cause's
// earliest arrival, clamped into the clock window for masked arcs.
func (a *analysis) relaxEdgeEarly(ei int32, target Polarity) (t float64, ok bool) {
	e := a.Model.Arc(ei)
	d, mask := a.Model.Delay(e, target == Fall)
	if math.IsInf(d, 1) {
		return 0, false
	}
	cause := a.earlyArrival(int(e.From), causePol(e, target))
	if math.IsInf(cause, 1) {
		return 0, false
	}
	clamp, deadline, constrained, alive := a.maskWindow(mask)
	if !alive {
		return 0, false
	}
	if constrained {
		if cause > deadline {
			return 0, false
		}
		if cause < clamp {
			cause = clamp
		}
	}
	return cause + d, true
}

func (a *analysis) earlyArrival(idx int, pol Polarity) float64 {
	if pol == Rise {
		return a.EarlyRise.At(idx)
	}
	return a.EarlyFall.At(idx)
}

func (a *analysis) setEarly(idx int, pol Polarity, t float64) {
	if pol == Rise {
		a.EarlyRise.Set(idx, t)
	} else {
		a.EarlyFall.Set(idx, t)
	}
}

// SkewTolerance returns the smallest race margin in ns — how much relative
// clock skew the design tolerates — and whether any race check exists.
func (r *Result) SkewTolerance() (float64, bool) {
	min, ok := math.Inf(1), false
	for _, run := range r.checkRuns() {
		for i := range run {
			if c := &run[i]; c.Kind == CheckRace {
				if c.Slack < min {
					min = c.Slack
				}
				ok = true
			}
		}
	}
	return min, ok
}
