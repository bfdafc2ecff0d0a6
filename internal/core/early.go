package core

import (
	"math"
)

// PosInf is the earliest arrival of a node that never transitions.
var PosInf = math.Inf(1)

// propagateEarly computes earliest (best-case) arrival times — the
// shortest-path dual of the settle computation. Two-phase discipline needs
// it for race margins: how much clock skew the design tolerates before a
// newly launched value could reach a latch whose previous-phase clock has
// not yet closed.
func (a *analysis) propagateEarly() {
	// The arrays were laid out by Result.allocArrays; fill in place
	// rather than allocating a fresh pair per pass.
	fillFloat(a.EarlyRise, PosInf)
	fillFloat(a.EarlyFall, PosInf)

	// Sources get the same anchor times as the settle pass: a clock
	// edge happens exactly at its scheduled time; an input changes at
	// its given time; a precharged node is high from the cycle start.
	for _, nd := range a.NL.Nodes {
		if a.fixedRise[nd.Index] && !isInfNeg(a.RiseAt[nd.Index]) {
			a.EarlyRise[nd.Index] = a.RiseAt[nd.Index]
		}
		if a.fixedFall[nd.Index] && !isInfNeg(a.FallAt[nd.Index]) {
			a.EarlyFall[nd.Index] = a.FallAt[nd.Index]
		}
	}

	// Same wavefront as the settle pass (min-relaxation is as
	// order-independent within a level as max-relaxation).
	ws := a.wave
	a.forEachComp(func(ci int32) {
		comp := ws.comp(ci)
		if !ws.cyclic[ci] {
			a.relaxNodeEarly(int(comp[0]), ws.in(comp[0]))
			return
		}
		bound := a.opt.SCCIterBound*len(comp) + 8
		for iter := 0; iter < bound; iter++ {
			changed := false
			for _, idx := range comp {
				if a.relaxNodeEarly(int(idx), ws.in(idx)) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	})
}

// relaxNodeEarly recomputes both polarities' earliest arrivals from the
// incoming arcs (min instead of max). Storage nodes launch from clock arcs
// only, as in the settle pass.
func (a *analysis) relaxNodeEarly(idx int, incoming []int32) bool {
	storage := a.clockedStorage[idx]
	changed := false
	for _, pol := range bothPols {
		if a.isFixed(idx, pol) {
			continue
		}
		best := a.earlyArrival(idx, pol)
		for _, ei := range incoming {
			if storage && !a.Model.IsClock(a.Model.Edges[ei].From) {
				continue
			}
			t, ok := a.relaxEdgeEarly(int(ei), pol)
			if ok && t < best {
				best = t
				changed = true
			}
		}
		if changed {
			a.setEarly(idx, pol, best)
		}
	}
	return changed
}

// relaxEdgeEarly is relaxEdge with best-case semantics: the cause's
// earliest arrival, clamped into the clock window for masked arcs.
func (a *analysis) relaxEdgeEarly(ei int, target Polarity) (t float64, ok bool) {
	e := &a.Model.Edges[ei]
	var d float64
	var mask uint8
	if target == Rise {
		d, mask = e.DRise, e.MaskRise
	} else {
		d, mask = e.DFall, e.MaskFall
	}
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
		return a.EarlyRise[idx]
	}
	return a.EarlyFall[idx]
}

func (a *analysis) setEarly(idx int, pol Polarity, t float64) {
	if pol == Rise {
		a.EarlyRise[idx] = t
	} else {
		a.EarlyFall[idx] = t
	}
}

// SkewTolerance returns the smallest race margin in ns — how much relative
// clock skew the design tolerates — and whether any race check exists.
func (r *Result) SkewTolerance() (float64, bool) {
	min, ok := math.Inf(1), false
	for _, c := range r.Checks {
		if c.Kind == CheckRace {
			if c.Slack < min {
				min = c.Slack
			}
			ok = true
		}
	}
	return min, ok
}
