package paths

import (
	"math"

	"nmostv/internal/core"
)

// WhyHop is one hop of a "why late" explanation, source first.
type WhyHop struct {
	// Node and Pol identify the transition.
	Node int32
	Pol  core.Polarity
	// Arc is the dominant producing arc; -1 at the source hop.
	Arc int32
	// ViaID is the stable device ID of the arc's transistor; 0 at the
	// source and for arcs with no device.
	ViaID int64
	// Delay is the arc's delay (ns); 0 at the source.
	Delay float64
	// Launch is when the cause took effect; Wait = Launch minus the
	// previous hop's arrival, the time spent waiting at a clock-window
	// opening (0 when the hop launched immediately).
	Launch float64
	Wait   float64
	// Arrival is the engine's fixpoint arrival of this transition —
	// exactly Launch + Delay, bit for bit, because the walk replays the
	// relaxation that set it.
	Arrival float64
	// Clamped reports the launch waited for a clock edge.
	Clamped bool
	// Invert reports the arc flips polarity (restoring logic).
	Invert bool
}

// Why explains a node's worst arrival: the chain of dominant-arrival
// predecessors from a fixed source (input, clock edge, precharge seed)
// to the asked transition, with per-hop delay and clock-wait
// contributions.
type Why struct {
	Node    int32
	Pol     core.Polarity
	Arrival float64
	Hops    []WhyHop
}

// WhyLate traces the dominant-arrival chain of (node, pol) on res.
// ok=false when the transition never happens (arrival -Inf). The walk
// reads only immutable result state and reproduces the engine's exact
// arithmetic: at every hop, Arrival == Launch + Delay and
// Launch == max(previous Arrival, window clamp) hold bitwise, and the
// last hop's Arrival is the node's published arrival.
func WhyLate(res *core.Result, node int32, pol core.Polarity) (Why, bool) {
	arrivalOf := func(v int32, p core.Polarity) float64 {
		if p == core.Rise {
			return res.RiseAt.At(int(v))
		}
		return res.FallAt.At(int(v))
	}
	if math.IsInf(arrivalOf(node, pol), -1) {
		return Why{}, false
	}
	// Collect the chain endpoint-backward. The dominant-pred graph of a
	// converged analysis is acyclic (every hop strictly looks at an
	// earlier-or-equal arrival with a positive-delay arc), but a
	// non-converged loop node could in principle point into its own
	// cycle, so the walk carries a visited set and stops cleanly rather
	// than spinning.
	type link struct {
		node int32
		pol  core.Polarity
		arc  int32
	}
	var chain []link
	seen := make(map[link]bool)
	cur, curPol := node, pol
	for {
		arc, fromPol := res.DominantPred(int(cur), curPol)
		l := link{cur, curPol, arc}
		if seen[l] {
			break
		}
		seen[l] = true
		chain = append(chain, l)
		if arc < 0 {
			break
		}
		cur, curPol = res.Model.Arc(arc).From, fromPol
	}
	// Replay forward: chain is endpoint-first, so walk it backward.
	w := Why{Node: node, Pol: pol, Arrival: arrivalOf(node, pol)}
	w.Hops = make([]WhyHop, 0, len(chain))
	last := chain[len(chain)-1]
	t := arrivalOf(last.node, last.pol)
	w.Hops = append(w.Hops, WhyHop{Node: last.node, Pol: last.pol, Arc: -1, Launch: t, Arrival: t})
	for i := len(chain) - 2; i >= 0; i-- {
		l := chain[i]
		e := res.Model.Arc(l.arc)
		d, mask := res.Model.Delay(e, l.pol == core.Fall)
		clamp, _, constrained, _ := core.MaskWindow(res.Sched, mask)
		launch, clamped := t, false
		if constrained && launch < clamp {
			launch, clamped = clamp, true
		}
		arr := arrivalOf(l.node, l.pol)
		w.Hops = append(w.Hops, WhyHop{
			Node: l.node, Pol: l.pol, Arc: l.arc, ViaID: e.Via,
			Delay: d, Launch: launch, Wait: launch - t,
			Arrival: arr, Clamped: clamped, Invert: e.Invert,
		})
		t = arr
	}
	return w, true
}
