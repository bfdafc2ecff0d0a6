package core

import (
	"math"
	"slices"

	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// A node's checks depend only on its own inputs: its in-arcs, the settle
// and early arrivals of those arcs' causes, its storage class, its output
// flag and its loop status. So the checks are derived one node at a time
// (nodeChecks), and an incremental analysis whose arcs did not move
// re-derives them only at the nodes whose inputs can have changed and
// splices them into the previous list.

// kindRank orders the kinds of checks on one node, slack and polarity
// being equal: latch, missed-window, dead-path, output, loop, race.
var kindRank = [...]uint8{
	CheckLatch:        0,
	CheckMissedWindow: 1,
	CheckDeadPath:     2,
	CheckOutput:       3,
	CheckLoop:         4,
	CheckRace:         5,
}

// compareChecks is the report order: violations first, then slack, node
// and polarity, then kind, phase and producing arc. A node has at most
// one check per (kind, polarity, phase) except missed-window checks,
// which are one per arc, so the order is total and the list canonical:
// any two passes that derive the same checks list them identically,
// however they found them.
func compareChecks(x, y *Check) int {
	switch {
	case x.OK != y.OK:
		if !x.OK {
			return -1
		}
		return 1
	case x.Slack != y.Slack:
		if x.Slack < y.Slack {
			return -1
		}
		return 1
	case x.Node.Index != y.Node.Index:
		return x.Node.Index - y.Node.Index
	case x.Pol != y.Pol:
		return int(x.Pol) - int(y.Pol)
	case x.Kind != y.Kind:
		return int(kindRank[x.Kind]) - int(kindRank[y.Kind])
	case x.Phase != y.Phase:
		return x.Phase - y.Phase
	default:
		return int(x.edge) - int(y.edge)
	}
}

// runChecks populates Result.Checks from the settled arrivals. With a nil
// prev it derives every node's checks. Otherwise prev is the previous
// result's list over the same arcs, nodes lists in index order the nodes
// whose checks can have changed and affected tests membership in it:
// only their checks are derived again, and the previous list minus its
// checks on those nodes is merged with the new ones, which the total
// order makes equal to a full pass.
func (a *analysis) runChecks(prev []Check, nodes []int32, affected func(v int32) bool) {
	var fresh []Check
	loops := a.loopNodes // in index order, like the nodes
	derive := func(v int32) {
		for len(loops) > 0 && int32(loops[0].Index) < v {
			loops = loops[1:]
		}
		fresh = a.nodeChecks(v, len(loops) > 0 && int32(loops[0].Index) == v, fresh)
	}
	if prev == nil {
		for v := range a.NL.Nodes {
			derive(int32(v))
		}
		a.Checks = sortChecks(fresh)
		return
	}
	for _, v := range nodes {
		derive(v)
	}
	fresh = sortChecks(fresh)
	out := make([]Check, 0, len(prev)+len(fresh))
	j := 0
	for i := range prev {
		if affected(int32(prev[i].Node.Index)) {
			continue
		}
		for j < len(fresh) && compareChecks(&fresh[j], &prev[i]) < 0 {
			out = append(out, fresh[j])
			j++
		}
		out = append(out, prev[i])
	}
	a.Checks = append(out, fresh[j:]...)
}

// sortChecks returns the checks in report order. It sorts an index
// permutation, so a swap moves four bytes, not a whole Check.
func sortChecks(checks []Check) []Check {
	idx := make([]int32, len(checks))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int { return compareChecks(&checks[i], &checks[j]) })
	out := make([]Check, len(checks))
	for i, j := range idx {
		out[i] = checks[j]
	}
	return out
}

// nodeChecks appends node v's checks to out. Its in-arcs come in
// ascending arc order, so where several arcs qualify for one check —
// the worst latch check per polarity and phase, the first dead-path arc,
// the worst race margin per phase — the first of equal candidates in arc
// order wins.
func (a *analysis) nodeChecks(v int32, loop bool, out []Check) []Check {
	node := a.NL.Nodes[v]
	storage := a.src.storage[v]
	latch := [4]int{-1, -1, -1, -1} // by 2·(phase−1) + polarity: index into out
	race := [2]int{-1, -1}          // by phase−1
	dead := false
	for _, ei := range a.wave.in(v) {
		e := a.Model.Arc(ei)
		raceArc := storage && !a.Model.IsClock(e.From)
		for _, pol := range bothPols {
			d, mask := a.Model.Delay(e, pol == Fall)
			if mask == 0 || isInfPos(d) {
				continue
			}
			clamp, deadline, _, alive := a.maskWindow(mask)
			if !alive {
				if !dead {
					dead = true
					out = append(out, Check{Kind: CheckDeadPath, Node: node, Pol: pol, OK: false, edge: ei})
				}
				continue
			}
			phase := 1
			if mask == delay.MaskPhi2 {
				phase = 2
			}
			if raceArc {
				out = a.raceCheck(out, &race[phase-1], e, ei, node, pol, phase)
			}
			cause := a.arrival(int(e.From), causePol(e, pol))
			if isInfNeg(cause) {
				continue
			}
			// Data arcs into φ1 storage wrap into the next cycle's
			// window: in the canonical frame (φ1 first), φ1 latches
			// capture values produced by the preceding φ2 half — i.e.
			// across the cycle boundary. φ2 latches capture same-cycle
			// φ1-launched data and must not wrap: missing their window
			// is a real violation, and allowing the wrap would also
			// make period feasibility non-monotone (a silently
			// multicycle reinterpretation of the design).
			if cause > deadline && phase == 1 && storage {
				clamp += a.Sched.Period
				deadline += a.Sched.Period
			}
			if cause > deadline {
				out = append(out, Check{
					Kind: CheckMissedWindow, Node: node, Pol: pol, Phase: phase,
					Arrival: cause, Deadline: deadline,
					Slack: deadline - cause, OK: false, edge: ei,
				})
				continue
			}
			launch := cause
			if launch < clamp {
				launch = clamp
			}
			arr := launch + d
			c := Check{
				Kind: CheckLatch, Node: node, Pol: pol, Phase: phase,
				Arrival: arr, Deadline: deadline,
				Slack: deadline - arr, OK: deadline-arr >= 0,
				edge: ei,
			}
			slot := &latch[2*(phase-1)+int(pol)]
			if *slot < 0 {
				*slot = len(out)
				out = append(out, c)
			} else if c.Slack < out[*slot].Slack {
				out[*slot] = c
			}
		}
	}
	if node.Flags.Has(netlist.FlagOutput) {
		if s := a.Settle(node); !isInfNeg(s) {
			pol := Rise
			if a.FallAt.At(int(v)) > a.RiseAt.At(int(v)) {
				pol = Fall
			}
			out = append(out, Check{
				Kind: CheckOutput, Node: node, Pol: pol,
				Arrival: s, Deadline: a.Sched.Period,
				Slack: a.Sched.Period - s, OK: a.Sched.Period-s >= 0,
				edge: -1,
			})
		}
	}
	if loop {
		out = append(out, Check{Kind: CheckLoop, Node: node, OK: false, edge: -1})
	}
	return out
}

// raceCheck keeps, in *slot, the worst race margin of a clocked data arc
// into storage at one phase: the earliest same-cycle data arrival
// measured against the previous closing of that clock (Fall(phase) − T).
// The margin is the clock skew the latch tolerates before freshly
// launched data could reach it while still transparent from the previous
// phase. Informational in a correct design — margins are large and
// positive — but the number a designer trimming non-overlap wants.
func (a *analysis) raceCheck(out []Check, slot *int, e *delay.Edge, ei int32, node *netlist.Node, pol Polarity, phase int) []Check {
	cause := a.earlyArrival(int(e.From), causePol(e, pol))
	if math.IsInf(cause, 1) {
		return out
	}
	prevClose := a.Sched.Fall(phase) - a.Sched.Period
	margin := cause - prevClose
	c := Check{
		Kind: CheckRace, Node: node, Pol: pol, Phase: phase,
		Arrival: cause, Deadline: prevClose,
		Slack: margin, OK: margin >= 0,
		edge: ei,
	}
	if *slot < 0 {
		*slot = len(out)
		return append(out, c)
	}
	if c.Slack < out[*slot].Slack {
		out[*slot] = c
	}
	return out
}
