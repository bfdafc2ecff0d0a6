package core

import (
	"math"
	"slices"
	"sort"

	"nmostv/internal/cow"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// A node's checks depend only on its own inputs: its in-arcs, the settle
// and early arrivals of those arcs' causes, its storage class, its output
// flag and its loop status. So the checks are derived one node at a time
// (nodeChecks) and kept by node, in blocks of cow.ChunkLen nodes: block b
// holds the checks of nodes b<<cow.Shift up to the next block's first
// node, node by node in index order and each node's in report order. An
// incremental analysis whose arcs did not move re-derives only the nodes
// whose inputs can have changed, copies the block table and rebuilds the
// blocks that hold those nodes; it shares every other block with the
// previous result. A published block is never written again, and each
// is an allocation of its own, so one a later version replaced goes once
// no kept version holds it.
//
// Report order is a read (CheckList). An analysis without a previous
// result fills Checks in report order, as tv and the library report it,
// and derives its blocks from that list on their first use, so a batch
// run holds one copy of its checks. An incremental result sorts its
// blocks into the list on the first CheckList call.

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

// runChecks derives the checks from the settled arrivals. With a nil
// prev it derives every node's: into Checks, in report order, for an
// analysis without a previous result, and into blocks otherwise. Else prev
// is the previous result over the same arcs and schedule and nodes lists,
// in index order, the nodes whose checks can have changed: only theirs are
// derived again, and only the blocks that hold them are rebuilt, from
// prev's block minus its checks on those nodes merged by node with the new
// ones.
func (a *analysis) runChecks(prev *Result, nodes []int32) {
	loops := a.loopNodes // in index order, like the nodes
	derive := func(v int32, out []Check) []Check {
		for len(loops) > 0 && int32(loops[0].Index) < v {
			loops = loops[1:]
		}
		start := len(out)
		out = a.nodeChecks(v, len(loops) > 0 && int32(loops[0].Index) == v, out)
		if !a.listed && len(out)-start > 1 {
			slices.SortFunc(out[start:], func(x, y Check) int { return compareChecks(&x, &y) })
		}
		return out
	}
	n := len(a.NL.Nodes)
	if prev == nil && a.listed {
		var fresh []Check
		for v := range n {
			fresh = derive(int32(v), fresh)
		}
		a.Checks = sortChecks(fresh)
		return
	}
	if prev == nil {
		a.blocks = make([][]Check, numBlocks(n))
		var fresh []Check
		for b := range a.blocks {
			fresh = fresh[:0]
			for v := b << cow.Shift; v < min(n, (b+1)<<cow.Shift); v++ {
				fresh = derive(int32(v), fresh)
			}
			if len(fresh) > 0 {
				a.blocks[b] = slices.Clone(fresh)
			}
		}
		return
	}
	old := prev.CheckBlocks()
	a.blocks = make([][]Check, numBlocks(n))
	copy(a.blocks, old)
	var fresh []Check
	for len(nodes) > 0 {
		b := int(nodes[0]) >> cow.Shift
		k := 1
		for k < len(nodes) && int(nodes[k])>>cow.Shift == b {
			k++
		}
		fresh = fresh[:0]
		for _, v := range nodes[:k] {
			fresh = derive(v, fresh)
		}
		var was []Check
		if b < len(old) {
			was = old[b]
		}
		a.blocks[b] = rebuildBlock(was, nodes[:k], fresh)
		nodes = nodes[k:]
	}
}

// numBlocks returns the number of check blocks over n nodes.
func numBlocks(n int) int { return (n + cow.ChunkLen - 1) >> cow.Shift }

// rebuildBlock returns a block after the nodes of group (in index order)
// were derived again as fresh (in block order): was's checks on every
// other node, merged by node with fresh.
func rebuildBlock(was []Check, group []int32, fresh []Check) []Check {
	out := make([]Check, 0, len(was)+len(fresh))
	j := 0
	for i := range was {
		v := int32(was[i].Node.Index)
		for len(group) > 0 && group[0] < v {
			group = group[1:]
		}
		if len(group) > 0 && group[0] == v {
			continue
		}
		for j < len(fresh) && int32(fresh[j].Node.Index) < v {
			out = append(out, fresh[j])
			j++
		}
		out = append(out, was[i])
	}
	out = append(out, fresh[j:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// blocksOf returns the blocks of a report-ordered list over n nodes: a
// counting sort by node, which keeps each node's checks in report order.
func blocksOf(list []Check, n int) [][]Check {
	at := make([]int32, n+1)
	for i := range list {
		at[list[i].Node.Index+1]++
	}
	for v := 1; v <= n; v++ {
		at[v] += at[v-1]
	}
	blocks := make([][]Check, numBlocks(n))
	first := make([]int32, len(blocks)) // list position of each block's first check
	for b := range blocks {
		first[b] = at[b<<cow.Shift]
		if size := at[min(n, (b+1)<<cow.Shift)] - first[b]; size > 0 {
			blocks[b] = make([]Check, size)
		}
	}
	for _, c := range list {
		v := c.Node.Index
		blocks[v>>cow.Shift][at[v]-first[v>>cow.Shift]] = c
		at[v]++
	}
	return blocks
}

// CheckBlocks returns the checks by node: block b holds the checks of
// nodes b<<cow.Shift up to the next block's first node, node by node in
// index order and each node's in report order. A result analyzed without
// a previous one derives them from its list on the first call. The
// blocks are shared with the result and with other versions: callers
// must not modify them.
func (r *Result) CheckBlocks() [][]Check {
	if r.listed {
		r.blockOnce.Do(func() { r.blocks = blocksOf(r.Checks, r.RiseAt.Len()) })
	}
	return r.blocks
}

// NodeChecks returns node v's checks in report order, read from its block
// without a scan of the others. The slice is shared: callers must not
// modify it.
func (r *Result) NodeChecks(v int) []Check {
	blk := r.CheckBlocks()[v>>cow.Shift]
	i := sort.Search(len(blk), func(i int) bool { return blk[i].Node.Index >= v })
	j := i
	for j < len(blk) && blk[j].Node.Index == v {
		j++
	}
	return blk[i:j:j]
}

// CheckList returns every check in one total order: violations first,
// then slack, node, polarity, kind, phase and producing arc. It is
// Checks: an incremental result sorts its blocks into it on the first
// call, concurrent first calls share that sort, and readers of Checks
// after a call see the list. Shared: callers must not modify it.
func (r *Result) CheckList() []Check {
	if !r.listed {
		r.listOnce.Do(func() { r.Checks = sortChecks(slices.Concat(r.blocks...)) })
	}
	return r.Checks
}

// checkRuns returns every check as runs to read in turn: the list a
// from-scratch analysis filled, in report order, or the blocks. It serves
// the readers whose answer does not depend on the order among nodes: each
// node's checks come in report order either way.
func (r *Result) checkRuns() [][]Check {
	if r.listed {
		return [][]Check{r.Checks}
	}
	return r.blocks
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
