package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"nmostv/internal/netlist"
)

// Step is one hop of a critical path, latest node first when produced by
// Path (the slice is ordered source → endpoint).
type Step struct {
	// Node is the node reached at this step.
	Node *netlist.Node
	// Pol is the transition polarity at Node.
	Pol Polarity
	// Time is the arrival in ns.
	Time float64
	// Via is the representative device of the arc that produced the
	// arrival; nil at the path source.
	Via *netlist.Transistor
	// Invert reports whether the producing arc inverted polarity.
	Invert bool
}

func (s Step) String() string {
	via := ""
	if s.Via != nil {
		kind := "pass"
		if s.Invert {
			kind = "gate"
		}
		via = fmt.Sprintf(" (via %s %s)", kind, s.Via.Gate)
	}
	return fmt.Sprintf("%-20s %s @ %8.4f ns%s", s.Node, s.Pol, s.Time, via)
}

// pathSeenPool recycles the per-query visited masks of Path: the query
// side of the daemon bypasses admission control, so path recovery must not
// allocate O(path) map storage per request. Masks are keyed by
// node-id×polarity and returned to the pool cleared.
var pathSeenPool sync.Pool

// Path recovers the worst-case path producing the given node transition,
// ordered from source to endpoint. Returns nil when the node never makes
// that transition. Safe for concurrent use on a published Result.
func (r *Result) Path(n *netlist.Node, pol Polarity) []Step {
	if math.IsInf(r.arrivalOf(n.Index, pol), -1) {
		return nil
	}
	want := 2 * len(r.NL.Nodes)
	seen, _ := pathSeenPool.Get().([]bool)
	if cap(seen) < want {
		seen = make([]bool, want)
	} else {
		seen = seen[:want]
	}
	var rev []Step
	idx, p := n.Index, pol
	for {
		k := 2*idx + int(p)
		if seen[k] {
			break // defensive: cyclic predecessor chain
		}
		seen[k] = true
		pr := r.predOf(idx, p)
		step := Step{Node: r.NL.Nodes[idx], Pol: p, Time: r.arrivalOf(idx, p)}
		if pr.edge >= 0 {
			e := r.Model.Arc(pr.edge)
			step.Via = r.NL.TransByID(e.Via)
			step.Invert = e.Invert
			rev = append(rev, step)
			idx, p = int(e.From), pr.fromPol
			continue
		}
		rev = append(rev, step)
		break
	}
	// Clear only the entries this walk set — every mark corresponds to a
	// produced step — then recycle the mask: O(path), not O(nodes).
	for _, s := range rev {
		seen[2*s.Node.Index+int(s.Pol)] = false
	}
	pathSeenPool.Put(seen) //nolint:staticcheck // slice header boxing is fine here
	// Reverse to source-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func (r *Result) arrivalOf(idx int, pol Polarity) float64 {
	if pol == Rise {
		return r.RiseAt.At(idx)
	}
	return r.FallAt.At(idx)
}

func (r *Result) predOf(idx int, pol Polarity) pred {
	if pol == Rise {
		return r.predRise.At(idx)
	}
	return r.predFall.At(idx)
}

// CriticalPath returns the path to the design's most constrained endpoint:
// the minimum-slack latch or output check if any exist, otherwise the
// latest-settling node. For a latch check the path runs through the
// checked data arc: the cause's own worst path plus the final arc into
// the latched node. Returns nil for an empty or fully static design.
func (r *Result) CriticalPath() []Step {
	var worst *Check
	best := math.Inf(1)
	for _, run := range r.checkRuns() {
		for i := range run {
			if c := &run[i]; (c.Kind == CheckLatch || c.Kind == CheckOutput) && c.Slack < best {
				best = c.Slack
				worst = c
			}
		}
	}
	if worst == nil {
		n, _ := r.MaxSettle()
		if n == nil {
			return nil
		}
		pol := Rise
		if r.FallAt.At(n.Index) > r.RiseAt.At(n.Index) {
			pol = Fall
		}
		return r.Path(n, pol)
	}
	return r.CheckPath(*worst)
}

// RankedPath pairs a deadline check with its reconstructed path.
type RankedPath struct {
	Check Check
	Steps []Step
}

// TopPaths returns the k most constrained endpoints, worst (smallest
// slack) first: the minimum-slack latch or output check per endpoint node
// (the first such check on a tie), each with its path. When the design
// has no deadline checks at all, it falls back to the k latest-settling
// nodes ranked against the cycle end, reported as output-style checks.
// Returns fewer than k entries when the design has fewer endpoints, nil
// when k ≤ 0. One pass over the checks selects the k endpoints (TopK,
// keyed by node), so only k paths are ever reconstructed.
func (r *Result) TopPaths(k int) []RankedPath {
	if k <= 0 {
		return nil
	}
	top := NewTopK(k, compareEndpoint, func(c Check) int { return c.Node.Index })
	for _, run := range r.checkRuns() {
		for _, c := range run {
			if c.Kind == CheckLatch || c.Kind == CheckOutput {
				top.Offer(c)
			}
		}
	}
	if top.Len() == 0 {
		for _, n := range r.NL.Nodes {
			if n.IsSupply() || n.IsClock() {
				continue
			}
			s := r.Settle(n)
			if math.IsInf(s, -1) {
				continue
			}
			pol := Rise
			if r.FallAt.At(n.Index) > r.RiseAt.At(n.Index) {
				pol = Fall
			}
			top.Offer(Check{
				Kind: CheckOutput, Node: n, Pol: pol,
				Arrival: s, Deadline: r.Sched.Period,
				Slack: r.Sched.Period - s, OK: r.Sched.Period-s >= 0,
				edge: -1,
			})
		}
	}
	picks := top.Sorted()
	out := make([]RankedPath, len(picks))
	for i, c := range picks {
		out[i] = RankedPath{Check: c, Steps: r.CheckPath(c)}
	}
	return out
}

// compareEndpoint orders TopPaths' endpoints: slack, then node index.
func compareEndpoint(a, b Check) int {
	if a.Slack != b.Slack {
		if a.Slack < b.Slack {
			return -1
		}
		return 1
	}
	return a.Node.Index - b.Node.Index
}

// CheckPath reconstructs the worst-case path leading to a check: for
// checks produced by a specific arc, the causing node's path plus the
// final hop; otherwise the checked node's own path.
func (r *Result) CheckPath(c Check) []Step {
	if c.edge < 0 {
		return r.Path(c.Node, c.Pol)
	}
	e := r.Model.Arc(c.edge)
	steps := r.Path(r.NL.Nodes[e.From], causePol(e, c.Pol))
	return append(steps, Step{
		Node:   c.Node,
		Pol:    c.Pol,
		Time:   c.Arrival,
		Via:    r.NL.TransByID(e.Via),
		Invert: e.Invert,
	})
}

// FormatPath renders a path as an indented multi-line listing with per-arc
// increments.
func FormatPath(steps []Step) string {
	if len(steps) == 0 {
		return "(no path)"
	}
	var b strings.Builder
	prev := steps[0].Time
	for i, s := range steps {
		if i == 0 {
			fmt.Fprintf(&b, "  start  %s\n", s)
			continue
		}
		fmt.Fprintf(&b, "  +%.4f %s\n", s.Time-prev, s)
		prev = s.Time
	}
	return b.String()
}
