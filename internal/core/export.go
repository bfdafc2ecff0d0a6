package core

// Read-only accessors over a completed analysis for the path-debug layer
// (internal/paths). They expose exactly the state the engine itself uses
// to rank and check paths — the dominant-predecessor record, the reverse
// CSR adjacency, the storage classification, and the SCC condensation —
// so a path generator outside this package reproduces engine semantics
// bit for bit instead of re-deriving them.
//
// Everything returned aliases the Result's internal arrays and must be
// treated as immutable. A Result is never mutated after Analyze or
// AnalyzeIncremental returns, apart from what its reads memoize under
// their own locks (Required, CheckList, CheckBlocks), so these are safe
// to read concurrently with queries on the same Result, and safe to read
// lock-free after the Result has been published.

import (
	"nmostv/internal/clocks"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// DominantPred returns how node idx's worst arrival for pol was produced:
// the model edge index of the winning arc and the causing polarity of its
// From node. arc == -1 means the transition has no producing arc — it is
// a fixed source (input, clock edge, precharge seed) or never happens
// (arrival -Inf).
func (r *Result) DominantPred(idx int, pol Polarity) (arc int32, fromPol Polarity) {
	p := r.predOf(idx, pol)
	return p.edge, p.fromPol
}

// ArcsInto returns the model-edge indices whose To endpoint is node v, in
// the plan's CSR order (ascending edge index). The slice aliases the wave
// plan; callers must not modify it.
func (r *Result) ArcsInto(v int32) []int32 { return r.wave.in(v) }

// ClockedStorage reports whether node v is a storage node written through
// a clocked pass device: such nodes launch from their clock edge only, so
// backward path traversal must enter them via clock-gated arcs.
func (r *Result) ClockedStorage(v int32) bool { return r.src.storage[v] }

// SameComp reports whether nodes a and b belong to the same strongly
// connected component of the arc graph. Arcs between distinct components
// strictly advance the condensation's topological order, so a backward
// walk can only revisit a node while it stays inside one component —
// which is what makes simple-path checks O(component) instead of O(path).
func (r *Result) SameComp(a, b int32) bool { return r.wave.compOf[a] == r.wave.compOf[b] }

// LoopNodes returns the nodes whose arrivals did not converge within the
// SCC iteration bound (reported as CheckLoop). Their arrivals are not
// fixpoint values, so path enumeration excludes any path through them.
// The slice aliases the Result; callers must not modify it.
func (r *Result) LoopNodes() []*netlist.Node { return r.loopNodes }

// Edge returns the index into the model's edge array of the arc that
// produced this check, or -1 when the check has no single producing arc
// (output, loop, and race checks).
func (c Check) Edge() int32 { return c.edge }

// CausePol returns which transition of From causes the target transition
// of To along edge e: gate arcs launch on From rising regardless of
// target; inverting arcs flip; pass arcs preserve polarity. Exported
// counterpart of the relaxation's own cause-polarity rule.
func CausePol(e *delay.Edge, target Polarity) Polarity { return causePol(e, target) }

// MaskWindow returns the launch clamp (phase rise) and completion
// deadline (phase fall) implied by a phase mask under sched:
// ok == false when the mask requires both phases (dead path), and
// constrained == false when a zero mask imposes no window at all.
// This is the engine's own window rule (analysis.maskWindow delegates
// here), exported so path feasibility outside the engine matches it
// exactly.
func MaskWindow(sched clocks.Schedule, mask uint8) (clamp, deadline float64, constrained, ok bool) {
	switch mask {
	case 0:
		return 0, 0, false, true
	case delay.MaskPhi1:
		return sched.Rise(1), sched.Fall(1), true, true
	case delay.MaskPhi2:
		return sched.Rise(2), sched.Fall(2), true, true
	default:
		return 0, 0, false, false
	}
}
