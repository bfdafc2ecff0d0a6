// Package core implements the timing analyzer itself: TV-style
// value-independent case analysis of an nMOS transistor netlist under a
// two-phase clocking discipline.
//
// The analysis unfolds one clock cycle. Clock nodes transition at their
// scheduled times; primary inputs are stable at user-given times; every
// other node's worst-case rise and fall arrival ("settle") times are the
// longest-path fixpoint over the timing arcs produced by the delay model.
// Transitions whose conducting path runs through a clock-gated device are
// clamped to launch no earlier than that clock's rise, and checked to
// complete before that clock falls — the nMOS discipline that data written
// through a clocked pass transistor (a latch) or evaluated through a
// clocked pulldown (dynamic logic) must settle within the clock window.
//
// Outputs: per-node settle times, setup/precharge/output checks with
// slacks, critical paths with per-arc breakdowns, and a minimum-period
// search.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"nmostv/internal/clocks"
	"nmostv/internal/cow"
	"nmostv/internal/delay"
	"nmostv/internal/faultpoint"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/tverr"
)

// NegInf is the arrival time of a node that never transitions during the
// cycle (a static node).
var NegInf = math.Inf(-1)

// Options tunes an analysis run.
type Options struct {
	// InputTime gives per-input arrival times in ns, keyed by the node's
	// own name (netlist.Named). Inputs not listed are stable at
	// DefaultInputTime.
	InputTime map[string]float64
	// DefaultInputTime is the arrival applied to unlisted primary
	// inputs. Zero means stable at the start of the cycle.
	DefaultInputTime float64
	// SCCIterBound multiplies the SCC size to bound fixpoint iteration
	// inside cyclic regions; default 4.
	SCCIterBound int
	// SetHigh and SetLow name nodes held constant for this case (TV
	// case analysis), each by the node's own name (netlist.Named): an
	// alias such as "VDD" names no node. They never transition; pass the
	// same lists to the delay model so conducting paths through them are
	// pruned too. An analysis given a name, here or in InputTime, that
	// names no node fails with a tverr.Invalid error listing every such
	// name with its option.
	SetHigh, SetLow []string
	// Workers sets how many goroutines relax components concurrently
	// within a level of the wavefront walk. 0 (the default) uses one per
	// CPU; 1 walks serially. Results are bit-identical at every worker
	// count (see walk.go).
	Workers int
	// Obs receives phase spans (wave-plan, propagate, checks, per-level
	// breakdowns) and wavefront counters. Nil disables instrumentation;
	// the propagation hot path then performs no extra allocation.
	Obs *obs.Obs
	// Arena supplies reusable scratch for the analysis working set. Pass
	// the same arena on every call of a long-lived session (single
	// analysis at a time) to make repeated AnalyzeIncremental calls
	// allocation-stable; nil allocates fresh scratch per call.
	Arena *Arena
	// Plan supplies a precomputed propagation plan to share across
	// analyses of structurally identical models — a base model's corner
	// views (delay.Model.At). Ignored when it does not match the model's
	// node/arc counts; nil computes a fresh plan.
	Plan *Plan
}

func (o Options) withDefaults() Options {
	if o.SCCIterBound <= 0 {
		o.SCCIterBound = 4
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Polarity of a transition.
type Polarity uint8

const (
	// Rise denotes a 0→1 transition.
	Rise Polarity = iota
	// Fall denotes a 1→0 transition.
	Fall
)

// String names the polarity.
func (p Polarity) String() string {
	if p == Rise {
		return "rise"
	}
	return "fall"
}

// CheckKind classifies a timing check.
type CheckKind uint8

const (
	// CheckLatch verifies a transition through a clock-gated path
	// settles before that clock falls (latch setup / dynamic-logic
	// evaluate-complete).
	CheckLatch CheckKind = iota
	// CheckOutput verifies a primary output settles within the cycle.
	CheckOutput
	// CheckMissedWindow flags data arriving at a clocked element after
	// its clock window closed entirely.
	CheckMissedWindow
	// CheckDeadPath flags an arc requiring both clock phases high at
	// once (never conducts under non-overlapping clocks).
	CheckDeadPath
	// CheckLoop flags a node inside a combinational cycle whose arrival
	// did not converge.
	CheckLoop
	// CheckRace reports the clock-skew margin at a latch: the earliest
	// same-cycle data arrival against the previous closing of its
	// clock. Informational; a negative margin means a race even with
	// perfect clocks.
	CheckRace
)

// String names the kind.
func (k CheckKind) String() string {
	switch k {
	case CheckLatch:
		return "latch-settle"
	case CheckOutput:
		return "output-settle"
	case CheckMissedWindow:
		return "missed-window"
	case CheckDeadPath:
		return "dead-path"
	case CheckLoop:
		return "loop"
	case CheckRace:
		return "race-margin"
	}
	return fmt.Sprintf("CheckKind(%d)", uint8(k))
}

// Check is one verification result.
type Check struct {
	Kind CheckKind
	// Node is the checked node.
	Node *netlist.Node
	// Pol is the transition checked (meaningful for latch checks).
	Pol Polarity
	// Phase is the governing clock phase, when applicable.
	Phase int
	// Arrival is the settle time being checked (ns).
	Arrival float64
	// Deadline is the time it must not exceed (ns).
	Deadline float64
	// Slack = Deadline − Arrival; negative means violation.
	Slack float64
	// OK reports whether the check passes.
	OK bool

	// edge is the producing arc's index into the model, -1 when the
	// check has no single producing arc (outputs, loops).
	edge int32
}

func (c Check) String() string {
	status := "ok"
	if !c.OK {
		status = "VIOLATION"
	}
	return fmt.Sprintf("%s %s %s: arrival %.4g deadline %.4g slack %.4g [%s]",
		c.Kind, c.Node, c.Pol, c.Arrival, c.Deadline, c.Slack, status)
}

// pred records how a node's worst arrival was produced, for path recovery.
type pred struct {
	edge    int32 // index into model.Edges; -1 = source
	fromPol Polarity
}

// Result is a completed analysis.
type Result struct {
	// NL is the analyzed netlist.
	NL *netlist.Netlist
	// Model is the timing-arc set used.
	Model *delay.Model
	// Sched is the clock schedule analyzed against.
	Sched clocks.Schedule

	// RiseAt and FallAt are per-node-index settle times in ns; NegInf
	// for transitions that never occur.
	RiseAt, FallAt cow.Array[float64]

	// EarlyRise and EarlyFall are per-node-index earliest arrivals in
	// ns (best case); PosInf for transitions that never occur.
	EarlyRise, EarlyFall cow.Array[float64]

	// Checks holds every verification result in one total order:
	// violations first, then slack, node, polarity, kind, phase and
	// producing arc. An analysis without a previous result (Analyze)
	// fills it; an incremental one leaves it nil until the first
	// CheckList call fills it. Readers that need no report order read
	// the checks by node instead (CheckBlocks, NodeChecks).
	Checks []Check

	// blocks holds the checks by node (checks.go). listed reports that
	// the analysis filled Checks instead, and blocks are derived from it
	// on first use; listOnce and blockOnce guard the list and the blocks
	// a read derives.
	blocks              [][]Check
	listed              bool
	listOnce, blockOnce sync.Once

	predRise, predFall cow.Array[pred]

	// wave, src, and loopNodes persist the propagation plan and derived
	// classifications so AnalyzeIncremental can extend this result after
	// a delta instead of starting over. moves records how the arcs moved
	// from the previous result's model (for Plan).
	wave      *waveSchedule
	src       *sourceSet
	loopNodes []*netlist.Node
	moves     arcMoves

	// reqMu guards req, the backward pass Required memoizes, and what an
	// incremental result keeps for it until it runs: the previous
	// result's required times and pass identity (never the previous
	// Result or its arrivals, so versions cannot chain) and the nodes
	// whose required times may have changed.
	reqMu    sync.Mutex
	req      *Required
	reqPrev  *Required
	reqSeeds []int32
}

// Settle returns the overall settle time of a node: the latest of its rise
// and fall arrivals, NegInf if static.
func (r *Result) Settle(n *netlist.Node) float64 {
	return math.Max(r.RiseAt.At(n.Index), r.FallAt.At(n.Index))
}

// Violations returns the failing checks in report order.
func (r *Result) Violations() []Check {
	var out []Check
	for _, run := range r.checkRuns() {
		for _, c := range run {
			if !c.OK {
				out = append(out, c)
			}
		}
	}
	if !r.listed {
		out = sortChecks(out)
	}
	return out
}

// ViolationCount returns the number of failing checks.
func (r *Result) ViolationCount() int {
	n := 0
	for _, run := range r.checkRuns() {
		for i := range run {
			if !run[i].OK {
				n++
			}
		}
	}
	return n
}

// MinSlack returns the smallest slack over all deadline checks (latch and
// output), and true if any such check exists.
func (r *Result) MinSlack() (float64, bool) {
	min, ok := math.Inf(1), false
	for _, run := range r.checkRuns() {
		for i := range run {
			if c := &run[i]; c.Kind == CheckLatch || c.Kind == CheckOutput {
				if c.Slack < min {
					min = c.Slack
				}
				ok = true
			}
		}
	}
	return min, ok
}

// MaxSettle returns the node with the latest settle time and that time.
// Nil if every node is static.
func (r *Result) MaxSettle() (*netlist.Node, float64) {
	var worst *netlist.Node
	t := NegInf
	for _, n := range r.NL.Nodes {
		if n.IsSupply() || n.IsClock() {
			continue
		}
		if s := r.Settle(n); s > t {
			t = s
			worst = n
		}
	}
	return worst, t
}

// Analyze runs the full case analysis. The netlist must be finalized and
// flow-analyzed, and model must have been built from it. The context
// cancels the wavefront walk between levels (and between components
// inside a level): a dead client or an expired deadline aborts the
// analysis with the context's error and no partial Result escapes. It is
// AnalyzeIncremental with no previous result.
func Analyze(ctx context.Context, nl *netlist.Netlist, model *delay.Model, sched clocks.Schedule, opt Options) (*Result, error) {
	r, _, err := AnalyzeIncremental(ctx, nl, model, sched, opt, nil, nil)
	return r, err
}

func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// initMetrics resolves the wavefront counter handles once per analysis,
// so the walk itself is atomic-increment only (nil handles when
// instrumentation is off — every update degrades to a no-op without
// allocating).
func (a *analysis) initMetrics() {
	a.mLevels = a.opt.Obs.Counter("core_wave_levels_total",
		"wavefront levels walked across all propagation passes")
	a.mComps = a.opt.Obs.Counter("core_wave_comps_total",
		"components scheduled across all propagation passes")
}

// allocArrays lays out the Result-owned per-node arrays. They escape
// into the published Result and are deliberately NOT arena-carved: a
// later analysis reusing the arena must not scribble over a result a
// reader still holds. They start as versions of prev's (cow.Array.Clone),
// so they share every chunk the walks do not write; a node prev lacks
// (every node when prev is nil) never transitions and has no producing
// arc.
func (r *Result) allocArrays(n int, prev *Result) {
	if prev == nil {
		r.RiseAt, r.FallAt = cow.Make(n, NegInf), cow.Make(n, NegInf)
		r.EarlyRise, r.EarlyFall = cow.Make(n, PosInf), cow.Make(n, PosInf)
		r.predRise, r.predFall = cow.Make(n, pred{edge: -1}), cow.Make(n, pred{edge: -1})
		return
	}
	r.RiseAt, r.FallAt = prev.RiseAt.Clone(), prev.FallAt.Clone()
	r.EarlyRise, r.EarlyFall = prev.EarlyRise.Clone(), prev.EarlyFall.Clone()
	r.predRise, r.predFall = prev.predRise.Clone(), prev.predFall.Clone()
	r.RiseAt.Grow(n, NegInf)
	r.FallAt.Grow(n, NegInf)
	r.EarlyRise.Grow(n, PosInf)
	r.EarlyFall.Grow(n, PosInf)
	r.predRise.Grow(n, pred{edge: -1})
	r.predFall.Grow(n, pred{edge: -1})
}

// settleVals and earlyVals return the arrival pairs the forward passes
// compute, indexed by Polarity.
func (r *Result) settleVals() [2]*cow.Array[float64] {
	return [2]*cow.Array[float64]{&r.RiseAt, &r.FallAt}
}
func (r *Result) earlyVals() [2]*cow.Array[float64] {
	return [2]*cow.Array[float64]{&r.EarlyRise, &r.EarlyFall}
}

// arenaFor returns the caller-provided scratch arena, reset for a new
// call, or a fresh private one.
func arenaFor(opt Options) *Arena {
	ar := opt.Arena
	if ar == nil {
		ar = &Arena{}
	}
	ar.begin()
	return ar
}

type analysis struct {
	*Result
	opt Options
	// ctx cancels the propagation passes; polled once per wavefront level
	// and every abortStride components inside a level. Never nil.
	ctx context.Context
	// stopped flags an abort (cancellation, deadline, or injected fault);
	// stopErr holds the first cause. Workers poll stopped (one atomic
	// load per component) and bail; the phases after each pass consult
	// abortErr and skip the rest of the pipeline.
	stopped  atomic.Bool
	stopErr  error
	stopOnce sync.Once
	// arena supplies the call's scratch memory; see Options.Arena.
	arena *Arena
	// mLevels and mComps are pre-resolved wavefront counters (nil when
	// instrumentation is disabled; see initMetrics).
	mLevels, mComps *obs.Counter
}

// abort records the first failure and stops the wavefront walk.
func (a *analysis) abort(err error) {
	a.stopOnce.Do(func() {
		a.stopErr = err
		a.stopped.Store(true)
	})
}

// abortErr returns the recorded failure, nil if the walk ran to
// completion.
func (a *analysis) abortErr() error {
	if a.stopped.Load() {
		return a.stopErr
	}
	return nil
}

// checkpoint polls the context and the per-level fault point; any failure
// aborts the walk. Called once per wavefront level and every abortStride
// components within a level — cheap against even the smallest level's
// relaxation work, and allocation-free when nothing is armed.
func (a *analysis) checkpoint() bool {
	if err := a.ctx.Err(); err != nil {
		a.abort(err)
		return false
	}
	if err := faultpoint.Hit("core.propagate.level"); err != nil {
		a.abort(fmt.Errorf("core: propagate: %w", err))
		return false
	}
	return true
}

// sourceSet is what the sources+storage step derives: which polarities
// of which nodes are anchored, at what times, and which storage nodes a
// clock latches. It reads only the model's node snapshot and arc
// endpoints, the schedule and the resolved case inputs, so an analysis
// whose inputs to it are an earlier one's shares the earlier set: a
// Sizes edit (its build shares the node snapshot and keeps the arc
// layout) and every corner of one run (through the plan). Immutable.
type sourceSet struct {
	// fixedRise and fixedFall mark the anchored polarities, which no
	// pass relaxes.
	fixedRise, fixedFall []bool
	// storage marks the storage nodes written through a clock-gated
	// device: they launch from the clock arc, and their data arcs are
	// setup checks, not propagation. Storage gated by ordinary signals
	// propagates normally.
	storage []bool
	// anchors lists the anchored nodes in index order with their
	// anchor times; a polarity that is not fixed has none.
	anchors []anchor
	// flags, phase, layout, sched and cases are what the set was
	// derived from.
	flags  []netlist.Flag
	phase  []int32
	layout uint64
	sched  clocks.Schedule
	cases  caseInputs
}

// anchor is one anchored node and its fixed settle times.
type anchor struct {
	node       int32
	rise, fall float64
}

// deriveSources anchors the analysis:
//
//   - supplies never transition;
//   - clocks transition at their scheduled edges;
//   - primary inputs are stable at their given times;
//   - precharged nodes are high from the start of the cycle (their
//     precharge happened in the previous cycle's window; that the
//     precharge completes in its window is verified as a check);
//   - case constants never transition, whatever else they are;
//
// and marks as clock-latched the storage nodes with at least one
// incoming arc launched by a clock: relaxNode restricts their incoming
// arcs to clock-driven ones, and their data arcs become setup checks.
func deriveSources(m *delay.Model, sched clocks.Schedule, cases caseInputs) *sourceSet {
	n := len(m.NodeFlags)
	block := make([]bool, 3*n)
	s := &sourceSet{
		fixedRise: block[0*n : 1*n : 1*n],
		fixedFall: block[1*n : 2*n : 2*n],
		storage:   block[2*n : 3*n : 3*n],
		flags:     m.NodeFlags, phase: m.NodePhase, layout: m.Layout, sched: sched, cases: cases,
	}
	c, in := cases.constants, cases.inputs
	for i, f := range m.NodeFlags {
		v := int32(i)
		for len(c) > 0 && c[0] < v {
			c = c[1:]
		}
		for len(in) > 0 && in[0].node < v {
			in = in[1:]
		}
		an := anchor{node: v, rise: NegInf, fall: NegInf}
		fall := true
		switch {
		case len(c) > 0 && c[0] == v, f.Has(netlist.FlagSupply):
		case f.Has(netlist.FlagClock):
			an.rise, an.fall = sched.Rise(int(m.NodePhase[i])), sched.Fall(int(m.NodePhase[i]))
		case f.Has(netlist.FlagInput):
			an.rise = cases.dflt
			if len(in) > 0 && in[0].node == v {
				an.rise = in[0].t
			}
			an.fall = an.rise
		case f.Has(netlist.FlagPrecharged):
			an.rise, fall = 0, false
		default:
			continue
		}
		s.fixedRise[i], s.fixedFall[i] = true, fall
		s.anchors = append(s.anchors, an)
	}
	for i := range m.Edges.Len() {
		e := m.Edges.Ref(i)
		if m.NodeFlags[e.To]&netlist.FlagStorage != 0 && m.NodeFlags[e.From]&netlist.FlagClock != 0 {
			s.storage[e.To] = true
		}
	}
	return s
}

// fits reports whether the set is the one deriveSources would derive for
// model m under sched and cases: m shares the node snapshot it was
// derived from and has its arc layout.
func (s *sourceSet) fits(m *delay.Model, sched clocks.Schedule, cases caseInputs) bool {
	return s != nil && s.layout != 0 && s.layout == m.Layout &&
		sameArray(s.flags, m.NodeFlags) && sameArray(s.phase, m.NodePhase) &&
		s.sched == sched && s.cases.equal(cases)
}

// sameArray reports whether two slices are the same array.
func sameArray[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// sourcesFor returns the analysis's sources+storage set: the plan's (a
// corner shares its base's) or prev's when it fits, else a new one.
func (a *analysis) sourcesFor(prev *Result, cases caseInputs) *sourceSet {
	if p := a.opt.Plan; p != nil && p.src.fits(a.Model, a.Sched, cases) {
		return p.src
	}
	if prev != nil && prev.src.fits(a.Model, a.Sched, cases) {
		return prev.src
	}
	return deriveSources(a.Model, a.Sched, cases)
}

// anchorSources writes the anchored settle times and clears the anchored
// polarities' predecessor records: a source has no producing arc. The
// anchors are spread over the whole design, so only values that differ
// from the stored ones (the previous version's) are written, and a
// version copies no chunk for an anchor that did not move.
func (a *analysis) anchorSources() {
	s := a.src
	for _, an := range s.anchors {
		i := int(an.node)
		if s.fixedRise[i] && (!sameBits(a.RiseAt.At(i), an.rise) || a.predRise.At(i) != pred{edge: -1}) {
			a.setArrival(i, Rise, an.rise, pred{edge: -1})
		}
		if s.fixedFall[i] && (!sameBits(a.FallAt.At(i), an.fall) || a.predFall.At(i) != pred{edge: -1}) {
			a.setArrival(i, Fall, an.fall, pred{edge: -1})
		}
	}
}

// anchorEarly gives the early pass's sources the settle pass's anchor
// times: a clock edge happens exactly at its scheduled time, an input
// changes at its given time, a precharged node is high from the cycle
// start. An anchored polarity that never transitions has no earliest
// arrival. Settle values feed the early pass only through these anchors.
func (a *analysis) anchorEarly() {
	s := a.src
	for _, an := range s.anchors {
		i := int(an.node)
		if t := earlyAnchor(an.rise); s.fixedRise[i] && !sameBits(a.EarlyRise.At(i), t) {
			a.EarlyRise.Set(i, t)
		}
		if t := earlyAnchor(an.fall); s.fixedFall[i] && !sameBits(a.EarlyFall.At(i), t) {
			a.EarlyFall.Set(i, t)
		}
	}
}

func earlyAnchor(t float64) float64 {
	if isInfNeg(t) {
		return PosInf
	}
	return t
}

// caseInputs are an analysis's case options resolved to node indices:
// the case constants (SetHigh and SetLow) and the inputs InputTime
// times, each in index order, and DefaultInputTime.
type caseInputs struct {
	constants []int32
	inputs    []inputTime
	dflt      float64
}

// inputTime is one InputTime entry resolved to its node.
type inputTime struct {
	node int32
	t    float64
}

// equal reports whether two resolved case inputs anchor the same times,
// bit for bit.
func (c caseInputs) equal(o caseInputs) bool {
	return sameBits(c.dflt, o.dflt) && slices.Equal(c.constants, o.constants) &&
		slices.EqualFunc(c.inputs, o.inputs, func(x, y inputTime) bool {
			return x.node == y.node && sameBits(x.t, y.t)
		})
}

// resolveCases resolves opt's case options to node indices, each name by
// the node's own name (netlist.Named). Any name among SetHigh, SetLow
// and InputTime's keys that names no node fails the analysis with a
// tverr.Invalid error listing each such name with its option.
func resolveCases(nl *netlist.Netlist, opt Options) (caseInputs, error) {
	c := caseInputs{dflt: opt.DefaultInputTime}
	var unknown []string
	for _, list := range []struct {
		option string
		names  []string
	}{{"SetHigh", opt.SetHigh}, {"SetLow", opt.SetLow}} {
		for _, name := range list.names {
			if n := nl.Named(name); n != nil {
				c.constants = append(c.constants, int32(n.Index))
			} else {
				unknown = append(unknown, list.option+" "+name)
			}
		}
	}
	for name, t := range opt.InputTime {
		if n := nl.Named(name); n != nil {
			c.inputs = append(c.inputs, inputTime{node: int32(n.Index), t: t})
		} else {
			unknown = append(unknown, "InputTime "+name)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return caseInputs{}, tverr.Errorf(tverr.Invalid, "core", "no such node: %s", strings.Join(slices.Compact(unknown), ", "))
	}
	slices.Sort(c.constants)
	c.constants = slices.Compact(c.constants)
	slices.SortFunc(c.inputs, func(x, y inputTime) int { return int(x.node) - int(y.node) })
	return c, nil
}

func (a *analysis) isFixed(idx int, pol Polarity) bool {
	if pol == Rise {
		return a.src.fixedRise[idx]
	}
	return a.src.fixedFall[idx]
}

// maskWindow returns the launch clamp and completion deadline implied by a
// phase mask: ok=false when the mask requires both phases (dead path).
// A zero mask imposes no constraint.
func (a *analysis) maskWindow(mask uint8) (clampRise, deadline float64, constrained, ok bool) {
	return MaskWindow(a.Sched, mask)
}

// relaxEdge computes the candidate arrival contributed by edge ei for the
// given target polarity from current arrivals. ok=false when the edge
// cannot fire (cause never happens, impossible transition, or the cause
// misses the clock window).
func (a *analysis) relaxEdge(ei int32, target Polarity) (t float64, fromPol Polarity, ok bool) {
	e := a.Model.Arc(ei)
	d, mask := a.Model.Delay(e, target == Fall)
	if math.IsInf(d, 1) {
		return 0, 0, false
	}
	fromPol = causePol(e, target)
	var cause float64
	if fromPol == Rise {
		cause = a.RiseAt.At(int(e.From))
	} else {
		cause = a.FallAt.At(int(e.From))
	}
	if math.IsInf(cause, -1) {
		return 0, 0, false
	}
	clamp, deadline, constrained, alive := a.maskWindow(mask)
	if !alive {
		return 0, 0, false
	}
	if constrained {
		if cause > deadline {
			// Missed the window: the transition waits for the next
			// cycle; the clock-rise arc already models that launch.
			return 0, 0, false
		}
		if cause < clamp {
			cause = clamp
		}
	}
	return cause + d, fromPol, true
}

// causePol returns which transition of From causes the target transition
// of To along edge e: gate arcs launch on From rising regardless of
// target; inverting arcs flip; pass arcs preserve polarity.
func causePol(e *delay.Edge, target Polarity) Polarity {
	switch {
	case e.GateArc:
		return Rise
	case e.Invert:
		return 1 - target
	default:
		return target
	}
}

func (a *analysis) arrival(idx int, pol Polarity) float64 {
	if pol == Rise {
		return a.RiseAt.At(idx)
	}
	return a.FallAt.At(idx)
}

func (a *analysis) setArrival(idx int, pol Polarity, t float64, p pred) {
	if pol == Rise {
		a.RiseAt.Set(idx, t)
		a.predRise.Set(idx, p)
	} else {
		a.FallAt.Set(idx, t)
		a.predFall.Set(idx, p)
	}
}
