// Package incr wraps a loaded design in an incremental analysis session:
// it accepts small edits (deltas) — device resizes, additions, removals,
// node capacitance and annotation changes — and re-analyzes only the
// affected cone instead of the whole design. Stage-level reuse comes from
// the delay package's content-addressed shard cache (only stages whose
// fingerprint changed rebuild their timing arcs); arrival-level reuse
// comes from core.AnalyzeIncremental (only components reachable from the
// changed arcs through value changes re-relax). The invariant throughout:
// after any sequence of deltas, the session's result is bit-identical to
// a from-scratch analysis of the same netlist state — SelfCheck asserts
// exactly that.
package incr

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/paths"
	"nmostv/internal/pipeline"
	"nmostv/internal/simfile"
	"nmostv/internal/slack"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

// Delta is one edit to the design. Op selects the kind; the other fields
// are op-specific. Devices are addressed by their stable ID (reported by
// Devices and by the add op), never by index.
type Delta struct {
	// Op is "resize", "setcap", "annotate", "add", or "remove".
	Op string `json:"op"`
	// ID addresses the device for resize and remove.
	ID int64 `json:"id,omitempty"`
	// Kind ("e" or "d"), Gate, A, B describe the device for add.
	// Terminal nodes are created on demand, as in a .sim file.
	Kind string `json:"kind,omitempty"`
	Gate string `json:"gate,omitempty"`
	A    string `json:"a,omitempty"`
	B    string `json:"b,omitempty"`
	// W and L are the channel size in µm for add and resize; for resize a
	// zero dimension keeps the current value.
	W float64 `json:"w,omitempty"`
	L float64 `json:"l,omitempty"`
	// Node names the target for setcap and annotate; it must exist.
	Node string `json:"node,omitempty"`
	// Cap is the new lumped capacitance in pF for setcap.
	Cap float64 `json:"cap,omitempty"`
	// Attrs are simfile A-record attribute tokens for annotate
	// (e.g. "input", "clock=1", "exclusive=3").
	Attrs []string `json:"attrs,omitempty"`
}

// Stats reports one (re-)analysis: how much was recomputed and how long it
// took. The cone ratio ConeStages/StagesTotal is the headline incremental
// win.
type Stats struct {
	// Deltas is the number of edits applied in this batch (0 for a full
	// run or the initial load).
	Deltas int `json:"deltas"`
	// Full reports a from-scratch analysis (initial load or Full()).
	Full bool `json:"full,omitempty"`
	// StagesTotal and StagesRebuilt count the partition and the stages
	// whose timing arcs were rebuilt (delay-cache misses).
	StagesTotal   int `json:"stages_total"`
	StagesRebuilt int `json:"stages_rebuilt"`
	// ConeStages counts the distinct stages visited: rebuilt ones plus
	// stages holding a node whose arrival was re-relaxed.
	ConeStages int `json:"cone_stages"`
	// Comps, CompsRelaxed, NodesRelaxed describe the propagation cone
	// (see core.DeltaStats).
	Comps        int `json:"comps"`
	CompsRelaxed int `json:"comps_relaxed"`
	NodesRelaxed int `json:"nodes_relaxed"`
	// Nodes is the node count after the batch.
	Nodes int `json:"nodes"`
	// ReusedWave reports that the propagation plan was kept: arc
	// endpoints unchanged (every resize and setcap), so no arc moved.
	ReusedWave bool `json:"reused_wave,omitempty"`
	// Version is the session's publish sequence number: it increments on
	// every committed (re-)analysis and names this result for Diff.
	Version int64 `json:"version"`
	// ChangedNodes counts the nodes whose published arrivals differ
	// bitwise from the previous version (new nodes included) — the
	// batch's "what did this change" headline.
	ChangedNodes int `json:"changed_nodes"`
	// Corners counts the PVT corners re-analyzed alongside the base.
	Corners int `json:"corners,omitempty"`
	// AddedIDs are the stable IDs of devices created by add deltas, in
	// batch order.
	AddedIDs []int64 `json:"added_ids,omitempty"`
	// Elapsed is the wall time of the batch, analysis included.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Options configures a session.
type Options struct {
	// Params is the process description.
	Params tech.Params
	// Sched is the clock schedule analyzed against.
	Sched clocks.Schedule
	// Core tunes the analysis (input times, case constants, workers).
	// SetHigh/SetLow and Workers are also passed to the delay builder.
	Core core.Options
	// MaxPaths and MaxDepth bound GND-path enumeration (delay.Options).
	MaxPaths, MaxDepth int
	// Corners are the PVT corners to analyze alongside the base process.
	// Empty keeps the session single-corner (exactly the base analysis).
	// Each corner shares the session's netlist, partition, and plan; its
	// results update atomically with every batch and are held to the same
	// bit-identity invariant by SelfCheck.
	Corners []tech.Corner
	// HistoryDepth bounds the version ring: how many published results
	// the session retains for Diff queries (each retained version pins
	// its immutable Result and the paths its ranking settled, so memory
	// grows with depth × design size).
	// 0 means DefaultHistoryDepth; 1 keeps only the latest (disabling
	// diffs against earlier versions).
	HistoryDepth int
	// Obs receives phase spans, cache counters, and per-design gauges
	// from every (re-)analysis; it is also handed down to the delay
	// builder and the core analyzer (unless Core.Obs is already set).
	// Nil disables instrumentation.
	Obs *obs.Obs
}

// Session is a live design under incremental analysis. All methods are
// safe for concurrent use: queries share a read lock, edits take the write
// lock and swap in a fresh immutable Result.
type Session struct {
	mu sync.RWMutex

	name string
	nl   *netlist.Netlist
	opt  Options
	// pipe sequences every (re-)analysis. It owns the shard cache and the
	// analysis arenas, which the single-writer discipline (admission
	// control serializes Apply/runFull) keeps to one run at a time.
	pipe   pipeline.Pipeline
	stages *stage.Result
	model  *delay.Model
	res    *core.Result

	// corners is the per-corner published state (nil when single-corner).
	corners []*cornerState
	// merged is the published version's merged corner view.
	merged *mergedView

	// history is the version ring of retained published results (latest
	// last); seq is the monotone publish counter. See debug.go.
	history []*version
	seq     int64

	applied int
	last    Stats
	// cacheHits and cacheMisses accumulate the delay shard-cache totals
	// over the session's lifetime (every runFull and Apply).
	cacheHits, cacheMisses int64
	// rankScans counts the slack reads that ranked every node.
	rankScans *obs.Counter
}

// New finalizes the netlist, runs the initial full analysis, and returns
// the session. The session takes ownership of the netlist: edit it only
// through Apply. A canceled context aborts the initial analysis and no
// session is created.
func New(ctx context.Context, name string, nl *netlist.Netlist, opt Options) (*Session, error) {
	if opt.Obs != nil && opt.Core.Obs == nil {
		opt.Core.Obs = opt.Obs
	}
	if err := tech.ValidateCorners(opt.Corners); err != nil {
		return nil, tverr.New(tverr.Invalid, "incr.corners", err)
	}
	s := &Session{name: name, nl: nl, opt: opt, pipe: pipeline.Pipeline{
		Params: opt.Params,
		Delay: delay.Options{
			MaxPaths: opt.MaxPaths,
			MaxDepth: opt.MaxDepth,
			SetHigh:  opt.Core.SetHigh,
			SetLow:   opt.Core.SetLow,
			Workers:  opt.Core.Workers,
		},
		Cache:   delay.NewCache(),
		Sched:   opt.Sched,
		Core:    opt.Core,
		Corners: opt.Corners,
		Arenas:  make([]core.Arena, 1+len(opt.Corners)),
	}}
	for _, c := range opt.Corners {
		s.corners = append(s.corners, &cornerState{corner: c})
	}
	s.rankScans = opt.Obs.Counter("incr_slack_rank_scans_total",
		"ranked /slack reads that scanned every node instead of deriving from the previous version",
		obs.Label{Key: "design", Val: name})
	if _, err := s.runFull(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// delayOpt is the session's arc-builder options with the given Obs.
func (s *Session) delayOpt(o *obs.Obs) delay.Options {
	opt := s.pipe.Delay
	opt.Obs = o
	return opt
}

// state is the published pipeline state: the previous state of the next
// run. Callers hold a session lock.
func (s *Session) state() pipeline.State {
	st := pipeline.State{NL: s.nl, Stages: s.stages, Model: s.model, Base: s.res}
	for _, cs := range s.corners {
		st.Corners = append(st.Corners, pipeline.Corner{Corner: cs.corner, Model: cs.model, Res: cs.res})
	}
	return st
}

// runFull re-derives everything from scratch (but still primes the shard
// cache for subsequent deltas). Callers hold the write lock, except New.
// An abort leaves the published state untouched: the netlist is not
// edited here, and what the run re-derives on it is equivalent to what
// it held, so the session's equivalence invariant still holds.
func (s *Session) runFull(ctx context.Context) (Stats, error) {
	start := time.Now()
	o := s.opt.Obs.ForRequest(ctx)
	defer o.Span("full-analysis").End()
	next, ps, err := s.pipe.Run(ctx, o, pipeline.State{NL: s.nl}, pipeline.Devices, nil, nil)
	if err != nil {
		return Stats{}, err
	}
	// Analyses run from scratch list their checks in report order. The
	// blocks by node an edit extends are derived here, with the run's
	// other whole-design work, so the first edit after it pays only for
	// its cone.
	next.Base.CheckBlocks()
	for _, c := range next.Corners {
		c.Res.CheckBlocks()
	}
	s.commit(next)
	n := len(s.stages.Stages)
	st := Stats{
		Full:          true,
		StagesTotal:   n,
		StagesRebuilt: n,
		ConeStages:    n,
		Nodes:         len(s.nl.Nodes),
		Corners:       len(s.corners),
		Elapsed:       time.Since(start),
	}
	s.record(&st, nil)
	s.last = st
	s.publish(st, ps.Build)
	return st, nil
}

// Full discards incremental state and re-analyzes from scratch — the
// escape hatch when the caller wants a clean baseline.
func (s *Session) Full(ctx context.Context) (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runFull(ctx)
}

// Apply validates and applies a batch of deltas, then re-analyzes the
// dirty cone. The batch is resolved in full before any mutation, so a bad
// delta leaves the session untouched; the batch is applied as one edit
// (one re-analysis). Returns the recomputation stats.
//
// If the context is canceled (or a fault point fires) after the netlist
// has been mutated but before the new result is published, the mutations
// are rolled back — each act's undo runs in reverse, created nodes are
// truncated, and the derived structure is restored — so the previously
// published result still satisfies SelfCheck. Resolve failures are typed
// tverr.Invalid; aborts keep their context/fault error kind.
func (s *Session) Apply(ctx context.Context, deltas []Delta) (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	o := s.opt.Obs.ForRequest(ctx)
	defer o.Span("apply-batch").End()
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}

	// Phase 1: resolve everything against the current state. Each act
	// mutates and returns its own undo.
	rsp := o.Span("delta-resolve")
	var acts []func() func()
	var addedIDs *[]int64
	// Flow orientation reads topology, flags, and ForceFlow — never W, L,
	// or Cap — so batches of pure resize/setcap deltas keep it valid.
	edit := pipeline.Sizes
	// loads names every node whose loading a resize or setcap can move
	// (see pipeline.Run); a device with no channel terminal off the
	// supplies names no stage, so resizing one probes every stage.
	var seedNodes, loads []int
	sized := true
	for i := range deltas {
		d := &deltas[i]
		fail := func(format string, args ...any) (Stats, error) {
			return Stats{}, tverr.Errorf(tverr.Invalid, "incr.apply",
				"delta %d (%s): %s", i, d.Op, fmt.Sprintf(format, args...))
		}
		switch d.Op {
		case "resize":
			t := s.nl.TransByID(d.ID)
			if t == nil {
				return fail("no device with id %d", d.ID)
			}
			w, l := d.W, d.L
			if w == 0 {
				w = t.W
			}
			if l == 0 {
				l = t.L
			}
			if !(w > 0) || !(l > 0) || math.IsInf(w, 1) || math.IsInf(l, 1) {
				return fail("bad size w=%v l=%v", w, l)
			}
			loads = append(loads, t.Gate.Index, t.A.Index, t.B.Index)
			sized = sized && !(t.A.IsSupply() && t.B.IsSupply())
			acts = append(acts, func() func() {
				ow, ol := t.W, t.L
				t.W, t.L = w, l
				return func() { t.W, t.L = ow, ol }
			})
		case "setcap":
			n := s.nl.Lookup(d.Node)
			if n == nil {
				return fail("no node %q", d.Node)
			}
			c := d.Cap
			if !(c >= 0) || math.IsInf(c, 1) {
				return fail("bad cap %v pF", c)
			}
			seedNodes = append(seedNodes, n.Index)
			loads = append(loads, n.Index)
			acts = append(acts, func() func() {
				oc := n.Cap
				n.Cap = c
				return func() { n.Cap = oc }
			})
		case "annotate":
			n := s.nl.Lookup(d.Node)
			if n == nil {
				return fail("no node %q", d.Node)
			}
			if len(d.Attrs) == 0 {
				return fail("no attributes")
			}
			// Dry-run against a scratch copy: ApplyAttr only touches
			// scalar fields, so a struct copy is an isolated target.
			scratch := *n
			for _, a := range d.Attrs {
				if err := simfile.ApplyAttr(&scratch, a); err != nil {
					return fail("%v", err)
				}
			}
			attrs := d.Attrs
			edit = max(edit, pipeline.Annotations)
			seedNodes = append(seedNodes, n.Index)
			acts = append(acts, func() func() {
				// ApplyAttr only touches scalar annotation fields; a
				// struct copy captures them all for the undo.
				old := *n
				for _, a := range attrs {
					simfile.ApplyAttr(n, a)
				}
				return func() {
					n.Cap = old.Cap
					n.Flags = old.Flags
					n.Phase = old.Phase
					n.Exclusive = old.Exclusive
				}
			})
		case "add":
			var kind netlist.Kind
			switch d.Kind {
			case "e", "":
				kind = netlist.Enh
			case "d":
				kind = netlist.Dep
			default:
				return fail("bad kind %q", d.Kind)
			}
			if d.Gate == "" || d.A == "" || d.B == "" {
				return fail("gate, a, b node names required")
			}
			if !(d.W > 0) || !(d.L > 0) || math.IsInf(d.W, 1) || math.IsInf(d.L, 1) {
				return fail("bad size w=%v l=%v", d.W, d.L)
			}
			d := *d
			edit = pipeline.Devices
			if addedIDs == nil {
				addedIDs = new([]int64)
			}
			ids := addedIDs
			acts = append(acts, func() func() {
				t := s.nl.AddTransistor(kind,
					s.nl.Node(d.Gate), s.nl.Node(d.A), s.nl.Node(d.B), d.W, d.L)
				*ids = append(*ids, t.ID)
				return func() {
					s.nl.RemoveTransistor(t)
					*ids = (*ids)[:len(*ids)-1]
				}
			})
		case "remove":
			t := s.nl.TransByID(d.ID)
			if t == nil {
				return fail("no device with id %d", d.ID)
			}
			// The device's stage may vanish entirely (no surviving
			// device generates arcs into its nodes), so no rebuilt-stage
			// seed would cover them: seed the old stage's nodes now.
			if st := s.stages.ByTrans(t); st != nil {
				for _, nd := range st.Nodes {
					seedNodes = append(seedNodes, nd.Index)
				}
			}
			edit = pipeline.Devices
			acts = append(acts, func() func() {
				at := t.Index
				if !s.nl.RemoveTransistor(t) {
					return func() {} // an earlier delta of the batch removed it
				}
				return func() { s.nl.RestoreTransistor(t, at) }
			})
		default:
			return fail("unknown op")
		}
	}

	if !sized {
		loads = nil
	}
	rsp.End()

	// Phase 2: mutate, re-derive, re-analyze the cone. From here to
	// publish, any abort must unwind the netlist to its pre-batch state.
	var rollback func()
	defer func() {
		// A panic below (injected fault, analyzer bug) must not leave the
		// netlist mutated against the published result: roll back, then
		// let the panic continue to the daemon's recovery middleware.
		if rec := recover(); rec != nil {
			if rollback != nil {
				rollback()
			}
			panic(rec)
		}
	}()
	nodesBefore := len(s.nl.Nodes)
	asp := o.Span("delta-apply")
	undos := make([]func(), 0, len(acts))
	for _, a := range acts {
		undos = append(undos, a())
	}
	asp.End()
	// rollback restores the pre-batch netlist (undos in reverse, created
	// nodes truncated), rewinds the shard cache, and re-derives what the
	// netlist stores for the edit, so the session again matches its
	// published result bit for bit — including the seed accounting of a
	// retried batch.
	cacheCP := s.pipe.Cache.Checkpoint()
	rollback = func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		s.nl.TruncateNodes(nodesBefore)
		s.pipe.Cache.Rollback(cacheCP)
		s.pipe.Derive(o, &pipeline.State{NL: s.nl}, edit)
		s.opt.Obs.Counter("incr_rollbacks_total",
			"delta batches rolled back after an aborted re-analysis").Inc()
	}
	// The pipeline stages the base and every corner before anything
	// commits, so an abort anywhere rolls the whole batch back with the
	// published state untouched.
	next, ps, err := s.pipe.Run(ctx, o, s.state(), edit, seedNodes, loads)
	if err != nil {
		rollback()
		return Stats{}, err
	}
	s.commit(next)
	rollback = nil // committed: a later panic must not unwind the batch
	s.applied += len(deltas)

	cone := make(map[int]bool, len(ps.Build.Rebuilt))
	for _, stg := range ps.Build.Rebuilt {
		cone[stg.Index] = true
	}
	for _, i := range ps.Delta.Relaxed {
		if stg := s.stages.ByNode(s.nl.Nodes[i]); stg != nil {
			cone[stg.Index] = true
		}
	}
	st := Stats{
		Deltas:        len(deltas),
		StagesTotal:   len(s.stages.Stages),
		StagesRebuilt: len(ps.Build.Rebuilt),
		ConeStages:    len(cone),
		Comps:         ps.Delta.Comps,
		CompsRelaxed:  ps.Delta.CompsRelaxed,
		NodesRelaxed:  ps.Delta.NodesRelaxed,
		Nodes:         len(s.nl.Nodes),
		ReusedWave:    ps.Delta.ReusedWave,
		Corners:       len(s.corners),
		Elapsed:       time.Since(start),
	}
	if addedIDs != nil {
		st.AddedIDs = *addedIDs
	}
	s.record(&st, ps.Delta.Relaxed)
	s.last = st
	s.publish(st, ps.Build)
	return st, nil
}

// publish accumulates the session cache totals and exports the batch's
// headline numbers as per-design metrics. Called with the write lock held
// after every (re-)analysis; handle resolution is a registry map lookup,
// negligible next to the analysis itself, and a nil Obs makes every call
// a no-op.
func (s *Session) publish(st Stats, bstats delay.BuildStats) {
	s.cacheHits += int64(bstats.Stages - len(bstats.Rebuilt))
	s.cacheMisses += int64(len(bstats.Rebuilt))
	o := s.opt.Obs
	if o == nil {
		return
	}
	lbl := obs.Label{Key: "design", Val: s.name}
	o.Counter("incr_batches_total", "delta batches and full runs analyzed", lbl).Inc()
	o.Counter("incr_deltas_total", "individual deltas applied", lbl).Add(int64(st.Deltas))
	o.Counter("incr_cache_hits_total", "delay shard-cache hits", lbl).Add(int64(bstats.Stages - len(bstats.Rebuilt)))
	o.Counter("incr_cache_misses_total", "delay shard-cache misses (stages rebuilt)", lbl).Add(int64(len(bstats.Rebuilt)))
	o.Gauge("incr_cone_stages", "stages in the last re-analysis cone", lbl).Set(float64(st.ConeStages))
	o.Gauge("incr_stages_total", "stages in the design partition", lbl).Set(float64(st.StagesTotal))
	o.Gauge("incr_nodes_relaxed", "nodes re-relaxed by the last batch", lbl).Set(float64(st.NodesRelaxed))
	o.Gauge("incr_comps_relaxed", "components re-relaxed by the last batch", lbl).Set(float64(st.CompsRelaxed))
	o.Histogram("incr_apply_seconds", "wall time of delta batches and full runs", nil, lbl).
		Observe(st.Elapsed.Seconds())
}

// SelfCheck re-derives the whole pipeline from scratch — fresh partition,
// flow, timing arcs, full analysis at every corner — and verifies the
// session's current state is bit-identical: the shard cache's per-stage
// fingerprints (which a sized build updates only for the stages it
// probed), every timing arc and delay scale, every arrival (settle and
// early, both polarities), every dominant-predecessor record (what /why,
// /critical and /paths walk), every node's checks with their producing
// arcs, block by block, the backward pass of the base and of every
// corner, the merged corner view a /slack read would serve, every slack
// ranking prefix the published version's reads have built, merged and
// per corner, against a fresh scan, and the paths every published
// worst-path ranking has settled, replayed by a fresh search. This is the
// equivalence invariant of the incremental engine; it returns nil when it
// holds.
func (s *Session) SelfCheck(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.opt.Obs.ForRequest(ctx)
	defer o.Span("verify").End()
	// The reference shares nothing the session computed: no shard cache,
	// no session arena, no previous result, no plan but its own.
	ref := s.pipe
	ref.Cache, ref.Arenas = nil, nil
	want, _, err := ref.Run(ctx, o, pipeline.State{NL: s.nl}, pipeline.Devices, nil, nil)
	if err != nil {
		return fmt.Errorf("selfcheck reference analysis: %w", err)
	}
	fps := s.pipe.Cache.Fingerprints()
	wantFPs := delay.Fingerprints(s.nl, want.Stages, s.opt.Params, s.delayOpt(o))
	if len(fps) != len(wantFPs) {
		return fmt.Errorf("selfcheck: %d stage fingerprints retained, reference %d", len(fps), len(wantFPs))
	}
	for i := range wantFPs {
		if fps[i] != wantFPs[i] {
			return fmt.Errorf("selfcheck: stage %d fingerprint %016x retained, reference %016x", i, fps[i], wantFPs[i])
		}
	}
	refOpt := s.opt.Core
	refOpt.Obs = o
	check := func(gotModel, refModel *delay.Model, got, ref *core.Result, rank *paths.Ranking) error {
		if err := compareArcs(gotModel, refModel); err != nil {
			return err
		}
		if err := compareResults(got, ref); err != nil {
			return err
		}
		refReq, err := ref.Required(ctx, refOpt)
		if err != nil {
			return fmt.Errorf("selfcheck reference backward pass: %w", err)
		}
		gotReq, err := s.required(ctx, got)
		if err != nil {
			return fmt.Errorf("selfcheck backward pass: %w", err)
		}
		if err := compareRequired(gotReq, refReq, s.nl.Nodes); err != nil {
			return err
		}
		if err := got.VerifySlackRanking(gotReq); err != nil {
			return fmt.Errorf("selfcheck: slack ranking: %w", err)
		}
		return compareRanking(ctx, rank, got)
	}
	if err := check(s.model, want.Model, s.res, want.Base, s.history[len(s.history)-1].rank); err != nil {
		return err
	}
	refCorners := make([]slack.CornerResult, len(s.corners))
	for i, cs := range s.corners {
		wc := want.Corners[i]
		if err := check(cs.model, wc.Model, cs.res, wc.Res, cs.rank); err != nil {
			return fmt.Errorf("corner %s: %w", cs.corner.Name, err)
		}
		refReq, err := wc.Res.Required(ctx, refOpt)
		if err != nil {
			return fmt.Errorf("selfcheck reference backward pass: %w", err)
		}
		refCorners[i] = slack.CornerResult{Corner: wc.Corner, Model: wc.Model, Res: wc.Res, Req: refReq}
	}
	if len(s.corners) == 0 {
		return nil
	}
	got, err := s.mergedSweep(ctx, false)
	if err != nil {
		return fmt.Errorf("selfcheck merged view: %w", err)
	}
	wantSweep, err := slack.Merge(refCorners)
	if err != nil {
		return fmt.Errorf("selfcheck reference merge: %w", err)
	}
	if err := compareMerged(got, wantSweep, s.nl.Nodes); err != nil {
		return err
	}
	if err := got.VerifyRanking(); err != nil {
		return fmt.Errorf("selfcheck: merged slack ranking: %w", err)
	}
	return nil
}

// compareArcs asserts bit-identical timing arcs and delay scales.
func compareArcs(got, ref *delay.Model) error {
	if math.Float64bits(got.DelayScale()) != math.Float64bits(ref.DelayScale()) {
		return fmt.Errorf("selfcheck: delay scale %v, reference %v", got.DelayScale(), ref.DelayScale())
	}
	if got.Edges.Len() != ref.Edges.Len() {
		return fmt.Errorf("selfcheck: %d timing arcs, reference %d", got.Edges.Len(), ref.Edges.Len())
	}
	for i := range ref.Edges.Len() {
		if got.Edges.At(i) != ref.Edges.At(i) {
			return fmt.Errorf("selfcheck: timing arc %d differs: %+v vs reference %+v",
				i, got.Edges.At(i), ref.Edges.At(i))
		}
	}
	return nil
}

// compareResults asserts bit-identical arrivals, predecessor records and
// checks. Each node's checks come in a total order, so the blocks must
// agree element by element. Predecessor and check arcs compare by index:
// the caller has already found both models' arcs identical index for
// index.
func compareResults(got, ref *core.Result) error {
	for i := range ref.RiseAt.Len() {
		for _, pol := range []core.Polarity{core.Rise, core.Fall} {
			ga, gp := got.DominantPred(i, pol)
			ra, rp := ref.DominantPred(i, pol)
			if ga != ra || gp != rp {
				return fmt.Errorf("selfcheck: node %s %s predecessor differs: arc %d (%s) vs reference arc %d (%s)",
					ref.NL.Nodes[i], pol, ga, gp, ra, rp)
			}
		}
		if got.RiseAt.At(i) != ref.RiseAt.At(i) || got.FallAt.At(i) != ref.FallAt.At(i) {
			return fmt.Errorf("selfcheck: node %s settle arrivals differ: rise %v/%v fall %v/%v",
				ref.NL.Nodes[i], got.RiseAt.At(i), ref.RiseAt.At(i), got.FallAt.At(i), ref.FallAt.At(i))
		}
		if got.EarlyRise.At(i) != ref.EarlyRise.At(i) || got.EarlyFall.At(i) != ref.EarlyFall.At(i) {
			return fmt.Errorf("selfcheck: node %s early arrivals differ: rise %v/%v fall %v/%v",
				ref.NL.Nodes[i], got.EarlyRise.At(i), ref.EarlyRise.At(i), got.EarlyFall.At(i), ref.EarlyFall.At(i))
		}
	}
	gb, rb := got.CheckBlocks(), ref.CheckBlocks()
	if len(gb) != len(rb) {
		return fmt.Errorf("selfcheck: %d check blocks, reference %d", len(gb), len(rb))
	}
	for b := range rb {
		if len(gb[b]) != len(rb[b]) {
			return fmt.Errorf("selfcheck: check block %d holds %d checks, reference %d", b, len(gb[b]), len(rb[b]))
		}
		for i, r := range rb[b] {
			if g := gb[b][i]; g != r {
				return fmt.Errorf("selfcheck: check %d of block %d differs:\n got %s (arc %d)\n ref %s (arc %d)", i, b, g, g.Edge(), r, r.Edge())
			}
		}
	}
	return nil
}

// Result returns the current analysis with its Checks list filled
// (core.Result.CheckList). The Result is immutable, but its netlist is
// the session's live one: callers that traverse NL concurrently with
// Apply must use the query methods instead.
func (s *Session) Result() *core.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.res.CheckList()
	return s.res
}

// LastStats returns the stats of the most recent (re-)analysis.
func (s *Session) LastStats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.last
}
