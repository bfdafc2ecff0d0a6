// Package pipeline is the one place the analysis steps are sequenced:
// finalize → stage partition → flow → delay build → base analysis →
// corner analyses. The tv facade, the experiments, the corner sweep and
// every incremental-session path (load, delta, rollback, self-check,
// restore) drive these steps. Each step opens its span and reads a dirty
// set, the part of the design it must redo:
//
//	step             span                   dirty set read                 dirty set produced
//	finalize         finalize               edit kind Devices              device lists, roles
//	stage partition  stage-partition        edit kind Unstaged or above    partition
//	flow             flow                   edit kind Annotations or above pass-device orientation
//	delay build      delay-build[-cached]   partition, loads (Sizes)       model, rebuilt stages
//	base analysis    analyze[-incremental]  rebuilt stages + edited nodes  relaxed list, result
//	corner analyses  corner-analyses        the base's node seed           per-corner views, results
//
// A full run is the same path with no previous state: without a shard
// cache every stage is rebuilt, and core.Analyze is a call of
// core.AnalyzeIncremental with no previous result.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/faultpoint"
	"nmostv/internal/flow"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// Edit is the kind of netlist change since the partition and the flow
// orientation were last derived. Each kind redoes what the kinds before
// it redo.
type Edit uint8

const (
	// Sizes: device sizes or node capacitances, which neither the
	// partition nor the flow orientation reads.
	Sizes Edit = iota
	// Annotations: node flags or phases; flow re-infers.
	Annotations
	// Unstaged: a finalized netlist never partitioned.
	Unstaged
	// Devices: devices added or removed, or a netlist never finalized.
	Devices
)

// Pipeline holds what every run over one design shares.
type Pipeline struct {
	Params tech.Params
	// NoFlow times every pass device in both directions.
	NoFlow bool
	// Delay tunes the arc builder; a run sets its Obs.
	Delay delay.Options
	// Cache, when set, keeps the arcs of stages whose content did not
	// change since the last build.
	Cache *delay.Cache
	Sched clocks.Schedule
	// Core tunes the analyses; a run sets Obs, Arena and the corners' Plan.
	Core    core.Options
	Corners []tech.Corner
	// Arenas, when set, is the analysis scratch every run reuses: the
	// base's, then one per corner, since the base's relaxed list is read
	// after the corners run. Runs sharing arenas must not overlap.
	Arenas []core.Arena
}

// State is a design's derived products, one per step.
type State struct {
	NL      *netlist.Netlist
	Stages  *stage.Result
	Flow    flow.Summary
	Model   *delay.Model
	Base    *core.Result
	Corners []Corner
}

// Corner is one corner's analysis.
type Corner struct {
	Corner tech.Corner
	// Model is the base model's view at the corner (delay.Model.At).
	Model *delay.Model
	Res   *core.Result
	// Reused reports that the corner kept its previous model because the
	// base model did not change.
	Reused  bool
	Elapsed time.Duration
}

// Stats reports what a run redid.
type Stats struct {
	Build delay.BuildStats
	Delta core.DeltaStats
}

// Run drives every step from prev, the state last derived and analyzed
// (just the netlist for a full run), after an edit of the given kind that
// also changed the arrival inputs of nodes. prev is not modified, so on
// error a caller undoes its edit (see Derive) and keeps prev. A run from a
// previous result passes the fault points incr.apply.analyze and
// incr.apply.corner before the base and corner analyses.
//
// loads is read only by a Sizes run with a shard cache, and only when
// non-nil: it then names every node whose loading the edit can have
// moved — the gate and both channel terminals of each resized device,
// and each node whose capacitance was set. The terminals also name the
// device's own stage, which an L-only resize changes without moving any
// terminal's loading. The delay build then probes only the stages owning
// those nodes. A nil loads probes every stage. loads is not an arrival
// seed: the rebuilt stages' nodes and nodes seed the base analysis
// whatever loads names.
func (p *Pipeline) Run(ctx context.Context, o *obs.Obs, prev State, edit Edit, nodes, loads []int) (State, Stats, error) {
	next := prev
	p.Derive(o, &next, edit)
	if edit != Sizes {
		loads = nil
	}
	var stats Stats
	var err error
	if stats.Build, err = p.build(ctx, o, &next, loads); err != nil {
		return State{}, Stats{}, err
	}
	var seed []int32
	if prev.Base != nil {
		for _, i := range nodes {
			seed = append(seed, int32(i))
		}
		for _, stg := range stats.Build.Rebuilt {
			for _, nd := range stg.Nodes {
				seed = append(seed, int32(nd.Index))
			}
		}
		if err := faultpoint.Hit("incr.apply.analyze"); err != nil {
			return State{}, Stats{}, fmt.Errorf("incr: apply: %w", err)
		}
	}
	arenas := p.arenas()
	if stats.Delta, err = p.base(ctx, o, &next, prev.Base, seed, &arenas[0]); err != nil {
		return State{}, Stats{}, err
	}
	if prev.Base != nil {
		if err := faultpoint.Hit("incr.apply.corner"); err != nil {
			return State{}, Stats{}, fmt.Errorf("incr: apply: %w", err)
		}
	}
	if err := p.corners(ctx, o, &next, prev, seed, arenas[1:]); err != nil {
		return State{}, Stats{}, err
	}
	return next, stats, nil
}

// Prepare runs the steps before the analyses on a finalized netlist.
func (p *Pipeline) Prepare(ctx context.Context, o *obs.Obs, nl *netlist.Netlist) (State, error) {
	st := State{NL: nl}
	p.Derive(o, &st, Unstaged)
	_, err := p.build(ctx, o, &st, nil)
	return st, err
}

// Analyze runs the analysis steps a prepared state lacks: the base
// analysis unless st holds one, then every corner.
func (p *Pipeline) Analyze(ctx context.Context, o *obs.Obs, st *State) error {
	arenas := p.arenas()
	if st.Base == nil {
		if _, err := p.base(ctx, o, st, nil, nil, &arenas[0]); err != nil {
			return err
		}
	}
	return p.corners(ctx, o, st, State{}, nil, arenas[1:])
}

// Derive runs finalize, stage partition and flow as far as the edit
// needs. Finalize and flow store their results on the netlist, so a
// caller that undoes an edit derives again for the same kind.
func (p *Pipeline) Derive(o *obs.Obs, st *State, edit Edit) {
	if edit >= Devices {
		sp := o.Span("finalize")
		st.NL.Finalize()
		sp.End()
	}
	if edit >= Unstaged {
		sp := o.Span("stage-partition")
		st.Stages = stage.Extract(st.NL)
		sp.End()
	}
	if edit >= Annotations {
		sp := o.Span("flow")
		if p.NoFlow {
			flow.Reset(st.NL)
		} else {
			st.Flow = flow.Analyze(st.NL)
		}
		sp.End()
	}
}

// arenas returns the base's and each corner's analysis scratch: fresh
// unless the pipeline has its own.
func (p *Pipeline) arenas() []core.Arena {
	if n := 1 + len(p.Corners); len(p.Arenas) < n {
		return make([]core.Arena, n)
	}
	return p.Arenas
}

// build rebuilds every stage's arcs, or with a cache only the changed
// stages' (probing only the stages owning loads, when named); when none
// changed and no capacitance moved, the cache returns its last model, so
// the corners keep theirs too.
func (p *Pipeline) build(ctx context.Context, o *obs.Obs, st *State, loads []int) (delay.BuildStats, error) {
	opt := p.Delay
	opt.Obs = o
	if p.Cache == nil {
		m, err := delay.BuildCtx(ctx, st.NL, st.Stages, p.Params, opt)
		st.Model = m
		return delay.BuildStats{Stages: len(st.Stages.Stages), Rebuilt: st.Stages.Stages}, err
	}
	m, bs, err := delay.BuildWithCache(ctx, st.NL, st.Stages, p.Params, opt, p.Cache, loads)
	if err == nil {
		st.Model = m
	}
	return bs, err
}

// base re-relaxes from prev only what the seed reaches, or everything
// when prev is nil.
func (p *Pipeline) base(ctx context.Context, o *obs.Obs, st *State, prev *core.Result, seed []int32, arena *core.Arena) (core.DeltaStats, error) {
	opt := p.Core
	opt.Obs, opt.Arena = o, arena
	res, ds, err := core.AnalyzeIncremental(ctx, st.NL, st.Model, p.Sched, opt, prev, seed)
	st.Base = res
	return ds, err
}

// corners analyzes one corner after another. The typical corner is the
// base analysis itself. Any other corner's model is its previous one when the base model did not
// change, and otherwise the base model's view at the corner, which
// copies nothing. Its analysis extends its previous result (if any) from
// the base's seed over the base's plan: uniform scaling keeps every arc,
// and changes one exactly when it changes the base arc. The plan handle
// carries the arc moves the base analysis found, so no corner walks the
// arcs again.
func (p *Pipeline) corners(ctx context.Context, o *obs.Obs, st *State, prev State, seed []int32, arenas []core.Arena) error {
	st.Corners = nil
	if len(p.Corners) == 0 {
		return nil
	}
	defer o.Span("corner-analyses").End()
	opt := p.Core
	opt.Obs, opt.Plan = o, st.Base.Plan()
	for i, c := range p.Corners {
		start := time.Now()
		var was Corner
		if i < len(prev.Corners) {
			was = prev.Corners[i]
		}
		cr := Corner{Corner: c, Model: st.Model, Res: st.Base, Reused: st.Model == prev.Model && was.Model != nil}
		if !c.IsTypical() {
			cr.Model = was.Model
			if !cr.Reused {
				cr.Model = st.Model.At(c)
			}
			opt.Arena = &arenas[i]
			res, _, err := core.AnalyzeIncremental(ctx, st.NL, cr.Model, p.Sched, opt, was.Res, seed)
			if err != nil {
				return fmt.Errorf("corner %s: %w", c.Name, err)
			}
			cr.Res = res
		}
		cr.Elapsed = time.Since(start)
		st.Corners = append(st.Corners, cr)
	}
	return nil
}
