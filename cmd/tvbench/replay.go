package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/incr"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/simfile"
	"nmostv/internal/snapshot"
	"nmostv/internal/tech"
)

// replayer sends a tvd pass's script through the layers' public
// functions in process: the calls tvd's handlers make, under tvd's
// default session options, with a tvbench span around each call. Every
// span lands in one unbounded tracer, which also goes in through
// incr.Options.Obs, so the session's own phase spans nest under
// tvbench's. The daemon's flight recorder cannot serve here: its
// per-request cap of 256 spans truncates a 100k, three-corner /delta.
type replayer struct {
	ctx     context.Context
	tr      *obs.Tracer
	opts    incr.Options
	name    string
	store   *snapshot.Store
	journal *snapshot.Journal
	sess    *incr.Session
	version int64 // last published version
	snapSeq int64 // version the on-disk snapshot holds
	// applies records the stats and wall time of each Apply while
	// measuring is set.
	measuring bool
	applies   []incr.Stats
	applyMS   []float64
}

// journalBatch mirrors the record tvd journals per committed batch.
type journalBatch struct {
	Kind   string       `json:"kind"`
	Deltas []incr.Delta `json:"deltas,omitempty"`
}

func (rp *replayer) span(name string) *obs.Span { return rp.tr.Start(name) }

// load is tvd's POST /load: parse, analyze, empty the journal, snapshot.
func (rp *replayer) load(sim []byte) error {
	defer rp.span("tvbench.setup").End()
	sp := rp.span("simfile.parse")
	nl, err := simfile.Read(bytes.NewReader(sim), rp.name)
	sp.End()
	if err != nil {
		return err
	}
	sp = rp.span("incr.load")
	rp.sess, err = incr.New(rp.ctx, rp.name, nl, rp.opts)
	sp.End()
	if err != nil {
		return err
	}
	rp.version = 1
	rp.journal, _, err = rp.store.OpenJournal(rp.name, 1)
	if err != nil {
		return err
	}
	if err := rp.journal.Reset(0); err != nil {
		return err
	}
	return rp.snapshot()
}

// snapshot is tvd's snapshot of a session: export, save, and fold the
// journal into it.
func (rp *replayer) snapshot() error {
	sp := rp.span("incr.export")
	st := rp.sess.Export()
	sp.End()
	sp = rp.span("snapshot.save")
	err := rp.store.Save(st)
	sp.End()
	if err != nil {
		return err
	}
	rp.snapSeq = st.Seq
	return rp.journal.Reset(uint64(st.Seq))
}

// restart drops the session as a stopped daemon would, after a drain
// snapshot when graceful, and restores it as tvd's warm restart does:
// load the snapshot, restore, replay the journal tail.
func (rp *replayer) restart(graceful bool) error {
	if graceful && rp.version != rp.snapSeq {
		if err := rp.snapshot(); err != nil {
			return err
		}
	}
	rp.journal.Close()
	rp.sess = nil
	sp := rp.span("snapshot.load")
	st, err := rp.store.Load(rp.name)
	sp.End()
	if err != nil {
		return err
	}
	sp = rp.span("incr.restore")
	rp.sess, err = incr.Restore(rp.ctx, st, rp.opts)
	sp.End()
	if err != nil {
		return err
	}
	rp.version, rp.snapSeq = st.Seq, st.Seq
	var recs []snapshot.Record
	rp.journal, recs, err = rp.store.OpenJournal(rp.name, 1)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Seq <= uint64(st.Seq) {
			continue
		}
		var b journalBatch
		if err := json.Unmarshal(rec.Payload, &b); err != nil {
			return err
		}
		if _, err := rp.apply(b.Deltas, 0); err != nil {
			return err
		}
	}
	return nil
}

// apply is Session.Apply, with the checks tvbench makes of tvd's answer.
func (rp *replayer) apply(deltas []incr.Delta, added int64) (incr.Stats, error) {
	sp := rp.span("incr.apply")
	t0 := time.Now()
	st, err := rp.sess.Apply(rp.ctx, deltas)
	d := time.Since(t0)
	sp.End()
	if err != nil {
		return st, err
	}
	if st.Version != rp.version+1 {
		return st, fmt.Errorf("replay: apply published version %d after %d", st.Version, rp.version)
	}
	rp.version = st.Version
	if added != 0 && (len(st.AddedIDs) != 1 || st.AddedIDs[0] != added) {
		return st, fmt.Errorf("replay: add gave device ids %v, want [%d]", st.AddedIDs, added)
	}
	if rp.measuring {
		rp.applies = append(rp.applies, st)
		rp.applyMS = append(rp.applyMS, ms(d))
	}
	return st, nil
}

// do sends one op of a pass's script.
func (rp *replayer) do(o op) error {
	var err error
	switch o.route {
	case "delta":
		var st incr.Stats
		if st, err = rp.apply(o.deltas, o.added); err == nil {
			sp := rp.span("snapshot.journal_append")
			var payload []byte
			if payload, err = json.Marshal(journalBatch{Kind: "delta", Deltas: o.deltas}); err == nil {
				err = rp.journal.Append(uint64(st.Version), payload)
			}
			sp.End()
		}
	case "restart", "crash":
		err = rp.restart(o.route == "restart")
	case "slack":
		sp := rp.span("incr.slack")
		_, err = rp.sess.Slack(rp.ctx, o.k, o.corner)
		sp.End()
	case "node":
		sp := rp.span("incr.node")
		if _, ok := rp.sess.NodeTiming(o.node); !ok {
			err = fmt.Errorf("replay: no node %q", o.node)
		}
		sp.End()
	case "critical":
		sp := rp.span("incr.critical")
		_, err = rp.sess.CriticalAt(o.corner, o.k)
		sp.End()
	case "paths":
		sp := rp.span("paths.stream")
		var ps *incr.PathStream
		if ps, err = rp.sess.PathStream(o.corner); err == nil {
			for i := 0; i < o.k; i++ {
				if _, ok := ps.Next(); !ok {
					break
				}
			}
		}
		sp.End()
	case "why":
		sp := rp.span("paths.why")
		_, err = rp.sess.Why(rp.ctx, o.node, "", "")
		sp.End()
	case "diff":
		// tvd's defaults: the last batch, bitwise, rank depth 10, 100 nodes.
		sp := rp.span("paths.diff")
		_, err = rp.sess.Diff(rp.ctx, 0, 0, 0, 10, 100)
		sp.End()
	case "corners":
		sp := rp.span("incr.corners")
		rp.sess.Corners()
		sp.End()
	default:
		err = fmt.Errorf("replay: unknown op %q", o.route)
	}
	return err
}

// replay sends the pass's script through the layers in process and
// records the per-layer metrics: each layer's share of the measured ops'
// time, the apply cone counts and ratios, and how much longer tvd took
// over HTTP. Its final slack ranking must equal the one tvd served, and
// the session must pass SelfCheck. The set-up's split by layer and the
// apply latencies go to the run's detail.
func (e *env) replay(r *run, p *tvdPass) {
	dir := filepath.Join(e.work, "replay")
	store, err := snapshot.NewStore(dir)
	if !r.op(err) {
		return
	}
	corners, err := tech.ParseCorners("slow,typ,fast")
	if !r.op(err) {
		return
	}
	tr := obs.NewTracer()
	rp := &replayer{
		ctx: e.ctx, tr: tr, name: p.d.name, store: store,
		opts: incr.Options{
			Params:  tech.Default(),
			Sched:   clocks.TwoPhase(1000, 0.8),
			Core:    core.Options{},
			Corners: corners,
			Obs:     &obs.Obs{Reg: obs.NewRegistry(), Tr: tr},
		},
	}
	if !r.op(rp.load(p.d.sim)) {
		return
	}
	fi, err := os.Stat(store.SnapshotPath(p.d.name))
	if !r.op(err) {
		return
	}
	for _, o := range p.script[:p.warm] {
		if !r.op(rp.do(o)) {
			return
		}
	}
	rp.measuring = true
	sp := tr.Start("tvbench.measure")
	for _, o := range p.script[p.warm:] {
		if !r.op(rp.do(o)) {
			sp.End()
			return
		}
	}
	sp.End()
	rp.measuring = false

	rows, err := rp.sess.Slack(e.ctx, 20, "")
	if r.op(err) {
		got, _ := json.Marshal(rows)
		if !bytes.Equal(got, p.slack) {
			err = fmt.Errorf("replay's final slack ranking differs from the one tvd served")
		}
		r.op(err)
	}
	r.op(rp.sess.SelfCheck(e.ctx))
	rp.journal.Close()

	tracePath := e.tracePath()
	f, err := os.Create(tracePath)
	if !r.op(err) {
		return
	}
	err = tr.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if !r.op(err) {
		return
	}
	spans, err := readTraceFile(tracePath)
	if !r.op(err) {
		return
	}
	window := make(map[string]span)
	for _, s := range spans {
		if s.name == "tvbench.setup" || s.name == "tvbench.measure" {
			window[s.name] = s
		}
	}
	m := window["tvbench.measure"]
	setShares(r, selfTimes(spans, m.start, m.end), m.end-m.start)
	r.set("trace.op_ms", float64(m.end-m.start)/1e6/float64(len(p.ops)))
	r.set("server.overhead_ratio", float64(p.elapsed.Nanoseconds())/float64(m.end-m.start))
	applyCounts(r, rp.applies)
	r.set("snapshot.bytes_per_transistor", float64(fi.Size())/float64(p.d.transistors))

	su := window["tvbench.setup"]
	r.detail("setup.total_ms", "ms", []float64{float64(su.end-su.start) / 1e6}, 500)
	for layer, ns := range selfTimes(spans, su.start, su.end) {
		r.detail("setup."+layer+"_ms", "ms", []float64{float64(ns) / 1e6}, 500)
	}
	r.detail("incr.apply_p50_ms", "ms", rp.applyMS, 500)

	info := rp.sess.Info()
	r.set("stage.stages", float64(info.Stages))
	r.set("delay.arcs", float64(info.Arcs))
	res := rp.sess.Result()
	r.set("core.checks", float64(len(res.Checks)))
	pass := 0
	for _, t := range res.NL.Trans {
		if t.Role == netlist.RolePass {
			pass++
		}
	}
	r.set("flow.pass_devices", float64(pass))
}

// applyCounts records the per-batch means of the apply cone counts and
// the reuse ratios over the measured applies.
func applyCounts(r *run, applies []incr.Stats) {
	if len(applies) == 0 {
		return
	}
	var rebuilt, cone, relaxed, changed, stages, reused float64
	var coneRatio float64
	for _, st := range applies {
		rebuilt += float64(st.StagesRebuilt)
		cone += float64(st.ConeStages)
		relaxed += float64(st.NodesRelaxed)
		changed += float64(st.ChangedNodes)
		stages += float64(st.StagesTotal)
		coneRatio += float64(st.ConeStages) / float64(st.StagesTotal)
		if st.ReusedWave {
			reused++
		}
	}
	n := float64(len(applies))
	r.set("incr.stages_rebuilt", rebuilt/n)
	r.set("incr.cone_stages", cone/n)
	r.set("incr.nodes_relaxed", relaxed/n)
	r.set("incr.changed_nodes", changed/n)
	r.set("incr.cone_ratio", coneRatio/n)
	r.set("incr.reused_wave_ratio", reused/n)
	r.set("delay.cache_hit_ratio", 1-rebuilt/stages)
}
