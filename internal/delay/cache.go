package delay

import (
	"context"
	"slices"

	"nmostv/internal/cow"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// Cache is the record of the last completed cached build: the partition
// it built over, each stage's content fingerprint (stage.Fingerprint) and
// arc shard, the model, and where every shard arc landed in the model's
// arc array. The next build keeps a stage's shard while the stage's
// fingerprint is unchanged — the fingerprint covers everything the edge
// builder reads from the stage: device sizes and flow orientation,
// channel-node loading, node annotations, and the case-analysis
// constants — and rebuilds only the others.
//
// Records are immutable and every build replaces the record wholesale,
// so Checkpoint and Rollback are pointer swaps. A Cache is single-owner
// state (one per incremental session, one build configuration); it is not
// safe for concurrent use.
type Cache struct {
	last *record
	// scratch is the reusable graph snapshot backing store: a session's
	// repeated rebuilds refill the same flat arrays instead of
	// reallocating O(nodes + devices) state per edit. A sized build only
	// patches it, so it must describe the last build's netlist state;
	// stale says it may not (a rollback, or an aborted build that patched
	// or refilled it from a netlist its caller then undid), and the next
	// build refills it.
	scratch *graph
	stale   bool
	// builder keeps one edge builder between builds: a collection
	// empties a sync.Pool, and a builder made afresh carries node-sized
	// scratch and an edge slab a one-stage rebuild would allocate again.
	builder builderSlot
}

// record is one completed build. Its arrays are never written after the
// build that made it, so a later sized build clones them and writes only
// the chunks of the stages it probed or rebuilt.
type record struct {
	stages *stage.Result
	fps    cow.Array[uint64]
	shards cow.Array[shard]
	model  *Model
	place  placement
}

// NewCache returns an empty shard cache.
func NewCache() *Cache { return &Cache{} }

// Checkpoint captures the cache's last build for a later Rollback.
type Checkpoint struct {
	last *record
}

// Checkpoint returns a handle on the last build.
func (c *Cache) Checkpoint() Checkpoint { return Checkpoint{last: c.last} }

// Rollback restores the last build captured by a Checkpoint. A session
// that unwinds an aborted delta batch must also unwind the cache: a
// completed BuildWithCache for the aborted state would otherwise leave
// shards and fingerprints of the mutated netlist, and re-applying the
// same batch would hit wholesale — reporting zero rebuilt stages and
// starving the incremental analyzer's seed set. The graph scratch was
// patched for the aborted state, so it is marked stale too.
func (c *Cache) Rollback(cp Checkpoint) {
	c.last = cp.last
	c.stale = true
}

// Fingerprints returns a copy of the per-stage fingerprints of the last
// completed build, nil before the first.
func (c *Cache) Fingerprints() []uint64 {
	if c.last == nil {
		return nil
	}
	return c.last.fps.Slice()
}

// BuildStats reports how much of a cached build was recomputed.
type BuildStats struct {
	// Stages is the total stage count of the partition.
	Stages int
	// Rebuilt lists the stages whose shards were recomputed (cache
	// misses), in stage-index order.
	Rebuilt []*stage.Stage
}

// BuildWithCache is Build with per-stage shard reuse against the cache's
// last build: stages whose fingerprint matches keep their cached edges;
// the rest are rebuilt on the option's worker pool. The merged, sorted
// model is bit-identical to a from-scratch Build on the same netlist
// state — the fingerprint covers every input of the per-stage
// computation, and the merge order is unchanged.
//
// loads selects the probe. nil probes every stage, against a fingerprint
// map of the last build (a hit must also match the stage's device-ID
// list, which rules out fingerprint collisions). A non-nil loads is the
// caller's promise that since the last build only device sizes and node
// capacitances changed, and that it names the gate and both channel
// terminals of every resized device and every node whose capacitance was
// set: exactly the nodes whose loading (NodeCap) can have moved, and —
// through the terminals — the stage of every resized device, even one
// whose loading did not move (an L-only resize changes no diffusion
// cap). On the last build's partition such a sized build copies the last
// Caps and recomputes them at the named nodes, fingerprints only the
// stages owning a named node, and counts every other stage as a hit. On
// any other partition it probes every stage.
//
// When every rebuilt shard keeps its arc identities (From, To, Invert,
// GateArc and the phase masks, in order) the arcs keep their merged
// positions: the build copies the last model's arc array and writes the
// rebuilt shards over it instead of placing every arc again. When
// nothing was rebuilt and no loading moved, the last model itself is
// returned.
//
// The context is polled once per rebuilt shard. An aborted build returns
// the error with no model and leaves the last build in place, so a
// rolled-back session keeps its warm shards.
func BuildWithCache(ctx context.Context, nl *netlist.Netlist, st *stage.Result, p tech.Params, opt Options, c *Cache, loads []int) (*Model, BuildStats, error) {
	opt = opt.withDefaults()
	defer opt.Obs.Span("delay-build-cached").End()
	prev := c.last
	same := prev != nil && prev.stages == st
	sized := same && loads != nil
	forced := forcedMap(nl, opt)
	stages := st.Stages
	var m *Model
	var probe []int
	if sized {
		m = &Model{Caps: prev.model.Caps.Clone(), NodeFlags: prev.model.NodeFlags, NodePhase: prev.model.NodePhase}
		for _, n := range loads {
			m.Caps.Set(n, NodeCap(nl.Nodes[n], p))
			if si := st.NodeStage[n]; si >= 0 {
				probe = append(probe, int(si))
			}
		}
		slices.Sort(probe)
		probe = slices.Compact(probe)
	} else {
		m = &Model{Caps: ComputeCaps(nl, p)}
		m.snapshotNodes(nl)
	}
	if sized && !c.stale {
		c.scratch.refresh(st, probe, loads, &m.Caps, p)
	} else {
		c.scratch = newGraph(nl, p, m.Caps, forced, c.scratch)
		c.stale = false
	}

	var fps cow.Array[uint64]
	var shards cow.Array[shard]
	var todo []int
	sp := opt.Obs.Span("fingerprint+probe")
	if sized {
		fps, shards = prev.fps.Clone(), prev.shards.Clone()
		for _, i := range probe {
			fp := stages[i].Fingerprint(&m.Caps, forced)
			if fp != prev.fps.At(i) {
				fps.Set(i, fp)
				todo = append(todo, i)
			}
		}
	} else {
		fps, shards = cow.Make(len(stages), uint64(0)), cow.Make(len(stages), shard{})
		var known map[uint64]int
		if prev != nil {
			known = make(map[uint64]int, prev.fps.Len())
			for k := range prev.fps.Len() {
				known[prev.fps.At(k)] = k
			}
		}
		for i, s := range stages {
			fp := s.Fingerprint(&m.Caps, forced)
			fps.Set(i, fp)
			if k, ok := known[fp]; ok && sameDevices(prev.stages.Stages[k], s) {
				shards.Set(i, prev.shards.At(k))
				continue
			}
			todo = append(todo, i)
		}
	}
	sp.End()
	sp = opt.Obs.Span("shard-build")
	err := buildShards(ctx, c.scratch, st, opt, &shards, todo, &c.builder)
	sp.End()
	if err != nil {
		c.stale = true
		return nil, BuildStats{}, err
	}

	stats := BuildStats{Stages: len(stages)}
	for _, i := range todo {
		stats.Rebuilt = append(stats.Rebuilt, stages[i])
	}
	opt.Obs.Counter("delay_cache_hits_total",
		"stage shards reused from the content-addressed cache").Add(int64(len(stages) - len(todo)))
	opt.Obs.Counter("delay_cache_misses_total",
		"stage shards rebuilt on cache miss").Add(int64(len(todo)))

	sp = opt.Obs.Span("merge+sort")
	defer sp.End()
	keep := same
	for _, i := range todo {
		keep = keep && sameArcs(shards.Ref(i).edges, prev.shards.Ref(i).edges)
	}
	if !keep {
		c.last = &record{stages: st, fps: fps, shards: shards, model: m, place: mergeShards(m, &shards)}
		return m, stats, nil
	}
	if len(todo) == 0 && cow.Equal(&m.Caps, &prev.model.Caps, func(x, y float64) bool { return x == y }) &&
		slices.Equal(m.NodeFlags, prev.model.NodeFlags) && slices.Equal(m.NodePhase, prev.model.NodePhase) {
		m = prev.model
	} else {
		m.Edges = prev.model.Edges.Clone()
		m.Truncated = prev.model.Truncated
		m.Layout = prev.model.Layout
		for _, i := range todo {
			sh := shards.Ref(i)
			sh.scatter(&m.Edges, prev.place.of(i))
			m.Truncated += sh.truncated - prev.shards.Ref(i).truncated
		}
	}
	c.last = &record{stages: st, fps: fps, shards: shards, model: m, place: prev.place}
	return m, stats, nil
}

// sameDevices reports whether two stages hold the same devices, by stable
// ID, in the same order.
func sameDevices(a, b *stage.Stage) bool {
	if len(a.Trans) != len(b.Trans) {
		return false
	}
	for i, t := range a.Trans {
		if b.Trans[i].ID != t.ID {
			return false
		}
	}
	return true
}

// sameArcs reports whether two shards hold arcs of the same identities in
// the same order; delays may differ.
func sameArcs(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !SameArc(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// Fingerprints computes the per-stage content fingerprints for the
// current netlist state without building any edges — exactly the keys a
// full-probe BuildWithCache on the same state computes. Session
// self-checks compare a session's retained fingerprints against these.
func Fingerprints(nl *netlist.Netlist, st *stage.Result, p tech.Params, opt Options) []uint64 {
	opt = opt.withDefaults()
	caps := ComputeCaps(nl, p)
	forced := forcedMap(nl, opt)
	fps := make([]uint64, len(st.Stages))
	for i, s := range st.Stages {
		fps[i] = s.Fingerprint(&caps, forced)
	}
	return fps
}
