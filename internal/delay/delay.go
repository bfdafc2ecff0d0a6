// Package delay turns a staged, flow-analyzed transistor netlist into
// timing edges: directed (from-node → to-node) delay arcs with separate
// rise and fall values, computed from RC models in the style of 1983-era
// nMOS timing analyzers.
//
// The model per stage:
//
//   - A node falls through a conducting path of enhancement devices to GND.
//     The worst case over enumerated simple paths of the Elmore sum along
//     the path (each path node's capacitance times the resistance between
//     it and GND) gives the fall delay; each gate on the path contributes a
//     timing edge, because the last-arriving series input determines when
//     the path conducts.
//
//   - A node rises through its attached pullup: the depletion load in
//     ratioed logic (resistance RDep, always on), or an enhancement
//     precharge device (gated by a clock, degraded drive).
//
//   - Signal propagates through a pass device from its flow-source terminal
//     to its flow-sink terminal with delay R_pass × C_downstream, where
//     C_downstream is everything reachable onward through conducting pass
//     devices — the stepwise form of the Elmore delay of the pass tree.
//
// Rise and fall are asymmetric (ratioed logic) and edges carry an Invert
// flag: restoring stages invert (input rise causes output fall), pass
// propagation does not.
//
// Edges reference nodes by index (Node.Index), not by pointer: the hot
// relaxation loops downstream read only flat arrays, and the builder itself
// walks an index-based snapshot (see graph.go) rather than the netlist's
// pointer slices.
package delay

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"nmostv/internal/cow"
	"nmostv/internal/faultpoint"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// Inf marks a transition an edge cannot cause.
var Inf = math.Inf(1)

// Phase masks: a transition whose conducting path runs through devices
// gated by a clock can only happen while that clock is high. MaskRise and
// MaskFall on an edge record which clock phases the corresponding
// transition requires.
const (
	// MaskPhi1 marks a path through a φ1-gated device.
	MaskPhi1 uint8 = 1 << 0
	// MaskPhi2 marks a path through a φ2-gated device.
	MaskPhi2 uint8 = 1 << 1
)

// PhaseBit returns the mask bit for a clock phase number (1 or 2).
func PhaseBit(phase int) uint8 {
	if phase == 2 {
		return MaskPhi2
	}
	return MaskPhi1
}

// clockMask returns the phase requirement contributed by a device gated by
// node g: a mask bit if g is a clock, else 0.
func clockMask(g *netlist.Node) uint8 {
	if g.IsClock() {
		return PhaseBit(g.Phase)
	}
	return 0
}

// Edge is one directed timing arc. From and To are node indices
// (Node.Index) into the netlist the model was built from; the model's
// NodeFlags/NodePhase arrays carry the node state the analyzer needs, so
// relaxation never touches *netlist.Node.
type Edge struct {
	// From is the causing node (a gate input, clock, or pass-network
	// upstream node).
	From int32
	// To is the affected node.
	To int32
	// DRise is the delay in ns from the causing transition of From to To
	// rising; Inf if this edge cannot make To rise. For Invert edges the
	// causing transition is From falling, otherwise From rising.
	DRise float64
	// DFall is the delay in ns to To falling (caused by From rising if
	// Invert, else From falling).
	DFall float64
	// MaskRise and MaskFall record which clock phases must be high for
	// the corresponding transition's conducting path (0 = unconditional).
	MaskRise, MaskFall uint8
	// Invert is true for restoring (gate-like) arcs, false for pass
	// propagation and precharge arcs.
	Invert bool
	// GateArc is true for arcs launched by a device's gate *rising*
	// (opening a pass transistor or a precharge pullup): both output
	// transitions are caused by From rising; From falling causes
	// nothing (the device merely turns off).
	GateArc bool
	// Via is the stable netlist ID (netlist.Transistor.ID, not the
	// positional index) of a representative device for reporting. An ID
	// instead of a pointer keeps the edge array pointer-free — the
	// garbage collector never scans the model's largest allocation — and
	// unlike an index it survives device removals, which renumber
	// positions under the delay cache's reused shards.
	Via int64
}

func (e Edge) String() string {
	pol := "pass"
	if e.Invert {
		pol = "inv"
	}
	return fmt.Sprintf("#%d -> #%d [%s rise=%.4g fall=%.4g]", e.From, e.To, pol, e.DRise, e.DFall)
}

// Options tunes the edge builder.
type Options struct {
	// MaxPaths bounds GND-path enumeration per node; beyond it the
	// builder falls back to a single conservative pseudo-path using the
	// maximum observed resistance. Default 64.
	MaxPaths int
	// MaxDepth bounds the series length of an enumerated path.
	// Default 32.
	MaxDepth int
	// MaxSteps bounds the total DFS work per node during GND-path
	// enumeration; unoriented dense pass networks otherwise explode
	// combinatorially. Default 20000.
	MaxSteps int
	// SetHigh and SetLow name nodes the analysis holds at constant
	// values — TV-style case analysis. Devices gated by a SetLow node
	// never conduct (their paths vanish); SetHigh gates conduct
	// permanently but never launch transitions. A name resolves to the
	// node whose own name it is (netlist.Named); the build skips a name
	// that resolves to none, and the analysis rejects it.
	SetHigh, SetLow []string
	// Workers sets how many goroutines build stage edges concurrently.
	// 0 (the default) uses one per CPU; 1 forces a serial build. The
	// result is bit-identical at every worker count: stages are
	// electrically independent (every arc lands on a node owned by
	// exactly one stage), and the per-stage edge buffers are merged in
	// stage-index order.
	Workers int
	// Obs receives build phase spans and the shard-cache hit/miss
	// counters; nil disables instrumentation.
	Obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.MaxPaths <= 0 {
		o.MaxPaths = 64
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 32
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 20000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Model is the computed set of timing edges for a netlist, or a corner's
// view of one (At).
type Model struct {
	// Edges holds every arc, deterministically ordered. Its delays are
	// the typical process's; Delay reads them at the model's scale. A
	// cached build that rebuilt a few stages shares every chunk of it
	// but those stages' arcs with the last build's model.
	Edges cow.Array[Edge]
	// Caps.At(i) is the total capacitance in pF seen at node index i
	// (extracted wire cap + gate loading + diffusion loading) at the
	// typical process. A corner view has none.
	Caps cow.Array[float64]
	// NodeFlags[i] and NodePhase[i] snapshot node i's annotations and
	// clock phase at build time. The analyzer reads node state from
	// these packed arrays — the netlist stays the mutable pointer-based
	// editing view, while analysis runs on this flat snapshot. Any edit
	// that changes a flag the model depends on changes stage
	// fingerprints and forces a rebuild, so the snapshot is never stale
	// for the edges it accompanies.
	NodeFlags []netlist.Flag
	NodePhase []int32
	// Truncated counts nodes whose GND-path enumeration hit MaxPaths and
	// used the conservative fallback.
	Truncated int
	// Layout names the arc layout: two models with the same nonzero
	// Layout hold the same arcs (SameArc) at every index. A merge of the
	// shards lays the arcs out afresh under a new Layout; a cached build
	// that keeps every arc's identity, and a corner model, keep theirs.
	// Zero names no layout.
	Layout uint64
	// scale is the factor Delay multiplies every arc delay by: a
	// corner's RScale·CScale. Zero, which every built model and every
	// Model literal has, reads the delays unscaled.
	scale float64
}

// At returns the model's view at corner c: the same arcs, node snapshot
// and layout, read at c's delay scale (tech.Corner.DelayScale), and no
// Caps. It is O(1) — the view shares every array with m — and a typical
// corner's view is m itself. Because each arc delay is a sum of R·C
// products, the view's delays are exactly the corner's (see corner.go).
func (m *Model) At(c tech.Corner) *Model {
	if c.IsTypical() {
		return m
	}
	return &Model{
		Edges:     m.Edges,
		NodeFlags: m.NodeFlags,
		NodePhase: m.NodePhase,
		Truncated: m.Truncated,
		Layout:    m.Layout,
		scale:     m.DelayScale() * c.DelayScale(),
	}
}

// DelayScale is the factor the model reads its arc delays at: 1 for a
// built model, the corner's RScale·CScale for a corner view.
func (m *Model) DelayScale() float64 {
	if m.scale == 0 {
		return 1
	}
	return m.scale
}

// Delay returns arc e's delay at the model's scale and its phase mask,
// for To rising, or falling when fall is set. Every reader of an arc
// delay goes through it. The explicit conversion rounds the product
// before any addition the caller makes: the Go spec lets the compiler
// fuse x*y+z into one rounding, and an analysis over a materialized
// corner model (ScaleModel) adds the rounded product.
func (m *Model) Delay(e *Edge, fall bool) (float64, uint8) {
	if fall {
		return float64(e.DFall * m.DelayScale()), e.MaskFall
	}
	return float64(e.DRise * m.DelayScale()), e.MaskRise
}

// Arc returns arc i for reading.
func (m *Model) Arc(i int32) *Edge { return m.Edges.Ref(int(i)) }

// layouts numbers the arc layouts mergeShards produces.
var layouts atomic.Uint64

// IsClock reports whether node index i was annotated as a clock when the
// model was built.
func (m *Model) IsClock(i int32) bool { return m.NodeFlags[i]&netlist.FlagClock != 0 }

// snapshotNodes fills the model's per-node flag/phase arrays from the
// netlist's current state.
func (m *Model) snapshotNodes(nl *netlist.Netlist) {
	m.NodeFlags = make([]netlist.Flag, len(nl.Nodes))
	m.NodePhase = make([]int32, len(nl.Nodes))
	for i, n := range nl.Nodes {
		m.NodeFlags[i] = n.Flags
		m.NodePhase[i] = int32(n.Phase)
	}
}

// NodeCap returns the total loading of one node in pF under params p:
// extracted capacitance plus the gate capacitance of every device the node
// gates plus the diffusion capacitance of every channel terminal on it.
func NodeCap(n *netlist.Node, p tech.Params) float64 {
	c := n.Cap
	for _, t := range n.Gates {
		c += p.CGateOf(t.W, t.L)
	}
	for _, t := range n.Terms {
		c += p.CDiffOf(t.W)
	}
	return c
}

// ComputeCaps returns the per-node-index total loading (NodeCap) for
// every node of the netlist — the Caps array of a Model built under p.
func ComputeCaps(nl *netlist.Netlist, p tech.Params) cow.Array[float64] {
	caps := cow.Make(len(nl.Nodes), 0.0)
	for _, n := range nl.Nodes {
		caps.Set(n.Index, NodeCap(n, p))
	}
	return caps
}

// forcedMap resolves the case-analysis constant lists against the netlist.
func forcedMap(nl *netlist.Netlist, opt Options) map[*netlist.Node]bool {
	forced := make(map[*netlist.Node]bool)
	for _, name := range opt.SetHigh {
		if n := nl.Named(name); n != nil {
			forced[n] = true
		}
	}
	for _, name := range opt.SetLow {
		if n := nl.Named(name); n != nil {
			forced[n] = false
		}
	}
	return forced
}

// shard is one stage's edge buffer: shards merge in stage-index order, so
// concatenation reproduces the serial append order exactly.
type shard struct {
	edges     []Edge
	truncated int
}

// minParallelShards is the shortest todo list worth fanning out, the
// walk's floor (core's minParallelLevel): a cone rebuild of a few stages
// builds inline at any worker count, with the one builder a cache keeps.
const minParallelShards = 8

// buildShards computes the shards for the stage indices listed in todo
// using the option's worker pool, with builders from kept (nil: the
// process-wide pool). Slots not listed are left untouched; the slots
// listed are made the array's own before any worker writes one. The
// context is polled once per shard: cancellation (or the
// "delay.build.shard" fault point) aborts the build with the first error
// and the caller must discard the partially filled shards.
func buildShards(ctx context.Context, g *graph, st *stage.Result, opt Options,
	shards *cow.Array[shard], todo []int, kept *builderSlot) error {
	stages := st.Stages
	for _, si := range todo {
		shards.Own(si)
	}
	buildOne := func(b *builder, si int) {
		b.beginShard()
		b.truncated = 0
		clear(b.merged)
		b.stageEdges(stages[si])
		shards.Set(si, shard{edges: b.finishShard(), truncated: b.truncated})
	}
	var (
		stop     atomic.Bool
		stopOnce sync.Once
		stopErr  error
	)
	fail := func(err error) {
		stopOnce.Do(func() {
			stopErr = err
			stop.Store(true)
		})
	}
	// check polls for an abort before each shard build.
	check := func() bool {
		if stop.Load() {
			return false
		}
		if err := ctx.Err(); err != nil {
			fail(err)
			return false
		}
		if err := faultpoint.Hit("delay.build.shard"); err != nil {
			fail(fmt.Errorf("delay: build shard: %w", err))
			return false
		}
		return true
	}
	workers := opt.Workers
	if workers > len(todo) {
		workers = len(todo)
	}
	if workers <= 1 || len(todo) < minParallelShards {
		b := kept.get(g, opt)
		for _, si := range todo {
			if !check() {
				break
			}
			buildOne(b, si)
		}
		kept.put(b)
		return stopErr
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := kept.get(g, opt)
			defer kept.put(b)
			for {
				k := int(next.Add(1)) - 1
				if k >= len(todo) || !check() {
					return
				}
				buildOne(b, todo[k])
			}
		}()
	}
	wg.Wait()
	return stopErr
}

// placement records where a merge put every shard arc. Shard i's arcs
// are numbered off[i] to off[i+1]-1 in concatenation order, and pos[id]
// is arc id's index in the merged array.
type placement struct {
	off, pos []int32
}

// of returns the merged positions of shard i's arcs, in shard order.
func (pl placement) of(i int) []int32 { return pl.pos[pl.off[i]:pl.off[i+1]] }

// place computes the canonical merged order of the shards' arcs over nn
// nodes: (From, To, Invert, shard concatenation position). From is a
// dense node index, so a counting sort gets there in O(E + N): count per
// source node, prefix-sum into bucket starts, and drop each arc's key
// into its bucket, shards visited in stage order. A key packs To, Invert
// and the arc's concatenation number, so ascending keys are the
// (To, Invert) order with concatenation order breaking ties, and each
// bucket — one node's out-arcs, a handful — finishes with a plain sort
// of integers.
func place(shards *cow.Array[shard], nn int) placement {
	off := make([]int32, shards.Len()+1)
	start := make([]int32, nn+1)
	for i := range shards.Len() {
		sh := shards.Ref(i)
		off[i+1] = off[i] + int32(len(sh.edges))
		for j := range sh.edges {
			start[sh.edges[j].From+1]++
		}
	}
	for i := 0; i < nn; i++ {
		start[i+1] += start[i]
	}
	keys := make([]uint64, off[shards.Len()])
	id := uint64(0)
	for i := range shards.Len() {
		sh := shards.Ref(i)
		for j := range sh.edges {
			e := &sh.edges[j]
			k := uint64(e.To)<<33 | id
			if e.Invert {
				k |= 1 << 32
			}
			keys[start[e.From]] = k
			start[e.From]++
			id++
		}
	}
	// start[i] is now the end of bucket i.
	lo := int32(0)
	for i := 0; i < nn; i++ {
		if start[i]-lo > 1 {
			slices.Sort(keys[lo:start[i]])
		}
		lo = start[i]
	}
	pos := make([]int32, len(keys))
	for p, k := range keys {
		pos[uint32(k)] = int32(p)
	}
	return placement{off: off, pos: pos}
}

// scatter writes the shard's arcs at their merged positions.
func (sh *shard) scatter(edges *cow.Array[Edge], pos []int32) {
	for j := range sh.edges {
		edges.Set(int(pos[j]), sh.edges[j])
	}
}

// mergeShards places every shard's arcs into m.Edges in the canonical
// order, under a new Layout, and returns the placement.
func mergeShards(m *Model, shards *cow.Array[shard]) placement {
	pl := place(shards, m.Caps.Len())
	m.Edges = cow.Make(len(pl.pos), Edge{})
	m.Layout = layouts.Add(1)
	m.Truncated = 0
	for i := range shards.Len() {
		sh := shards.Ref(i)
		sh.scatter(&m.Edges, pl.of(i))
		m.Truncated += sh.truncated
	}
	return pl
}

// Build computes the timing edges for the netlist. The netlist must be
// finalized, staged, and flow-analyzed (or flow.Reset for the pessimistic
// ablation). With Options.Workers > 1 the per-stage edge computation (GND
// path enumeration, Elmore sums) is sharded across a worker pool; the
// per-stage buffers are merged in stage order, so the output is
// bit-identical to a serial build.
//
// Build cannot be canceled; interruptible callers (the daemon) use
// BuildCtx. With a background context a build can only fail through an
// armed fault point, which never happens outside chaos tests, so Build
// panics on that path rather than growing an error return every batch
// caller must thread.
func Build(nl *netlist.Netlist, st *stage.Result, p tech.Params, opt Options) *Model {
	m, err := BuildCtx(context.Background(), nl, st, p, opt)
	if err != nil {
		panic(fmt.Sprintf("delay: uncancelable build failed: %v", err))
	}
	return m
}

// BuildCtx is Build with cancellation: the context is polled once per
// stage shard, and a canceled build returns the context's error with no
// model.
func BuildCtx(ctx context.Context, nl *netlist.Netlist, st *stage.Result, p tech.Params, opt Options) (*Model, error) {
	opt = opt.withDefaults()
	defer opt.Obs.Span("delay-build").End()
	m := &Model{Caps: ComputeCaps(nl, p)}
	m.snapshotNodes(nl)
	forced := forcedMap(nl, opt)
	g := newGraph(nl, p, m.Caps, forced, nil)
	shards := cow.Make(len(st.Stages), shard{})
	todo := make([]int, len(st.Stages))
	for i := range todo {
		todo[i] = i
	}
	if err := buildShards(ctx, g, st, opt, &shards, todo, nil); err != nil {
		return nil, err
	}
	mergeShards(m, &shards)
	return m, nil
}

type edgeKey struct {
	from, to           int32
	invert, gateArc    bool
	maskRise, maskFall uint8
}

// SameArc reports whether two arcs have the same identity: endpoints,
// polarity kind and phase masks, the key the per-stage merge combines
// duplicates on. Delays and the representative device may differ.
func SameArc(x, y *Edge) bool {
	return x.From == y.From && x.To == y.To && x.Invert == y.Invert &&
		x.GateArc == y.GateArc && x.MaskRise == y.MaskRise && x.MaskFall == y.MaskFall
}

// builder computes edges one stage at a time. Each worker owns one
// builder: the graph snapshot is shared read-only; edges, merged, and
// truncated are reset per stage. The index-keyed scratch arrays (source
// memo, DFS visited stamps, path buffers) are sized to the node count and
// recycled across builds (builderSlot), so an incremental rebuild of a
// handful of stages does not reallocate O(nodes) scratch.
type builder struct {
	g   *graph
	opt Options
	// edges and truncated accumulate the current stage's output.
	edges     []Edge
	truncated int
	merged    map[edgeKey]int // key -> index into edges, this stage only
	// Shard buffers are carved from slab so a million small stages cost
	// dozens of allocations instead of one each. Shards hand their
	// carved slices to the caller, so the slab is append-only: slabOff
	// only advances, and a fresh slab replaces a full one.
	slab    []Edge
	slabOff int

	// Source-delay memo: srcGen[u] == gen marks srcRise/srcFall[u] valid.
	// Sound across stages (pass recursion never leaves a channel-connected
	// component) but owned per worker; gen bumps per build.
	gen              uint32
	srcGen           []uint32
	srcRise, srcFall []float64
	// visiting guards sourceDelays recursion against pass-network cycles.
	visiting []bool

	// downstreamCap scratch: epoch-stamped visited array plus DFS stack.
	epoch uint32
	seen  []uint32
	stack []int32

	// gndPaths scratch: on-path marks, the current device path, and the
	// flattened enumerated paths (pathDev sliced by pathEnd offsets).
	onPath  []bool
	cur     []int32
	pathDev []int32
	pathEnd []int32
	steps   int
}

// builderPool recycles builder scratch across uncached builds.
var builderPool sync.Pool

// builderSlot keeps at most one builder between builds. A Cache keeps
// one, so a session's builds reuse the same scratch and edge slab
// whatever the collector empties, and a cone rebuild, which builds
// inline, needs no other; a full build's other workers take theirs from
// builderPool and give them back to it, as a nil slot does. Safe for
// concurrent use by one build's workers.
type builderSlot struct {
	mu sync.Mutex
	b  *builder
}

// get returns a builder over graph g, sized for its node count: the
// kept one when it is free.
func (k *builderSlot) get(g *graph, opt Options) *builder {
	var b *builder
	if k != nil {
		k.mu.Lock()
		b, k.b = k.b, nil
		k.mu.Unlock()
	}
	if b == nil {
		b, _ = builderPool.Get().(*builder)
	}
	if b == nil {
		b = &builder{merged: make(map[edgeKey]int)}
	}
	b.g, b.opt = g, opt
	nn := len(g.flags)
	if cap(b.srcGen) < nn {
		b.srcGen = make([]uint32, nn)
		b.srcRise = make([]float64, nn)
		b.srcFall = make([]float64, nn)
		b.visiting = make([]bool, nn)
		b.seen = make([]uint32, nn)
		b.onPath = make([]bool, nn)
		b.gen, b.epoch = 0, 0
	} else {
		b.srcGen = b.srcGen[:nn]
		b.srcRise = b.srcRise[:nn]
		b.srcFall = b.srcFall[:nn]
		b.visiting = b.visiting[:nn]
		b.seen = b.seen[:nn]
		b.onPath = b.onPath[:nn]
	}
	b.gen++
	if b.gen == 0 {
		clear(b.srcGen)
		b.gen = 1
	}
	return b
}

// put keeps b when the slot is empty and gives it to builderPool
// otherwise. The graph reference is dropped so a kept builder never pins
// a netlist snapshot.
func (k *builderSlot) put(b *builder) {
	b.g = nil
	b.edges = nil
	// slab and slabOff survive deliberately: earlier slab regions may be
	// live in the shard cache, so the offset never rewinds — a kept
	// builder resumes carving from the unused tail.
	clear(b.merged)
	if k != nil {
		k.mu.Lock()
		keep := k.b == nil
		if keep {
			k.b = b
		}
		k.mu.Unlock()
		if keep {
			return
		}
	}
	builderPool.Put(b)
}

// slabEdges is the edge-slab granularity: big enough that a
// million-stage build allocates dozens of slabs instead of one buffer
// per stage, small enough that a cached shard pinning its slab wastes
// little.
const slabEdges = 1 << 16

// beginShard points b.edges at the slab's unused tail. Appends beyond
// the tail fall back to a normal reallocation, which finishShard
// detects.
func (b *builder) beginShard() {
	if b.slabOff == len(b.slab) {
		b.slab = make([]Edge, slabEdges)
		b.slabOff = 0
	}
	b.edges = b.slab[b.slabOff:b.slabOff:len(b.slab)]
}

// finishShard hands the accumulated edge buffer to the caller, claiming
// the carved slab region when the buffer still lives there. A shard that
// outgrew the tail owns its reallocated buffer and the tail stays free
// for the next shard.
func (b *builder) finishShard() []Edge {
	e := b.edges
	if len(e) > 0 && &e[0] == &b.slab[b.slabOff] {
		b.slabOff += len(e)
	}
	b.edges = nil
	return e
}

// sourceDelays returns the worst-case RC delay (rise, fall) in ns from
// the nearest driving structures to node u with every pass conducting —
// the time for u's value to re-establish through its drivers once a
// downstream device opens. Inputs and clocks are ideal (0); restored
// nodes pay their pullup / worst pulldown-path Elmore; pass intermediates
// accumulate their upstream source plus the chain steps. Gate arcs use
// this so that opening a pass transistor charges its load through the
// real upstream resistance, matching (conservatively) what the
// switch-level referee computes.
func (b *builder) sourceDelays(u int32) (rise, fall float64) {
	if b.srcGen[u] == b.gen {
		return b.srcRise[u], b.srcFall[u]
	}
	g := b.g
	if g.flags[u]&(netlist.FlagSupply|netlist.FlagClock|netlist.FlagInput) != 0 {
		b.srcGen[u] = b.gen
		b.srcRise[u], b.srcFall[u] = 0, 0
		return 0, 0
	}
	if b.visiting[u] {
		return Inf, Inf // cycle: no independent source along this branch
	}
	b.visiting[u] = true

	// Own restoring structures.
	rise = b.staticRiseDelay(u)
	fall = Inf
	for k := g.termStart[u]; k < g.termStart[u+1]; k++ {
		di := g.termDev[k]
		if g.role[di] == netlist.RolePullup && g.kind[di] == netlist.Enh &&
			!g.isSupply(g.dgate[di]) && !g.off[di] {
			if d := g.rEff[di] * b.downstreamCap(u, di); d < rise {
				rise = d
			}
		}
	}
	if np, _ := b.gndPaths(u); np > 0 {
		fall = 0
		start := int32(0)
		for pi := 0; pi < np; pi++ {
			end := b.pathEnd[pi]
			if d := b.pathFallDelay(u, b.pathDev[start:end]); d > fall {
				fall = d
			}
			start = end
		}
	}

	// Upstream pass sources: worst case over the alternatives that have
	// a source at all. (The GND paths above are fully consumed before
	// this recursion reuses the shared path buffers.)
	for k := g.termStart[u]; k < g.termStart[u+1]; k++ {
		di := g.termDev[k]
		if g.role[di] != netlist.RolePass || g.off[di] || !g.conductsToward(di, u) {
			continue
		}
		w := g.other(di, u)
		if g.isSupply(w) {
			continue
		}
		wr, wf := b.sourceDelays(w)
		step := g.rEff[di] * b.downstreamCap(u, di)
		if cand := wr + step; !math.IsInf(wr, 1) && (math.IsInf(rise, 1) || cand > rise) {
			rise = cand
		}
		if cand := wf + step; !math.IsInf(wf, 1) && (math.IsInf(fall, 1) || cand > fall) {
			fall = cand
		}
	}

	b.visiting[u] = false
	b.srcGen[u] = b.gen
	b.srcRise[u], b.srcFall[u] = rise, fall
	return rise, fall
}

// addEdge merges worst-case delays for duplicate (from,to,invert) arcs.
func (b *builder) addEdge(e Edge) {
	g := b.g
	if e.From == e.To || g.isSupply(e.From) {
		return
	}
	if g.forcedState[e.From] != 0 || g.forcedState[e.To] != 0 {
		return // constants neither launch nor receive transitions
	}
	if math.IsInf(e.DRise, 1) && math.IsInf(e.DFall, 1) {
		return // an arc that can cause nothing
	}
	k := edgeKey{e.From, e.To, e.Invert, e.GateArc, e.MaskRise, e.MaskFall}
	if i, ok := b.merged[k]; ok {
		old := &b.edges[i]
		old.DRise = mergeDelay(old.DRise, e.DRise)
		old.DFall = mergeDelay(old.DFall, e.DFall)
		return
	}
	b.merged[k] = len(b.edges)
	b.edges = append(b.edges, e)
}

// mergeDelay takes the worst case of two delays where Inf means the
// transition is impossible via that arc: any finite delay dominates Inf
// (the arc *can* cause the transition), and among finite values the larger
// wins.
func mergeDelay(a, c float64) float64 {
	switch {
	case math.IsInf(a, 1):
		return c
	case math.IsInf(c, 1):
		return a
	case c > a:
		return c
	default:
		return a
	}
}

// DeviceR returns the effective channel resistance in kΩ of a device in
// its structural role: depletion loads use RDep, pass devices and
// enhancement pullups (degraded gate drive) use RPass, grounded-source
// pulldowns use REnh.
func DeviceR(t *netlist.Transistor, p tech.Params) float64 {
	switch {
	case t.Kind == netlist.Dep:
		return p.RLoad(t.W, t.L)
	case t.Role == netlist.RolePass, t.Role == netlist.RolePullup:
		return p.RPassDevice(t.W, t.L)
	default:
		return p.RPulldown(t.W, t.L)
	}
}

// downstreamCap returns the capacitance in pF at node v plus everything
// reachable onward through conducting pass devices, excluding travel back
// through device via (-1 for none). Epoch-stamped visited tracking makes
// it safe on cyclic pass structures (each node counted once — the
// tree-Elmore view) without clearing scratch between calls.
func (b *builder) downstreamCap(v int32, via int32) float64 {
	g := b.g
	b.epoch++
	if b.epoch == 0 {
		clear(b.seen)
		b.epoch = 1
	}
	b.seen[v] = b.epoch
	total := 0.0
	b.stack = append(b.stack[:0], v)
	for len(b.stack) > 0 {
		n := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		total += g.caps[n]
		for k := g.termStart[n]; k < g.termStart[n+1]; k++ {
			di := g.termDev[k]
			if di == via || g.role[di] != netlist.RolePass || g.off[di] {
				continue
			}
			o := g.other(di, n)
			if g.isSupply(o) || b.seen[o] == b.epoch {
				continue
			}
			if !g.conductsToward(di, o) {
				continue
			}
			b.seen[o] = b.epoch
			b.stack = append(b.stack, o)
		}
	}
	return total
}

func (b *builder) stageEdges(s *stage.Stage) {
	g := b.g
	// Pass-propagation arcs: for every pass device and every allowed
	// direction, node-to-node and gate-to-node arcs.
	for _, t := range s.Trans {
		ti := int32(t.Index)
		if g.role[ti] != netlist.RolePass || g.off[ti] {
			continue
		}
		var dirs [2][2]int32
		nd := 0
		switch g.flow[ti] {
		case netlist.FlowAB:
			dirs[0] = [2]int32{g.da[ti], g.db[ti]}
			nd = 1
		case netlist.FlowBA:
			dirs[0] = [2]int32{g.db[ti], g.da[ti]}
			nd = 1
		default:
			dirs[0] = [2]int32{g.da[ti], g.db[ti]}
			dirs[1] = [2]int32{g.db[ti], g.da[ti]}
			nd = 2
		}
		mask := g.gmask[ti]
		for k := 0; k < nd; k++ {
			u, v := dirs[k][0], dirs[k][1]
			del := g.rEff[ti] * b.downstreamCap(v, ti)
			b.addEdge(Edge{From: u, To: v, DRise: del, DFall: del,
				MaskRise: mask, MaskFall: mask, Via: g.id[ti]})
			// The gate opening the device also launches the value,
			// which must re-establish through the upstream drivers:
			// their source delay rides on top of this device's step.
			ur, uf := b.sourceDelays(u)
			b.addEdge(Edge{From: g.dgate[ti], To: v,
				DRise: ur + del, DFall: uf + del,
				MaskRise: mask, MaskFall: mask, GateArc: true, Via: g.id[ti]})
		}
	}

	// Restoring arcs per interesting node — anything observable (fans out
	// to gates, primary output, storage) or restored (attached pullup):
	// rise via pullup, fall via enumerated GND paths. A stage with no GND
	// connection at all (a pure pass network) has nothing to enumerate.
	for _, n := range s.Nodes {
		o := int32(n.Index)
		if g.gateCnt[o] == 0 && g.flags[o]&(netlist.FlagOutput|netlist.FlagStorage) == 0 &&
			!g.hasPullup[o] {
			continue
		}
		riseD := b.staticRiseDelay(o)
		np := 0
		if s.HasPulldown {
			var truncated bool
			np, truncated = b.gndPaths(o)
			if truncated {
				b.truncated++
			}
		}
		start := int32(0)
		for pi := 0; pi < np; pi++ {
			end := b.pathEnd[pi]
			path := b.pathDev[start:end]
			start = end
			dfall := b.pathFallDelay(o, path)
			var pathMask uint8
			for _, di := range path {
				pathMask |= g.gmask[di]
			}
			for _, di := range path {
				gt := g.dgate[di]
				if g.isSupply(gt) {
					continue
				}
				b.addEdge(Edge{
					From:     gt,
					To:       o,
					DRise:    riseD,
					DFall:    dfall,
					MaskFall: pathMask,
					Invert:   true,
					Via:      g.id[di],
				})
			}
		}
		// Gated enhancement pullups (precharge devices and the like):
		// a non-inverting rise-only arc from the gating signal.
		for k := g.termStart[o]; k < g.termStart[o+1]; k++ {
			di := g.termDev[k]
			if g.role[di] != netlist.RolePullup || g.kind[di] != netlist.Enh {
				continue
			}
			gt := g.dgate[di]
			if g.isSupply(gt) {
				continue
			}
			if g.off[di] || g.forcedState[gt] != 0 {
				continue // handled by staticRiseDelay when forced high
			}
			b.addEdge(Edge{
				From:     gt,
				To:       o,
				DRise:    g.rEff[di] * b.downstreamCap(o, di),
				DFall:    Inf,
				MaskRise: g.gmask[di],
				GateArc:  true,
				Via:      g.id[di],
			})
		}
	}
}

// staticRiseDelay computes the rise delay of node o through its always-on
// pullups (depletion loads, or enhancement devices gated by VDD). Inf if o
// has no static pullup — dynamic nodes rise only through gated devices.
func (b *builder) staticRiseDelay(o int32) float64 {
	g := b.g
	d := Inf
	for k := g.termStart[o]; k < g.termStart[o+1]; k++ {
		di := g.termDev[k]
		if g.role[di] != netlist.RolePullup {
			continue
		}
		gt := g.dgate[di]
		alwaysOn := g.kind[di] == netlist.Dep || gt == g.vdd ||
			g.forcedState[gt] == 1
		if !alwaysOn {
			continue
		}
		if del := g.rEff[di] * b.downstreamCap(o, di); del < d {
			d = del
		}
	}
	return d
}

// gndPaths enumerates simple conducting paths from node o to GND through
// enhancement devices, respecting flow direction (steps move away from o).
// Paths are device-index sequences written into the builder's shared flat
// buffers: path i is b.pathDev[b.pathEnd[i-1]:b.pathEnd[i]] (offset 0 for
// i == 0), valid until the next gndPaths call. It records at most MaxPaths
// paths; if the bound is hit it keeps the enumerated prefix plus reports
// truncation (the caller then still has the worst of the enumerated paths
// — in practice stages are small and enumeration is exhaustive).
func (b *builder) gndPaths(o int32) (npaths int, truncated bool) {
	g := b.g
	b.cur = b.cur[:0]
	b.pathDev = b.pathDev[:0]
	b.pathEnd = b.pathEnd[:0]
	b.steps = 0
	b.onPath[o] = true
	var dfs func(n int32, depth int) bool
	dfs = func(n int32, depth int) bool {
		if depth > b.opt.MaxDepth {
			return true
		}
		ts, te := g.termStart[n], g.termStart[n+1]
		if b.steps += int(te - ts); b.steps > b.opt.MaxSteps {
			return false
		}
		for k := ts; k < te; k++ {
			di := g.termDev[k]
			if g.kind[di] != netlist.Enh || g.off[di] {
				continue
			}
			if g.role[di] == netlist.RolePullup {
				continue
			}
			other := g.other(di, n)
			if other == g.gnd {
				b.pathDev = append(b.pathDev, b.cur...)
				b.pathDev = append(b.pathDev, di)
				b.pathEnd = append(b.pathEnd, int32(len(b.pathDev)))
				if len(b.pathEnd) >= b.opt.MaxPaths {
					return false
				}
				continue
			}
			if g.isSupply(other) || b.onPath[other] {
				continue
			}
			// Never continue *through* a node that has its own pullup
			// (a restored gate output or a precharged node): discharge
			// paths re-entering another driver's network are false
			// paths — that driver's own fall plus pass propagation
			// models them. Stack intermediates have no pullup and pass
			// freely.
			if g.hasPullup[other] {
				continue
			}
			// Orientation prunes walking upstream into another driver's
			// pass network (whose discharge is modeled as that driver
			// falling and propagating through the pass arc instead). A
			// device oriented strictly toward n means other is upstream.
			if g.role[di] == netlist.RolePass && g.flow[di] != netlist.FlowBoth && g.conductsToward(di, n) {
				continue
			}
			b.cur = append(b.cur, di)
			b.onPath[other] = true
			ok := dfs(other, depth+1)
			b.onPath[other] = false
			b.cur = b.cur[:len(b.cur)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	complete := dfs(o, 0)
	b.onPath[o] = false
	return len(b.pathEnd), !complete
}

// pathFallDelay computes the Elmore discharge delay of node o through the
// given path (device indices ordered from o toward GND): Σ over path nodes
// of that node's capacitance times the total resistance between it and
// GND. Node o itself carries its full downstream load.
func (b *builder) pathFallDelay(o int32, path []int32) float64 {
	g := b.g
	// Total path resistance first.
	total := 0.0
	for _, di := range path {
		total += g.rEff[di]
	}
	via := int32(-1)
	if len(path) > 0 {
		// Never traverse the first path device (discharge current leaves
		// o through it; the load hanging the other way off o still must
		// discharge through the path).
		via = path[0]
	}
	d := total * b.downstreamCap(o, via)
	// Intermediate nodes: walk from o; after traversing device i the
	// remaining resistance to GND shrinks.
	n := o
	remaining := total
	last := len(path) - 1
	if last < 0 {
		last = 0
	}
	for _, di := range path[:last] {
		remaining -= g.rEff[di]
		n = g.other(di, n)
		if g.isSupply(n) {
			break
		}
		d += remaining * g.caps[n]
	}
	return d
}
