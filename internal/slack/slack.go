// Package slack is the multi-corner (MCMM) analysis layer: it completes
// the pipeline's corner step with every corner's backward pass and merges
// the per-corner slacks into a worst-slack-per-node signoff view.
//
// The sharing is what makes N corners affordable: a corner differs from
// the typical process only by uniform R/C derates (tech.Corner), so its
// timing model is the base model read at the corner's delay scale
// (delay.Model.At — the same arcs, masks and structure, no copy), its
// analysis runs against the base analysis's propagation plan, and the
// typical corner is the base analysis itself. Per corner, only the
// arrival and required-time arrays are distinct; the arcs, netlist,
// stage partition, flow orientation, adjacency, SCC condensation, and
// levelization are held once. Because every corner's inputs are
// deterministic and the engine is bit-identical at any worker count, the
// merged view equals running each corner independently over a
// materialized copy of its model (delay.ScaleModel), bit for bit.
//
// An incremental session keeps one merged view per published version
// and, when every corner's backward pass extended the previous
// version's, refolds it only at the nodes those passes relaxed
// (Remerge).
package slack

import (
	"context"
	"fmt"
	"math"
	"slices"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/cow"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
	"nmostv/internal/pipeline"
	"nmostv/internal/tech"
)

// Options tunes a corner sweep.
type Options struct {
	// Sched is the clock schedule every corner is analyzed against.
	Sched clocks.Schedule
	// Core is passed through to each corner's forward and backward pass
	// (workers, input times, SCC bound); its Obs receives the sweep's
	// spans.
	Core core.Options
}

// CornerResult is one corner's complete analysis.
type CornerResult struct {
	Corner tech.Corner
	// Model is the corner's timing model: the base for a typical corner,
	// the base's view at the corner (delay.Model.At) otherwise.
	Model *delay.Model
	// Res holds arrivals and checks at this corner.
	Res *core.Result
	// Req holds required times and slacks at this corner.
	Req *core.Required
}

// Sweep is a completed multi-corner analysis. It is never written once
// built, apart from the merged ranking its reads memoize, so any number
// of readers, and a later version's Remerge, share it.
type Sweep struct {
	// Corners holds every corner's analysis, in the order requested.
	Corners []CornerResult
	// WorstSlack.At(i) is the minimum over corners of node i's slack
	// (+Inf = unconstrained at every corner).
	WorstSlack cow.Array[float64]
	// WorstCorner.At(i) is the index into Corners of the corner that set
	// node i's worst slack; -1 when unconstrained everywhere. Ties keep
	// the earliest corner in request order, so the merge is
	// deterministic.
	WorstCorner cow.Array[int32]

	// ranked is the merged ranking (RankingPrefix).
	ranked core.Prefix[Entry]
}

// Analyze runs the base analysis of a prepared model and then every
// corner against its plan. The base model must have been built from nl
// at the typical (unscaled) process; an empty corner list analyzes just
// the typical corner. The context aborts the sweep.
func Analyze(ctx context.Context, nl *netlist.Netlist, base *delay.Model, corners []tech.Corner, opt Options) (*Sweep, error) {
	return sweep(ctx, pipeline.State{NL: nl, Model: base}, opt.Sched, corners, opt.Core)
}

// AnalyzeFrom is Analyze for a design already analyzed at the typical
// process: base is the typical corner, and the other corners are
// analyzed against its schedule over its plan.
func AnalyzeFrom(ctx context.Context, base *core.Result, corners []tech.Corner, opt core.Options) (*Sweep, error) {
	return sweep(ctx, pipeline.State{NL: base.NL, Model: base.Model, Base: base}, base.Sched, corners, opt)
}

// sweep runs the analysis steps st lacks, then each corner's backward
// pass and the merge.
func sweep(ctx context.Context, st pipeline.State, sched clocks.Schedule, corners []tech.Corner, opt core.Options) (*Sweep, error) {
	if len(corners) == 0 {
		corners = []tech.Corner{tech.Typical()}
	}
	if err := tech.ValidateCorners(corners); err != nil {
		return nil, err
	}
	defer opt.Obs.Span("corner-sweep").End()
	p := pipeline.Pipeline{Sched: sched, Core: opt, Corners: corners}
	if err := p.Analyze(ctx, opt.Obs, &st); err != nil {
		return nil, fmt.Errorf("slack: %w", err)
	}
	crs := make([]CornerResult, len(st.Corners))
	for i, c := range st.Corners {
		req, err := c.Res.Required(ctx, opt)
		if err != nil {
			return nil, fmt.Errorf("slack: corner %s: %w", c.Corner.Name, err)
		}
		crs[i] = CornerResult{Corner: c.Corner, Model: c.Model, Res: c.Res, Req: req}
	}
	return Merge(crs)
}

// Merge assembles a Sweep from per-corner analyses computed elsewhere —
// typically an incremental session's published corner state — and builds
// the merged worst-slack view. The corners must all describe the same
// netlist; the merge itself is the same deterministic min-fold Analyze
// performs.
func Merge(corners []CornerResult) (*Sweep, error) {
	return Remerge(nil, corners)
}

// Remerge is Merge for corners whose analyses may extend those of prev,
// an earlier sweep over the same corners (nil for none). When every
// corner's backward pass extended the one prev holds, the merged arrays
// start as versions of prev's (cow.Array.Clone), sharing every chunk
// the refold does not write, grown for added nodes, and NodeWorst is
// folded again only at the nodes those passes relaxed
// (core.Required.ChangedSince), which hold every node whose slack can
// have moved at some corner: NodeWorst is a pure function of the
// corners' per-node slacks, so every other node keeps its bits. Then the
// merged ranking's first read also derives from the prefix prev's reads
// built and those nodes (core.Prefix), since a node's row is a function
// of its arrivals and required times at every corner. Otherwise every
// node is folded. prev is read, never written.
func Remerge(prev *Sweep, corners []CornerResult) (*Sweep, error) {
	if len(corners) == 0 {
		return nil, fmt.Errorf("slack: no corner results to merge")
	}
	nl := corners[0].Res.NL
	for _, cr := range corners[1:] {
		if cr.Res.NL != nl {
			return nil, fmt.Errorf("slack: corner %s analyzed a different netlist", cr.Corner.Name)
		}
	}
	n := corners[0].Res.RiseAt.Len()
	reqs := make([]*core.Required, len(corners))
	for ci := range corners {
		reqs[ci] = corners[ci].Req
	}
	sw := &Sweep{Corners: corners}
	fold := func(i int) {
		s, c := NodeWorst(reqs, i)
		sw.WorstSlack.Set(i, s)
		sw.WorstCorner.Set(i, c)
	}
	changed := extended(prev, reqs)
	if changed == nil {
		sw.WorstSlack, sw.WorstCorner = cow.Make(n, math.Inf(1)), cow.Make(n, int32(-1))
		for i := 0; i < n; i++ {
			fold(i)
		}
		return sw, nil
	}
	sw.WorstSlack, sw.WorstCorner = prev.WorstSlack.Clone(), prev.WorstCorner.Clone()
	sw.WorstSlack.Grow(n, math.Inf(1))
	sw.WorstCorner.Grow(n, -1)
	for _, nodes := range changed {
		for _, v := range nodes {
			fold(int(v))
		}
	}
	sw.ranked.Extend(&prev.ranked, changed...)
	return sw, nil
}

// extended returns, per corner, the nodes whose slacks can have moved
// since prev's pass at that corner, or nil unless every corner's pass
// extended prev's.
func extended(prev *Sweep, reqs []*core.Required) [][]int32 {
	if prev == nil || len(prev.Corners) != len(reqs) {
		return nil
	}
	changed := make([][]int32, len(reqs))
	for ci, q := range reqs {
		nodes, ok := q.ChangedSince(prev.Corners[ci].Req)
		if !ok {
			return nil
		}
		changed[ci] = nodes
	}
	return changed
}

// NodeWorst is the merge rule for one node: the minimum of node i's
// slack (the worse polarity) over the corners' required times, and the
// index of the corner that sets it. min is exact in floating point and a
// strict < keeps the earliest corner on a tie; a node unconstrained at
// every corner gets +Inf and -1. A query about one node reads its worst
// corner here in O(corners) instead of merging the whole design.
func NodeWorst(reqs []*core.Required, i int) (slack float64, corner int32) {
	slack, corner = math.Inf(1), -1
	for ci, q := range reqs {
		if s := q.NodeSlack(i); s < slack {
			slack, corner = s, int32(ci)
		}
	}
	return slack, corner
}

// Corner returns the analysis of the named corner.
func (sw *Sweep) Corner(name string) (CornerResult, bool) {
	for _, cr := range sw.Corners {
		if cr.Corner.Name == name {
			return cr, true
		}
	}
	return CornerResult{}, false
}

// Entry is one row of the merged slack ranking: the worst transition of
// one node across all corners.
type Entry struct {
	Node   *netlist.Node
	Corner string
	Pol    core.Polarity
	// Arrival, Required, Slack at the worst corner, in ns.
	Arrival, Required, Slack float64
}

// Ranking returns the k most critical nodes in the merged view, worst
// slack first (k ≤ 0 = all constrained nodes), ties by node index. Each
// node appears once, at its worst corner and polarity; supplies and
// clocks are omitted. The rows are RankingPrefix's, copied.
func (sw *Sweep) Ranking(k int) []Entry {
	rows, _ := sw.RankingPrefix(k)
	return slices.Clone(rows)
}

// RankingPrefix returns Ranking's first k rows from the ranking the sweep
// memoizes as a worst-first prefix (core.Prefix), and whether the read
// scanned every node. A sweep Remerge refolded derives its prefix on the
// first read from the previous sweep's and the nodes the corners relaxed,
// so a read scans only when k is past the derived prefix or the previous
// sweep's ranking was never read; a scan costs one pass over the merged
// arrays and the selection of k rows (core.TopK). The rows are shared:
// callers must not modify them.
func (sw *Sweep) RankingPrefix(k int) (rows []Entry, scanned bool) {
	if len(sw.Corners) == 0 {
		return nil, false
	}
	return sw.ranked.Read(k, sw.ranker())
}

// BuiltRanking returns the merged-ranking rows reads have built so far,
// shared, and whether they are the whole ranking.
func (sw *Sweep) BuiltRanking() (rows []Entry, all bool) { return sw.ranked.Built() }

// VerifyRanking compares the merged-ranking prefix reads have built with
// a fresh scan, bit for bit.
func (sw *Sweep) VerifyRanking() error {
	if len(sw.Corners) == 0 {
		return nil
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return sw.ranked.Verify(sw.ranker(), func(x, y Entry) bool {
		return x.Node == y.Node && x.Corner == y.Corner && x.Pol == y.Pol &&
			same(x.Arrival, y.Arrival) && same(x.Required, y.Required) && same(x.Slack, y.Slack)
	})
}

func (sw *Sweep) ranker() mergedRanker {
	return mergedRanker{sw: sw, nodes: sw.Corners[0].Res.NL.Nodes}
}

// mergedRanker ranks the merged view's nodes, for core.Prefix.
type mergedRanker struct {
	sw    *Sweep
	nodes []*netlist.Node
}

func (m mergedRanker) Nodes() int { return len(m.nodes) }

// Rows appends node i's row: its worst transition at its worst corner.
func (m mergedRanker) Rows(i int, out []Entry) []Entry {
	nd := m.nodes[i]
	if nd.IsSupply() || nd.IsClock() {
		return out
	}
	ci := m.sw.WorstCorner.At(i)
	if ci < 0 {
		return out
	}
	cr := &m.sw.Corners[ci]
	pol := core.Rise
	if cr.Req.Slack(i, core.Fall) < cr.Req.Slack(i, core.Rise) {
		pol = core.Fall
	}
	at := cr.Res.RiseAt.At(i)
	if pol == core.Fall {
		at = cr.Res.FallAt.At(i)
	}
	return append(out, Entry{
		Node: nd, Corner: cr.Corner.Name, Pol: pol,
		Arrival: at, Required: cr.Req.RAT(i, pol),
		Slack: m.sw.WorstSlack.At(i),
	})
}

func (mergedRanker) Node(e Entry) int       { return e.Node.Index }
func (mergedRanker) Compare(a, b Entry) int { return compareEntry(a, b) }

// compareEntry is the merged ranking's total order: slack, then node
// index (each node has one row).
func compareEntry(a, b Entry) int {
	if a.Slack != b.Slack {
		if a.Slack < b.Slack {
			return -1
		}
		return 1
	}
	return a.Node.Index - b.Node.Index
}

// WorstOverall returns the single worst merged slack and where it
// occurs, over the same node population the ranking reports (supplies
// and clocks excluded); ok=false when nothing is constrained.
func (sw *Sweep) WorstOverall() (nd *netlist.Node, corner string, slack float64, ok bool) {
	slack = math.Inf(1)
	bi := -1
	nl := sw.Corners[0].Res.NL
	for _, n := range nl.Nodes {
		if n.IsSupply() || n.IsClock() {
			continue
		}
		if s := sw.WorstSlack.At(n.Index); s < slack {
			slack, bi = s, n.Index
		}
	}
	if bi < 0 || math.IsInf(slack, 1) {
		return nil, "", slack, false
	}
	return nl.Nodes[bi], sw.Corners[sw.WorstCorner.At(bi)].Corner.Name, slack, true
}
