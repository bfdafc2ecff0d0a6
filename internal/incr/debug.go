package incr

// Timing-debug queries over the session: lazy worst-path streaming,
// "why is this node late" traces, and diffs between published versions.
// The search/trace/compare semantics live in internal/paths; this file
// owns the locking discipline, the version ring, and the translation to
// serializable name-based snapshots.

import (
	"context"
	"time"

	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
	"nmostv/internal/paths"
	"nmostv/internal/slack"
	"nmostv/internal/tverr"
)

// DefaultHistoryDepth is how many published results a session retains
// for Diff when Options.HistoryDepth is zero.
const DefaultHistoryDepth = 4

// version is one committed analysis retained in the ring. res is
// immutable apart from its memoized backward pass.
type version struct {
	seq   int64
	res   *core.Result
	stats Stats
	when  time.Time
}

// record stamps the just-committed result with its publish sequence and
// changed-node count, and appends it to the version ring. Called with
// the write lock held at both commit sites (runFull, Apply), after the
// result is published and before the stats escape. An apply passes the
// nodes its base analysis relaxed, the only ones whose arrivals can
// differ from the previous version's; a full run compares every node.
func (s *Session) record(st *Stats, relaxed []int32) {
	s.seq++
	st.Version = s.seq
	switch n := len(s.history); {
	case n == 0:
		st.ChangedNodes = len(s.nl.Nodes)
	case st.Full:
		st.ChangedNodes = paths.CountChanged(s.history[n-1].res, s.res)
	default:
		st.ChangedNodes = paths.CountChangedAt(s.history[n-1].res, s.res, relaxed)
	}
	depth := s.opt.HistoryDepth
	if depth <= 0 {
		depth = DefaultHistoryDepth
	}
	s.history = append(s.history, &version{seq: s.seq, res: s.res, stats: *st, when: time.Now()})
	if n := len(s.history) - depth; n > 0 {
		// Shift in place so the evicted versions' results are released.
		copy(s.history, s.history[n:])
		for i := len(s.history) - n; i < len(s.history); i++ {
			s.history[i] = nil
		}
		s.history = s.history[:len(s.history)-n]
	}
}

// VersionInfo describes one retained version.
type VersionInfo struct {
	Seq          int64     `json:"seq"`
	Time         time.Time `json:"time"`
	Full         bool      `json:"full,omitempty"`
	Deltas       int       `json:"deltas"`
	Nodes        int       `json:"nodes"`
	ChangedNodes int       `json:"changed_nodes"`
}

// Versions lists the retained versions, oldest first. The latest entry
// is always the currently published result.
func (s *Session) Versions() []VersionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]VersionInfo, len(s.history))
	for i, v := range s.history {
		out[i] = VersionInfo{
			Seq: v.seq, Time: v.when,
			Full: v.stats.Full, Deltas: v.stats.Deltas,
			Nodes: v.stats.Nodes, ChangedNodes: v.stats.ChangedNodes,
		}
	}
	return out
}

// PathStepInfo is one hop of a streamed path, serializable. All times
// are finite by construction (only reachable transitions appear on
// ranked paths).
type PathStepInfo struct {
	Node    string  `json:"node"`
	Pol     string  `json:"pol"`
	Delay   float64 `json:"delay"`
	Launch  float64 `json:"launch"`
	Arrival float64 `json:"arrival"`
	Clamped bool    `json:"clamped,omitempty"`
	Invert  bool    `json:"invert,omitempty"`
	// ViaID is the stable device ID of the arc's representative
	// transistor; 0 at the source hop. It is an ID, not a name: the
	// stream outlives the session read lock, so it cannot chase the
	// live netlist's device table.
	ViaID int64 `json:"via_id,omitempty"`
}

// PathInfo is one ranked worst path, serializable.
type PathInfo struct {
	Rank     int            `json:"rank"`
	Kind     string         `json:"kind"`
	Node     string         `json:"node"`
	Pol      string         `json:"pol"`
	Phase    int            `json:"phase,omitempty"`
	Wrapped  bool           `json:"wrapped,omitempty"`
	Corner   string         `json:"corner,omitempty"`
	Arrival  float64        `json:"arrival"`
	Required float64        `json:"required"`
	Slack    float64        `json:"slack"`
	Steps    []PathStepInfo `json:"steps"`
}

// PathStream lazily enumerates a published result's worst paths. It is
// created under the session read lock but consumed without it: the
// generator walks only the immutable published Result, the node slice
// is a snapshot prefix of the append-only node table (pointers are
// slab-stable and names immutable), and the model is the immutable
// published arc set — so a slow consumer never blocks Apply, and a
// concurrent Apply never perturbs an in-flight stream.
type PathStream struct {
	gen    *paths.Generator
	model  *delay.Model
	nodes  []*netlist.Node
	corner string
}

// PathStream opens a worst-first path stream over the current published
// result ("" = base analysis) or one configured corner's.
func (s *Session) PathStream(corner string) (*PathStream, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, err := s.cornerResult(corner, "incr.paths")
	if err != nil {
		return nil, err
	}
	return &PathStream{
		gen:    paths.New(res),
		model:  res.Model,
		nodes:  s.nl.Nodes[:res.RiseAt.Len()],
		corner: corner,
	}, nil
}

// Next returns the next-worst path; ok=false when the design's path
// population is exhausted. Safe without the session lock.
func (ps *PathStream) Next() (PathInfo, bool) {
	p, ok := ps.gen.Next()
	if !ok {
		return PathInfo{}, false
	}
	info := PathInfo{
		Rank: p.Rank, Kind: p.Kind.String(),
		Node: ps.nodes[p.Node].Name, Pol: p.Pol.String(),
		Phase: p.Phase, Wrapped: p.Wrapped, Corner: ps.corner,
		Arrival: p.Arrival, Required: p.Required, Slack: p.Slack,
		Steps: make([]PathStepInfo, len(p.Steps)),
	}
	for i, st := range p.Steps {
		si := PathStepInfo{
			Node: ps.nodes[st.Node].Name, Pol: st.Pol.String(),
			Delay: st.Delay, Launch: st.Launch, Arrival: st.Arrival,
			Clamped: st.Clamped,
		}
		if st.Arc >= 0 {
			e := ps.model.Arc(st.Arc)
			si.Invert = e.Invert
			si.ViaID = e.Via
		}
		info.Steps[i] = si
	}
	return info, true
}

// cornerResult resolves a corner name ("" = base) to its published
// result. Caller holds a lock.
func (s *Session) cornerResult(corner, op string) (*core.Result, error) {
	if corner == "" {
		return s.res, nil
	}
	for _, cs := range s.corners {
		if cs.corner.Name == corner {
			return cs.res, nil
		}
	}
	return nil, tverr.Errorf(tverr.NotFound, op,
		"no corner %q configured (have %s)", corner, s.cornerNames())
}

// WhyHopInfo is one hop of a why-trace, serializable, source first.
type WhyHopInfo struct {
	Node    string  `json:"node"`
	Pol     string  `json:"pol"`
	Via     string  `json:"via,omitempty"`
	Delay   float64 `json:"delay"`
	Launch  float64 `json:"launch"`
	Wait    float64 `json:"wait,omitempty"`
	Arrival float64 `json:"arrival"`
	Clamped bool    `json:"clamped,omitempty"`
	Invert  bool    `json:"invert,omitempty"`
}

// WhyInfo explains one node's worst arrival: the dominant-predecessor
// chain from a fixed source, with per-hop delay and clock-wait
// contributions that sum FP-exactly to the published arrival.
type WhyInfo struct {
	Node    string       `json:"node"`
	Pol     string       `json:"pol"`
	Corner  string       `json:"corner,omitempty"`
	Arrival float64      `json:"arrival"`
	Slack   *float64     `json:"slack,omitempty"`
	Hops    []WhyHopInfo `json:"hops"`
}

// Why traces why the named node's transition arrives when it does.
// pol is "rise", "fall", or "" for the later (worse) of the two.
// corner selects the analysis: a configured corner's name, or "" for
// the node's worst corner across all configured corners (the base
// analysis when none are). Unknown nodes and corners are NotFound; a
// transition that never happens is NotFound too (there is no lateness
// to explain).
func (s *Session) Why(ctx context.Context, node, pol, corner string) (WhyInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.nl.Lookup(node)
	if n == nil {
		return WhyInfo{}, tverr.Errorf(tverr.NotFound, "incr.why",
			"no node %q in design %s", node, s.name)
	}
	if corner == "" && len(s.corners) > 0 {
		// Pick the corner that sets this node's worst slack, by the
		// merged view's rule but for this node alone; fall back to the
		// base analysis when no corner constrains it.
		reqs := make([]*core.Required, len(s.corners))
		for i, cs := range s.corners {
			req, err := s.required(ctx, cs.res)
			if err != nil {
				return WhyInfo{}, err
			}
			reqs[i] = req
		}
		if _, ci := slack.NodeWorst(reqs, n.Index); ci >= 0 {
			corner = s.corners[ci].corner.Name
		}
	}
	res, err := s.cornerResult(corner, "incr.why")
	if err != nil {
		return WhyInfo{}, err
	}
	var p core.Polarity
	switch pol {
	case "rise":
		p = core.Rise
	case "fall":
		p = core.Fall
	case "":
		p = core.Rise
		if res.FallAt.At(n.Index) > res.RiseAt.At(n.Index) {
			p = core.Fall
		}
	default:
		return WhyInfo{}, tverr.Errorf(tverr.Invalid, "incr.why",
			"bad pol %q (want rise, fall, or empty)", pol)
	}
	w, ok := paths.WhyLate(res, int32(n.Index), p)
	if !ok {
		return WhyInfo{}, tverr.Errorf(tverr.NotFound, "incr.why",
			"node %q never %ss", node, p)
	}
	info := WhyInfo{
		Node: node, Pol: p.String(), Corner: corner,
		Arrival: w.Arrival,
		Hops:    make([]WhyHopInfo, len(w.Hops)),
	}
	// The backward pass is lazily cached per published result, so the
	// slack annotation is free after the first query per version.
	req, err := s.required(ctx, res)
	if err == nil {
		info.Slack = finiteOrNil(req.Slack(n.Index, p))
	}
	for i, h := range w.Hops {
		hi := WhyHopInfo{
			Node: s.nl.Nodes[h.Node].Name, Pol: h.Pol.String(),
			Delay: h.Delay, Launch: h.Launch, Wait: h.Wait,
			Arrival: h.Arrival, Clamped: h.Clamped, Invert: h.Invert,
		}
		// Holding the read lock, the live device table is safe to chase
		// for the gate name (Apply takes the write lock to mutate it).
		if h.ViaID != 0 {
			if t := s.nl.TransByID(h.ViaID); t != nil {
				hi.Via = t.Gate.Name
			}
		}
		info.Hops[i] = hi
	}
	return info, nil
}

// NodeDeltaInfo is one node whose timing moved between two versions,
// serializable. Possibly-infinite times are nil when the transition
// never occurs on that side.
type NodeDeltaInfo struct {
	Node       string   `json:"node"`
	RiseA      *float64 `json:"rise_a,omitempty"`
	RiseB      *float64 `json:"rise_b,omitempty"`
	FallA      *float64 `json:"fall_a,omitempty"`
	FallB      *float64 `json:"fall_b,omitempty"`
	DRise      *float64 `json:"d_rise,omitempty"`
	DFall      *float64 `json:"d_fall,omitempty"`
	EarlyMoved bool     `json:"early_moved,omitempty"`
	SlackA     *float64 `json:"slack_a,omitempty"`
	SlackB     *float64 `json:"slack_b,omitempty"`
}

// RankMoveInfo is one path whose top-K rank changed, serializable.
// Rank 0 means the path is outside that side's top-K.
type RankMoveInfo struct {
	Node    string   `json:"node"`
	Pol     string   `json:"pol"`
	Kind    string   `json:"kind"`
	Wrapped bool     `json:"wrapped,omitempty"`
	RankA   int      `json:"rank_a"`
	RankB   int      `json:"rank_b"`
	SlackA  *float64 `json:"slack_a,omitempty"`
	SlackB  *float64 `json:"slack_b,omitempty"`
}

// DiffInfo compares two published versions of the session.
type DiffInfo struct {
	From          int64           `json:"from"`
	To            int64           `json:"to"`
	Epsilon       float64         `json:"epsilon"`
	NodesCompared int             `json:"nodes_compared"`
	Added         int             `json:"added"`
	ChangedCount  int             `json:"changed_count"`
	Changed       []NodeDeltaInfo `json:"changed"`
	RankMoves     []RankMoveInfo  `json:"rank_moves,omitempty"`
}

// Diff compares two retained versions: nodes whose arrivals (or, when
// both sides' backward passes are computable, worst slacks) moved
// beyond eps, and paths whose top-k rank changed. from/to are publish
// sequence numbers from Stats.Version; 0 means "the previous version"
// and "the latest" respectively. eps 0 compares bitwise. limit > 0
// truncates the reported node list (ChangedCount keeps the true total);
// k <= 0 skips the rank comparison, and a k beyond the design's path
// population costs only that population. The context cancels the lazy
// backward passes a slack comparison may trigger and the path walks of
// the rank comparison.
func (s *Session) Diff(ctx context.Context, from, to int64, eps float64, k, limit int) (DiffInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vt, err := s.versionAt(to)
	if err != nil {
		return DiffInfo{}, err
	}
	if from == 0 {
		from = vt.seq - 1
		if from < s.history[0].seq {
			return DiffInfo{}, tverr.Errorf(tverr.NotFound, "incr.diff",
				"no version before %d retained; apply a delta first", vt.seq)
		}
	}
	vf, err := s.versionAt(from)
	if err != nil {
		return DiffInfo{}, err
	}
	// Slack comparison needs both backward passes, and the backward pass
	// reads the live netlist's node count — an older version whose node
	// table has since grown cannot run it. Gate on matching lengths.
	var reqA, reqB *core.Required
	if vf.res.RiseAt.Len() == len(s.nl.Nodes) && vt.res.RiseAt.Len() == len(s.nl.Nodes) {
		if reqA, err = s.required(ctx, vf.res); err != nil {
			return DiffInfo{}, err
		}
		if reqB, err = s.required(ctx, vt.res); err != nil {
			return DiffInfo{}, err
		}
	}
	d, err := paths.DiffResults(ctx, vf.res, vt.res, reqA, reqB, eps, k)
	if err != nil {
		return DiffInfo{}, err
	}
	info := DiffInfo{
		From: vf.seq, To: vt.seq, Epsilon: eps,
		NodesCompared: d.NodesCompared, Added: d.Added,
		ChangedCount: len(d.Changed),
	}
	changed := d.Changed
	if limit > 0 && len(changed) > limit {
		changed = changed[:limit]
	}
	info.Changed = make([]NodeDeltaInfo, len(changed))
	for i, nd := range changed {
		info.Changed[i] = NodeDeltaInfo{
			Node:  s.nl.Nodes[nd.Node].Name,
			RiseA: finiteOrNil(nd.RiseA), RiseB: finiteOrNil(nd.RiseB),
			FallA: finiteOrNil(nd.FallA), FallB: finiteOrNil(nd.FallB),
			DRise: finiteOrNil(nd.DRise), DFall: finiteOrNil(nd.DFall),
			EarlyMoved: nd.EarlyMoved,
			SlackA:     finiteOrNil(nd.SlackA), SlackB: finiteOrNil(nd.SlackB),
		}
	}
	if len(d.RankMoves) > 0 {
		info.RankMoves = make([]RankMoveInfo, len(d.RankMoves))
		for i, m := range d.RankMoves {
			info.RankMoves[i] = RankMoveInfo{
				Node: s.nl.Nodes[m.Node].Name, Pol: m.Pol.String(),
				Kind: m.Kind.String(), Wrapped: m.Wrapped,
				RankA: m.RankA, RankB: m.RankB,
				SlackA: finiteOrNil(m.SlackA), SlackB: finiteOrNil(m.SlackB),
			}
		}
	}
	return info, nil
}

// versionAt resolves a publish sequence number against the ring; 0
// resolves to the latest version. Caller holds a lock.
func (s *Session) versionAt(seq int64) (*version, error) {
	if seq == 0 {
		return s.history[len(s.history)-1], nil
	}
	for _, v := range s.history {
		if v.seq == seq {
			return v, nil
		}
	}
	lo := s.history[0].seq
	hi := s.history[len(s.history)-1].seq
	return nil, tverr.Errorf(tverr.NotFound, "incr.diff",
		"version %d not retained (have %d..%d; raise HistoryDepth to keep more)", seq, lo, hi)
}
