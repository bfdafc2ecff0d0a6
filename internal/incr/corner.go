package incr

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/paths"
	"nmostv/internal/pipeline"
	"nmostv/internal/slack"
	"nmostv/internal/tech"
)

// Per-corner incremental state. A session configured with Options.Corners
// maintains, next to its base (typical-process) analysis, one complete
// analysis per named PVT corner; the pipeline's corner step produces them
// (see internal/pipeline). A delta batch updates the base and every
// corner as one atomic step: either all corners commit alongside the base
// result, or an abort rolls the whole batch back and every published
// per-corner result is untouched. SelfCheck extends to the corners,
// asserting each one bit-identical to a from-scratch analysis at that
// corner.

// cornerState is one corner's published analysis and its worst-path
// ranking (the base's, for the typical corner; see record).
type cornerState struct {
	corner tech.Corner
	model  *delay.Model
	res    *core.Result
	rank   *paths.Ranking

	// hits counts batches that kept the corner model because the base
	// model was unchanged; misses counts batches that took the new base
	// model's view at the corner (delay.Model.At, which copies nothing).
	hits, misses int64
}

// mergedView is one published version's merged worst-slack view, built
// on the first merged read and then shared by every reader of that
// version; a commit publishes a new view and never writes a built
// sweep. Until it is built it holds the previous version's sweep, if
// that was built before the commit, for slack.Remerge to refold — and
// through it that version's corner results, which a read of this view
// or the next commit lets go.
type mergedView struct {
	mu   sync.Mutex
	sw   *slack.Sweep
	prev *slack.Sweep
}

// commit publishes a run's staged state and exports its corner metrics.
// Called with the write lock held, only after the whole run succeeded.
func (s *Session) commit(next pipeline.State) {
	s.stages, s.model, s.res = next.Stages, next.Model, next.Base
	v := &mergedView{}
	if old := s.merged; old != nil {
		old.mu.Lock()
		v.prev = old.sw
		old.mu.Unlock()
	}
	s.merged = v
	o := s.opt.Obs
	dlbl := obs.Label{Key: "design", Val: s.name}
	for i, c := range next.Corners {
		cs := s.corners[i]
		cs.model, cs.res = c.Model, c.Res
		clbl := obs.Label{Key: "corner", Val: cs.corner.Name}
		if c.Reused {
			cs.hits++
			o.Counter("incr_corner_cache_hits_total",
				"batches that reused a corner timing model unchanged", dlbl, clbl).Inc()
		} else {
			cs.misses++
			o.Counter("incr_corner_cache_misses_total",
				"batches that re-derived a corner timing model", dlbl, clbl).Inc()
		}
		o.Histogram("incr_corner_analysis_seconds",
			"wall time of one corner's re-analysis within a batch", nil, dlbl, clbl).
			Observe(c.Elapsed.Seconds())
	}
}

// required returns the backward pass of a published result, which the
// result memoizes (core.Result.Required): the base analysis, the typical
// corner that aliases it, and the latest version Diff reads share one
// pass, and a commit invalidates nothing because it publishes new
// results. The context cancels a first-use computation and carries the
// caller's request span, so a query that triggers the lazy backward pass
// records its "required" phase spans in that request's flight-recorder
// trace. Caller holds a lock.
func (s *Session) required(ctx context.Context, res *core.Result) (*core.Required, error) {
	opt := s.opt.Core
	opt.Obs = opt.Obs.ForRequest(ctx)
	return res.Required(ctx, opt)
}

// compareRequired asserts bit-identical required times and slacks.
func compareRequired(got, ref *core.Required, nodes []*netlist.Node) error {
	for i := range ref.RiseRAT.Len() {
		if got.RiseRAT.At(i) != ref.RiseRAT.At(i) || got.FallRAT.At(i) != ref.FallRAT.At(i) {
			return fmt.Errorf("selfcheck: node %s required times differ: rise %v/%v fall %v/%v",
				nodes[i], got.RiseRAT.At(i), ref.RiseRAT.At(i), got.FallRAT.At(i), ref.FallRAT.At(i))
		}
		gr, gf := got.Slack(i, core.Rise), got.Slack(i, core.Fall)
		rr, rf := ref.Slack(i, core.Rise), ref.Slack(i, core.Fall)
		if gr != rr || gf != rf {
			return fmt.Errorf("selfcheck: node %s slacks differ: rise %v/%v fall %v/%v", nodes[i], gr, rr, gf, rf)
		}
	}
	return nil
}

// compareMerged asserts the session's merged view bit-identical to ref,
// the merge of the reference corners.
func compareMerged(got, ref *slack.Sweep, nodes []*netlist.Node) error {
	if got.WorstSlack.Len() != ref.WorstSlack.Len() {
		return fmt.Errorf("selfcheck: merged view over %d nodes, reference %d", got.WorstSlack.Len(), ref.WorstSlack.Len())
	}
	for i := range ref.WorstSlack.Len() {
		if math.Float64bits(got.WorstSlack.At(i)) != math.Float64bits(ref.WorstSlack.At(i)) || got.WorstCorner.At(i) != ref.WorstCorner.At(i) {
			return fmt.Errorf("selfcheck: node %s merged slack %v at corner %d, reference %v at corner %d",
				nodes[i], got.WorstSlack.At(i), got.WorstCorner.At(i), ref.WorstSlack.At(i), ref.WorstCorner.At(i))
		}
	}
	return nil
}

// CornerInfo summarizes one corner's published state for /stats and
// /corners: the derate factors, the model-reuse ("cache hit") totals, and
// the corner's current signoff numbers.
type CornerInfo struct {
	Name   string  `json:"name"`
	RScale float64 `json:"r_scale"`
	CScale float64 `json:"c_scale"`
	// CacheHits counts delta batches that kept the corner timing model
	// (base model unchanged); CacheMisses counts batches that took the
	// new base model's view at the corner, full runs included — an O(1)
	// step that copies no arcs. CacheHitRate is hits/(hits+misses).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Violations and MinSlack summarize the corner's timing checks.
	Violations int      `json:"violations"`
	MinSlack   *float64 `json:"min_slack,omitempty"`
}

// Corners describes the session's configured corners, in option order;
// nil when the session runs single-corner.
func (s *Session) Corners() []CornerInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cornerInfos()
}

// cornerInfos builds the corner summaries. Callers hold a session lock.
func (s *Session) cornerInfos() []CornerInfo {
	if len(s.corners) == 0 {
		return nil
	}
	out := make([]CornerInfo, len(s.corners))
	for i, cs := range s.corners {
		ci := CornerInfo{
			Name:        cs.corner.Name,
			RScale:      cs.corner.RScale,
			CScale:      cs.corner.CScale,
			CacheHits:   cs.hits,
			CacheMisses: cs.misses,
		}
		if total := cs.hits + cs.misses; total > 0 {
			ci.CacheHitRate = float64(cs.hits) / float64(total)
		}
		ci.Violations = len(cs.res.Violations())
		if ms, ok := cs.res.MinSlack(); ok {
			ci.MinSlack = &ms
		}
		out[i] = ci
	}
	return out
}

// SlackInfo is one row of a slack ranking, serializable. Corner names
// the corner that set the slack; it is empty for a single-corner session.
type SlackInfo struct {
	Node     string  `json:"node"`
	Corner   string  `json:"corner,omitempty"`
	Pol      string  `json:"pol"`
	Arrival  float64 `json:"arrival"`
	Required float64 `json:"required"`
	Slack    float64 `json:"slack"`
}

// Slack returns the k most critical slacks, worst first (k ≤ 0 = all
// constrained). corner selects the view: a configured corner's name for
// that corner alone, or "" for the merged worst-slack-per-node view
// across every configured corner (the base analysis when none are).
// The backward pass runs lazily on first query and is cached until the
// next committed batch; the context cancels that computation and routes
// its phase spans to the request's flight-recorder trace.
func (s *Session) Slack(ctx context.Context, k int, corner string) ([]SlackInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if corner != "" || len(s.corners) == 0 {
		res, err := s.cornerResult(corner, "incr.slack")
		if err != nil {
			return nil, err
		}
		req, err := s.required(ctx, res)
		if err != nil {
			return nil, err
		}
		ranked := res.SlackRanking(req, k)
		out := make([]SlackInfo, len(ranked))
		for i, e := range ranked {
			out[i] = SlackInfo{
				Node: e.Node.Name, Corner: corner, Pol: e.Pol.String(),
				Arrival: e.Arrival, Required: e.Required, Slack: e.Slack,
			}
		}
		return out, nil
	}
	sw, err := s.mergedSweep(ctx, true)
	if err != nil {
		return nil, err
	}
	ranked := sw.Ranking(k)
	out := make([]SlackInfo, len(ranked))
	for i, e := range ranked {
		out[i] = SlackInfo{
			Node: e.Node.Name, Corner: e.Corner, Pol: e.Pol.String(),
			Arrival: e.Arrival, Required: e.Required, Slack: e.Slack,
		}
	}
	return out, nil
}

func (s *Session) cornerNames() string {
	if len(s.corners) == 0 {
		return "none"
	}
	names := make([]string, len(s.corners))
	for i, cs := range s.corners {
		names[i] = cs.corner.Name
	}
	return strings.Join(names, ",")
}

// Sweep is the merged corner view of the published state, computing any
// missing backward passes: the session's counterpart of the facade's
// corner sweep. Like Result, its results share the session's live
// netlist, and the sweep is the version's shared view: callers must not
// modify it. A single-corner session has no sweep and returns an error.
func (s *Session) Sweep(ctx context.Context) (*slack.Sweep, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mergedSweep(ctx, true)
}

// mergedSweep returns the published version's merged view (mergedView),
// computing any missing backward passes and, on first use, refolding the
// previous version's sweep or merging in full. With keep unset a first
// use is not memoized, so a check that reads the view leaves the next
// version's build as it was. Caller holds a lock.
func (s *Session) mergedSweep(ctx context.Context, keep bool) (*slack.Sweep, error) {
	v := s.merged
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.sw != nil {
		return v.sw, nil
	}
	crs := make([]slack.CornerResult, len(s.corners))
	for i, cs := range s.corners {
		req, err := s.required(ctx, cs.res)
		if err != nil {
			return nil, err
		}
		crs[i] = slack.CornerResult{Corner: cs.corner, Model: cs.model, Res: cs.res, Req: req}
	}
	sw, err := slack.Remerge(v.prev, crs)
	if err == nil && keep {
		v.sw, v.prev = sw, nil
	}
	return sw, err
}

// CriticalAt returns the k most constrained endpoints with their paths at
// one corner ("" = the base analysis, like Critical).
func (s *Session) CriticalAt(corner string, k int) ([]CriticalEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, err := s.cornerResult(corner, "incr.critical")
	if err != nil {
		return nil, err
	}
	return criticalEntries(res, k), nil
}
