package incr

import (
	"context"
	"fmt"
	"strings"

	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
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

// cornerState is one corner's published analysis.
type cornerState struct {
	corner tech.Corner
	model  *delay.Model
	res    *core.Result

	// hits counts batches that reused the corner model because the base
	// model was unchanged; misses counts re-derivations (ScaleModel).
	hits, misses int64
}

// commit publishes a run's staged state and exports its corner metrics.
// Called with the write lock held, only after the whole run succeeded.
func (s *Session) commit(next pipeline.State) {
	s.stages, s.model, s.res = next.Stages, next.Model, next.Base
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
	for i := range ref.RiseRAT {
		if got.RiseRAT[i] != ref.RiseRAT[i] || got.FallRAT[i] != ref.FallRAT[i] {
			return fmt.Errorf("selfcheck: node %s required times differ: rise %v/%v fall %v/%v",
				nodes[i], got.RiseRAT[i], ref.RiseRAT[i], got.FallRAT[i], ref.FallRAT[i])
		}
		if got.SlackRise[i] != ref.SlackRise[i] || got.SlackFall[i] != ref.SlackFall[i] {
			return fmt.Errorf("selfcheck: node %s slacks differ: rise %v/%v fall %v/%v",
				nodes[i], got.SlackRise[i], ref.SlackRise[i], got.SlackFall[i], ref.SlackFall[i])
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
	// (base model unchanged); CacheMisses counts re-derivations, full
	// runs included. CacheHitRate is hits/(hits+misses).
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
	sw, err := s.mergedSweep(ctx)
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
// netlist. A single-corner session has no sweep and returns an error.
func (s *Session) Sweep(ctx context.Context) (*slack.Sweep, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mergedSweep(ctx)
}

// mergedSweep assembles the slack.Sweep over the published corner state,
// computing any missing backward passes. Caller holds a lock.
func (s *Session) mergedSweep(ctx context.Context) (*slack.Sweep, error) {
	crs := make([]slack.CornerResult, len(s.corners))
	for i, cs := range s.corners {
		req, err := s.required(ctx, cs.res)
		if err != nil {
			return nil, err
		}
		crs[i] = slack.CornerResult{Corner: cs.corner, Model: cs.model, Res: cs.res, Req: req}
	}
	return slack.Merge(crs)
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
