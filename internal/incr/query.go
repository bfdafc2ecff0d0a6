package incr

import (
	"math"

	"nmostv/internal/core"
)

// The query methods return plain serializable snapshots (names and
// numbers, no netlist pointers) computed under the session read lock, so
// HTTP handlers can marshal them while another request is mid-Apply.
// Possibly-infinite times are *float64: nil marks a transition that never
// occurs, which also keeps the JSON encoder away from ±Inf.

// CheckInfo is one timing check, serializable.
type CheckInfo struct {
	Kind     string  `json:"kind"`
	Node     string  `json:"node"`
	Pol      string  `json:"pol"`
	Phase    int     `json:"phase,omitempty"`
	Arrival  float64 `json:"arrival"`
	Deadline float64 `json:"deadline"`
	Slack    float64 `json:"slack"`
	OK       bool    `json:"ok"`
}

// NodeTiming is the query snapshot for one node.
type NodeTiming struct {
	Name  string `json:"name"`
	Flags string `json:"flags"`
	Phase int    `json:"phase,omitempty"`
	// CapPF is the extracted lumped capacitance in pF.
	CapPF float64 `json:"cap_pf"`
	// Settle/Rise/Fall and EarlyRise/EarlyFall are ns; nil = never.
	Settle    *float64 `json:"settle,omitempty"`
	Rise      *float64 `json:"rise,omitempty"`
	Fall      *float64 `json:"fall,omitempty"`
	EarlyRise *float64 `json:"early_rise,omitempty"`
	EarlyFall *float64 `json:"early_fall,omitempty"`
	// Slack is the worst slack over this node's deadline checks.
	Slack *float64 `json:"slack,omitempty"`
	// Checks are all checks anchored at this node, report order.
	Checks []CheckInfo `json:"checks,omitempty"`
}

// PathStep is one hop of a reported path.
type PathStep struct {
	Node   string  `json:"node"`
	Pol    string  `json:"pol"`
	Time   float64 `json:"time"`
	Via    string  `json:"via,omitempty"`
	Invert bool    `json:"invert,omitempty"`
}

// CriticalEntry is one ranked endpoint with its path.
type CriticalEntry struct {
	Check CheckInfo  `json:"check"`
	Steps []PathStep `json:"path"`
}

// Info summarizes the session.
type Info struct {
	Name       string   `json:"name"`
	Nodes      int      `json:"nodes"`
	Devices    int      `json:"devices"`
	Stages     int      `json:"stages"`
	Arcs       int      `json:"arcs"`
	Period     float64  `json:"period_ns"`
	Applied    int      `json:"deltas_applied"`
	Violations int      `json:"violations"`
	MinSlack   *float64 `json:"min_slack,omitempty"`
	// CacheHits and CacheMisses are the session-lifetime delay
	// shard-cache totals; CacheHitRate is hits/(hits+misses).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Corners counts the configured PVT corners; PerCorner carries each
	// corner's model-reuse hit rate and signoff summary.
	Corners   int          `json:"corners,omitempty"`
	PerCorner []CornerInfo `json:"per_corner,omitempty"`
	// Last reports the most recent (re-)analysis, including the dirty
	// cone size (cone_stages) and how much was recomputed.
	Last Stats `json:"last"`
}

// DeviceInfo describes one device for enumeration by ID.
type DeviceInfo struct {
	ID   int64   `json:"id"`
	Kind string  `json:"kind"`
	Gate string  `json:"gate"`
	A    string  `json:"a"`
	B    string  `json:"b"`
	W    float64 `json:"w"`
	L    float64 `json:"l"`
}

func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

func checkInfo(c core.Check) CheckInfo {
	return CheckInfo{
		Kind: c.Kind.String(), Node: c.Node.Name, Pol: c.Pol.String(),
		Phase: c.Phase, Arrival: c.Arrival, Deadline: c.Deadline,
		Slack: c.Slack, OK: c.OK,
	}
}

// NodeTiming returns the timing snapshot for the named node; ok=false when
// the node does not exist.
func (s *Session) NodeTiming(name string) (NodeTiming, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.nl.Lookup(name)
	if n == nil {
		return NodeTiming{}, false
	}
	r := s.res
	nt := NodeTiming{
		Name:      n.Name,
		Flags:     n.Flags.String(),
		Phase:     n.Phase,
		CapPF:     n.Cap,
		Settle:    finiteOrNil(r.Settle(n)),
		Rise:      finiteOrNil(r.RiseAt.At(n.Index)),
		Fall:      finiteOrNil(r.FallAt.At(n.Index)),
		EarlyRise: finiteOrNil(r.EarlyRise.At(n.Index)),
		EarlyFall: finiteOrNil(r.EarlyFall.At(n.Index)),
	}
	for _, c := range r.NodeChecks(n.Index) {
		nt.Checks = append(nt.Checks, checkInfo(c))
		if c.Kind == core.CheckLatch || c.Kind == core.CheckOutput {
			if nt.Slack == nil || c.Slack < *nt.Slack {
				sl := c.Slack
				nt.Slack = &sl
			}
		}
	}
	return nt, true
}

// Critical returns the k most constrained endpoints with their paths,
// worst first (see core.Result.TopPaths).
func (s *Session) Critical(k int) []CriticalEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return criticalEntries(s.res, k)
}

// criticalEntries converts one result's ranked paths to the serializable
// form. Callers hold a session lock.
func criticalEntries(res *core.Result, k int) []CriticalEntry {
	ranked := res.TopPaths(k)
	out := make([]CriticalEntry, 0, len(ranked))
	for _, rp := range ranked {
		e := CriticalEntry{Check: checkInfo(rp.Check)}
		for _, st := range rp.Steps {
			ps := PathStep{
				Node: st.Node.Name, Pol: st.Pol.String(),
				Time: st.Time, Invert: st.Invert,
			}
			if st.Via != nil {
				ps.Via = st.Via.Gate.Name
			}
			e.Steps = append(e.Steps, ps)
		}
		out = append(out, e)
	}
	return out
}

// Info returns the session summary.
func (s *Session) Info() Info {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info := Info{
		Name:    s.name,
		Nodes:   len(s.nl.Nodes),
		Devices: len(s.nl.Trans),
		Stages:  len(s.stages.Stages),
		Arcs:    s.model.Edges.Len(),
		Period:  s.opt.Sched.Period,
		Applied: s.applied,
		Last:    s.last,
	}
	info.CacheHits = s.cacheHits
	info.CacheMisses = s.cacheMisses
	if total := s.cacheHits + s.cacheMisses; total > 0 {
		info.CacheHitRate = float64(s.cacheHits) / float64(total)
	}
	info.Corners = len(s.corners)
	info.PerCorner = s.cornerInfos()
	info.Violations = s.res.ViolationCount()
	if ms, ok := s.res.MinSlack(); ok {
		info.MinSlack = &ms
	}
	return info
}

// Devices lists every device with its stable ID, in index order.
func (s *Session) Devices() []DeviceInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DeviceInfo, len(s.nl.Trans))
	for i, t := range s.nl.Trans {
		out[i] = DeviceInfo{
			ID: t.ID, Kind: t.Kind.String(),
			Gate: t.Gate.Name, A: t.A.Name, B: t.B.Name,
			W: t.W, L: t.L,
		}
	}
	return out
}

// Name returns the session's design name.
func (s *Session) Name() string { return s.name }
