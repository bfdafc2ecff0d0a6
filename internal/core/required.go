package core

// The backward pass. The forward passes answer "when does each node
// settle"; this file answers the dual question — "when must it have
// settled" — by seeding required arrival times (RATs) from the same
// clock-edge constraints runChecks verifies and propagating them against
// the arc direction in reverse wavefront order. slack = RAT − AT per node
// and polarity then localizes every endpoint constraint onto the nodes of
// the paths feeding it: a negative slack names exactly the nodes that
// must speed up, and the slack-ordered ranking replaces a flat
// latest-arrival report with one sorted by how close each node runs to
// its deadline.
//
// Seeds mirror runChecks arc for arc:
//
//   - a masked arc (through a clock-gated device) requires its cause to
//     launch early enough that cause + delay meets the governing clock's
//     fall: RAT(From, causePol) ≤ deadline − d, with the same φ1
//     wraparound rule runChecks applies to storage writes across the
//     cycle boundary; a cause that already missed the window entirely is
//     held to the window itself (slack then equals the missed-window
//     check's deadline − cause);
//   - a primary output requires both of its transitions inside the cycle:
//     RAT ≤ Period.
//
// Propagation is the min-plus dual of the forward max-plus relaxation:
// RAT(From, causePol) ≤ RAT(To, pol) − d over every arc that transmits in
// the forward pass — the same storage filter (data arcs into clocked
// storage are checks, not propagation) and the same window-miss
// exclusions, so the backward graph is exactly the forward one reversed.
// Launch clamping is deliberately absent from the dual: a clamped
// transition launches at the clock edge no matter how early its cause
// arrived, so the cause can slip later without moving anything downstream
// — the clamp widens slack upstream of a latch rather than propagating
// tension through it. A masked arc whose relief (RAT(To) − d) is no
// earlier than its window deadline imposes nothing beyond the window seed
// already applied.
//
// Like the forward walk, singleton components are pure functions of
// already-settled levels (here: later levels) and cyclic components
// iterate to a bounded fixpoint inside one worker, so the backward pass
// is bit-identical at every worker count. min, like max, is exact in
// floating point regardless of evaluation order.

import (
	"context"
	"math"
	"slices"
	"sync/atomic"

	"nmostv/internal/cow"
	"nmostv/internal/delay"
	"nmostv/internal/netlist"
)

// Required holds the backward-pass products for one analysis: per-node
// required arrival times per polarity, and the slacks read off them.
// +Inf RAT means the transition is unconstrained (no clocked or output
// endpoint downstream). Slack is RAT − AT, one IEEE subtraction on
// every read, so an unconstrained or static (AT = −Inf) transition has
// +Inf slack. A Required is immutable once its pass returns, apart from
// the slack ranking its reads memoize (SlackPrefix).
type Required struct {
	// RiseRAT and FallRAT are per-node-index required times in ns.
	RiseRAT, FallRAT cow.Array[float64]
	// at holds the analysis's settle arrivals, indexed by Polarity: the
	// AT of every slack.
	at [2]cow.Array[float64]
	// id names the pass; from is the id of the pass it extended, 0 when
	// it ran from scratch, and relaxed lists the nodes its walk relaxed
	// then.
	id, from uint64
	relaxed  []int32
	// ranked is the slack ranking over these required times (SlackPrefix).
	ranked Prefix[SlackEntry]
}

// requiredIDs numbers the backward passes.
var requiredIDs atomic.Uint64

// RAT returns the required time of one transition.
func (q *Required) RAT(idx int, pol Polarity) float64 {
	if pol == Rise {
		return q.RiseRAT.At(idx)
	}
	return q.FallRAT.At(idx)
}

// Slack returns the slack of one transition, RAT − AT; negative means
// the node settles too late for some downstream deadline.
func (q *Required) Slack(idx int, pol Polarity) float64 {
	return q.RAT(idx, pol) - q.at[pol].At(idx)
}

// NodeSlack returns the worse of a node's rise and fall slacks.
func (q *Required) NodeSlack(idx int) float64 {
	return math.Min(q.Slack(idx, Rise), q.Slack(idx, Fall))
}

// WorstSlack returns the minimum finite slack over all nodes and its
// location; ok=false when every transition is unconstrained. Of equal
// minima the first in node order wins, rise before fall.
func (q *Required) WorstSlack() (idx int, pol Polarity, slack float64, ok bool) {
	idx, pol, slack = -1, Rise, math.Inf(1)
	for i := range q.RiseRAT.Len() {
		if s := q.Slack(i, Rise); s < slack {
			idx, pol, slack, ok = i, Rise, s, true
		}
		if s := q.Slack(i, Fall); s < slack {
			idx, pol, slack, ok = i, Fall, s, true
		}
	}
	return idx, pol, slack, ok
}

// ChangedSince reports, when q's pass extended prev's, the nodes whose
// slacks can differ from prev's: those q's walk relaxed, in no
// particular order. They hold every node whose required time moved and
// every node whose settle arrival moved, added nodes included, because
// the pass was seeded with the latter (AnalyzeIncremental's
// requiredSeeds). ok is false when q did not extend prev, and then any
// node's slack can differ.
func (q *Required) ChangedSince(prev *Required) (nodes []int32, ok bool) {
	if q.from == 0 || q.from != prev.id {
		return nil, false
	}
	return q.relaxed, true
}

// Required returns this result's backward pass: per-node required times
// over its propagation plan. The pass runs on the first call and stays
// with the result, so later calls — the corner sweep over a base result
// whose slack tv already ranked, a session's next query — return the
// same *Required without a second pass; concurrent first calls share
// one computation, and a call its context aborts keeps nothing. The
// result's arrivals are read but never written. opt supplies Workers,
// SCCIterBound, and Obs, and should be the options the result was
// analyzed with (the pass is bit-identical at any worker count); the
// context aborts the reverse walk between levels like the forward
// passes.
//
// A result AnalyzeIncremental extended from one whose pass had run
// starts from that pass's required times and re-relaxes only the
// components its seed nodes reach; once its own pass has run it drops
// the previous one.
func (r *Result) Required(ctx context.Context, opt Options) (*Required, error) {
	r.reqMu.Lock()
	defer r.reqMu.Unlock()
	if r.req == nil {
		q, err := r.backwardPass(ctx, opt, r.reqPrev, r.reqSeeds)
		if err != nil {
			return nil, err
		}
		r.req, r.reqPrev, r.reqSeeds = q, nil, nil
	}
	return r.req, nil
}

// memo returns the memoized backward pass, nil when it has not run.
func (r *Result) memo() *Required {
	r.reqMu.Lock()
	defer r.reqMu.Unlock()
	return r.req
}

// backwardPass computes the required times Required memoizes: the walk
// (walk.go) in reverse level order. With a previous pass it starts from
// versions of that pass's required times (cow.Array.Clone), queues the
// components holding a seed node on a worklist from the plan's free
// list, and wakes upstream components only where a required time
// changed bitwise; it records the nodes it relaxed. Without one, every
// component relaxes.
func (r *Result) backwardPass(ctx context.Context, opt Options, prev *Required, seeds []int32) (*Required, error) {
	opt = opt.withDefaults()
	n := r.RiseAt.Len()
	q := &Required{at: [2]cow.Array[float64]{r.RiseAt, r.FallAt}, id: requiredIDs.Add(1)}
	a := &analysis{Result: r, opt: opt, ctx: orBackground(ctx)}
	a.initMetrics()
	defer opt.Obs.Span("required").End()
	p := &pass{analysis: a, kind: requiredPass}
	sp := opt.Obs.Span("required-seeds")
	if prev == nil {
		q.RiseRAT, q.FallRAT = cow.Make(n, PosInf), cow.Make(n, PosInf)
	} else {
		q.RiseRAT, q.FallRAT = prev.RiseRAT.Clone(), prev.FallRAT.Clone()
		q.RiseRAT.Grow(n, PosInf)
		q.FallRAT.Grow(n, PosInf)
		q.from = prev.id
		p.prev = [2]*cow.Array[float64]{&prev.RiseRAT, &prev.FallRAT}
		// Concurrent first calls on different results may run this pass
		// at once, so its worklist is its own, not an arena's.
		p.work = r.wave.takeWorklist()
		defer r.wave.putWorklist(p.work)
		for _, v := range seeds {
			p.work.add(r.wave.compOf[v])
		}
	}
	p.val = [2]*cow.Array[float64]{&q.RiseRAT, &q.FallRAT}
	sp.End()
	sp = opt.Obs.Span("required-propagate")
	p.walk()
	sp.End()
	if err := a.abortErr(); err != nil {
		return nil, err
	}
	if p.work != nil {
		for _, b := range p.work.bucket {
			for _, ci := range b {
				q.relaxed = append(q.relaxed, r.wave.comp(ci)...)
			}
		}
		q.ranked.Extend(&prev.ranked, q.relaxed)
	}
	return q, nil
}

// lowerRAT tightens one transition of rat, the required-time pair being
// computed for a node; reports change.
func lowerRAT(rat *[2]float64, pol Polarity, t float64) bool {
	if t < rat[pol] {
		rat[pol] = t
		return true
	}
	return false
}

// setRAT stores node idx's required-time pair.
func (p *pass) setRAT(idx int32, rat [2]float64) {
	p.val[Rise].Set(int(idx), rat[Rise])
	p.val[Fall].Set(int(idx), rat[Fall])
}

// phaseOfMask maps a single-phase mask to its clock phase number.
func phaseOfMask(mask uint8) int {
	if mask == delay.MaskPhi2 {
		return 2
	}
	return 1
}

// seedEndpoints applies node idx's endpoint constraints to rat, its
// required-time pair: one per masked out-arc whose cause transitions
// (mirroring runChecks' latch and missed-window rules, including the φ1
// cross-cycle wrap) and, for a primary output that transitions, the
// cycle boundary. An out-arc's From is idx itself. Out-arcs are in
// ascending arc order, so a node's seeds apply in the order a scan of
// the whole arc array would apply them.
func (p *pass) seedEndpoints(idx int32, rat *[2]float64) {
	for _, ei := range p.wave.out(idx) {
		e := p.Model.Arc(ei)
		for _, pol := range bothPols {
			d, mask := p.Model.Delay(e, pol == Fall)
			if mask == 0 || isInfPos(d) {
				continue
			}
			_, deadline, _, alive := p.maskWindow(mask)
			if !alive {
				continue // dead path: never conducts, no requirement
			}
			fromPol := causePol(e, pol)
			cause := p.arrival(int(e.From), fromPol)
			if isInfNeg(cause) {
				continue // cause never transitions: nothing to require
			}
			if cause > deadline && phaseOfMask(mask) == 1 && p.src.storage[e.To] {
				deadline += p.Sched.Period
			}
			req := deadline - d
			if cause > deadline {
				// Missed the window entirely: the requirement collapses to
				// the window itself, so slack = deadline − cause matches
				// the missed-window check.
				req = deadline
			}
			lowerRAT(rat, fromPol, req)
		}
	}
	if !p.Model.NodeFlags[idx].Has(netlist.FlagOutput) {
		return
	}
	if !isInfNeg(p.RiseAt.At(int(idx))) {
		lowerRAT(rat, Rise, p.Sched.Period)
	}
	if !isInfNeg(p.FallAt.At(int(idx))) {
		lowerRAT(rat, Fall, p.Sched.Period)
	}
}

// relaxNodeRequired tightens both polarities of node idx from its
// outgoing arcs — the exact reversal of relaxNode's arc transmission
// rules; see the file comment for why clamping is absent. Returns true if
// either RAT decreased. fresh starts from +Inf lowered by the node's
// endpoint seeds, as a singleton component's one relaxation does, and
// stores the pair only if it moved, as relaxNode does; otherwise the
// stored pair is lowered, as a cyclic component's rounds do.
func (p *pass) relaxNodeRequired(idx int32, fresh bool) bool {
	cur := [2]float64{p.val[Rise].At(int(idx)), p.val[Fall].At(int(idx))}
	rat := cur
	if fresh {
		rat = [2]float64{PosInf, PosInf}
		p.seedEndpoints(idx, &rat)
	}
	changed := false
	for _, ei := range p.wave.out(idx) {
		e := p.Model.Arc(ei)
		if p.src.storage[e.To] && !p.Model.IsClock(e.From) {
			// Data arc into clocked storage: a setup check (seeded), not
			// propagation — forward relaxNode skips it identically.
			continue
		}
		for _, pol := range bothPols {
			d, mask := p.Model.Delay(e, pol == Fall)
			if isInfPos(d) {
				continue
			}
			to := p.val[pol].At(int(e.To))
			if e.To == idx {
				to = rat[pol] // a self arc reads the pair being lowered
			}
			if isInfPos(to) {
				continue
			}
			_, deadline, constrained, alive := p.maskWindow(mask)
			if !alive {
				continue
			}
			fromPol := causePol(e, pol)
			cause := p.arrival(int(e.From), fromPol)
			if isInfNeg(cause) {
				continue // edge never fires forward; transmits nothing back
			}
			if constrained {
				if cause > deadline && phaseOfMask(mask) == 1 && p.src.storage[e.To] {
					deadline += p.Sched.Period
				}
				if cause > deadline {
					continue // missed window: excluded forward, excluded here
				}
				if to-d >= deadline {
					continue // the window deadline dominates; already seeded
				}
			}
			if lowerRAT(&rat, fromPol, to-d) {
				changed = true
			}
		}
	}
	if fresh {
		changed = !sameBits(rat[Rise], cur[Rise]) || !sameBits(rat[Fall], cur[Fall])
	}
	if changed {
		p.setRAT(idx, rat)
	}
	return changed
}

// SlackEntry is one row of the slack-ordered critical ranking.
type SlackEntry struct {
	Node *netlist.Node
	Pol  Polarity
	// Arrival, Required, Slack in ns; Slack = Required − Arrival.
	Arrival, Required, Slack float64
}

// SlackRanking returns the k most critical node transitions — smallest
// slack first — over the given required times. Unconstrained transitions
// (+Inf slack) and supply/clock nodes are omitted; k ≤ 0 returns every
// constrained transition. Ties order by node index then polarity, so the
// ranking is deterministic. The rows are SlackPrefix's, copied.
func (r *Result) SlackRanking(q *Required, k int) []SlackEntry {
	rows, _ := r.SlackPrefix(q, k)
	return slices.Clone(rows)
}

// SlackPrefix returns SlackRanking's first k rows from the ranking q
// memoizes as a worst-first prefix (Prefix), and whether the read scanned
// every node. A pass that extended a previous pass derives its prefix on
// the first read from that pass's prefix and the nodes it relaxed
// (ChangedSince), so a read scans only when k is past the derived prefix
// or the previous pass's ranking was never read; a scan costs one pass
// over the nodes and the selection of k rows (TopK). The rows are shared:
// callers must not modify them.
func (r *Result) SlackPrefix(q *Required, k int) (rows []SlackEntry, scanned bool) {
	return q.ranked.Read(k, slackRanker{nodes: r.NL.Nodes, q: q})
}

// BuiltRanking returns the slack-ranking rows reads of q have built so
// far, shared, and whether they are the whole ranking.
func (q *Required) BuiltRanking() (rows []SlackEntry, all bool) { return q.ranked.Built() }

// VerifySlackRanking compares the slack-ranking prefix reads of q have
// built with a fresh scan, bit for bit.
func (r *Result) VerifySlackRanking(q *Required) error {
	return q.ranked.Verify(slackRanker{nodes: r.NL.Nodes, q: q}, func(x, y SlackEntry) bool {
		return x.Node == y.Node && x.Pol == y.Pol && sameBits(x.Arrival, y.Arrival) &&
			sameBits(x.Required, y.Required) && sameBits(x.Slack, y.Slack)
	})
}

// slackRanker ranks one pass's node transitions by slack, for Prefix.
type slackRanker struct {
	nodes []*netlist.Node
	q     *Required
}

func (s slackRanker) Nodes() int { return len(s.nodes) }

func (s slackRanker) Rows(i int, out []SlackEntry) []SlackEntry {
	nd := s.nodes[i]
	if nd.IsSupply() || nd.IsClock() {
		return out
	}
	q := s.q
	if sl := q.Slack(i, Rise); !math.IsInf(sl, 1) {
		out = append(out, SlackEntry{Node: nd, Pol: Rise,
			Arrival: q.at[Rise].At(i), Required: q.RiseRAT.At(i), Slack: sl})
	}
	if sl := q.Slack(i, Fall); !math.IsInf(sl, 1) {
		out = append(out, SlackEntry{Node: nd, Pol: Fall,
			Arrival: q.at[Fall].At(i), Required: q.FallRAT.At(i), Slack: sl})
	}
	return out
}

func (slackRanker) Node(e SlackEntry) int       { return e.Node.Index }
func (slackRanker) Compare(a, c SlackEntry) int { return compareSlackEntry(a, c) }

// compareSlackEntry is the ranking's total order: slack, then node
// index, then polarity.
func compareSlackEntry(a, c SlackEntry) int {
	if a.Slack != c.Slack {
		if a.Slack < c.Slack {
			return -1
		}
		return 1
	}
	if a.Node.Index != c.Node.Index {
		return a.Node.Index - c.Node.Index
	}
	return int(a.Pol) - int(c.Pol)
}
