package paths

import (
	"cmp"
	"context"
	"hash/fnv"
	"math"
	"slices"

	"nmostv/internal/core"
	"nmostv/internal/cow"
)

// NodeDelta is one node whose timing moved between two results.
type NodeDelta struct {
	Node int32
	// Settle arrivals in the older (A) and newer (B) result; ±Inf for
	// transitions that never happen.
	RiseA, RiseB, FallA, FallB float64
	// DRise/DFall are B − A per polarity; 0 when both sides agree
	// (including agreeing infinities), ±Inf when a transition appeared
	// or vanished.
	DRise, DFall float64
	// EarlyMoved reports the earliest-arrival (best-case) side moved
	// even if the settle side did not.
	EarlyMoved bool
	// SlackA/SlackB are the node's worst slack over polarities when
	// required times were supplied to DiffResults; NaN otherwise.
	SlackA, SlackB float64
}

// RankMove is a path whose position in the top-K worst ranking changed
// between two results. Paths are matched by endpoint identity plus the
// transition sequence (node/polarity hops), which survives model
// rebuilds — arc indices do not.
type RankMove struct {
	Node    int32
	Pol     core.Polarity
	Kind    Kind
	Wrapped bool
	// RankA/RankB are 1-based ranks; 0 = not in that side's top-K.
	RankA, RankB int
	// SlackA/SlackB are the path's slacks on each side; NaN when the
	// path is absent from that side's top-K.
	SlackA, SlackB float64
}

// Diff is a structural comparison of two published results.
type Diff struct {
	Epsilon float64
	// NodesCompared is the shared node-index prefix; Added counts nodes
	// present only in the newer result (netlists grow append-only, so
	// new nodes always occupy the tail).
	NodesCompared int
	Added         int
	Changed       []NodeDelta
	RankMoves     []RankMove
}

// moved reports whether x→y is a change beyond eps. At eps == 0 this is
// exactly bitwise inequality for the (NaN-free) arrival domain: equal
// infinities are unchanged, any finite/infinite disagreement is a move.
func moved(x, y, eps float64) bool {
	if x == y {
		return false
	}
	if eps == 0 || math.IsInf(x, 0) || math.IsInf(y, 0) {
		return true
	}
	return math.Abs(y-x) > eps
}

// deltaOf is B − A with agreeing values (including infinities) as 0.
func deltaOf(x, y float64) float64 {
	if x == y {
		return 0
	}
	return y - x
}

// DiffResults compares two rankings' results of the same (evolving)
// design: a is the older, b the newer. A node lands in Changed when any
// of its four arrival arrays (settle and earliest, both polarities) — or,
// when required times are supplied, its worst slack — moved beyond eps.
// With k > 0, the top-k worst paths of both sides are read from the
// rankings and matched to report rank changes; the reads stop at the
// design's path population, so their storage follows the paths found,
// never k, and they stop with ctx's error when the context is done. Both
// results must be published (immutable); the comparison takes no locks
// beyond the rankings' own. The scan goes chunk by chunk and skips every
// chunk the two versions share (sharedChunk): no node in it moved.
func DiffResults(ctx context.Context, ra, rb *Ranking, reqA, reqB *core.Required, eps float64, k int) (Diff, error) {
	a, b := ra.Result(), rb.Result()
	n := min(a.RiseAt.Len(), b.RiseAt.Len())
	d := Diff{Epsilon: eps, NodesCompared: n, Added: b.RiseAt.Len() - n}
	if d.Added < 0 {
		d.Added = 0
	}
	for i := 0; i < n; i++ {
		if i&(cow.ChunkLen-1) == 0 && sharedChunk(a, b, reqA, reqB, i>>cow.Shift) {
			i += cow.ChunkLen - 1
			continue
		}
		settleMoved := moved(a.RiseAt.At(i), b.RiseAt.At(i), eps) || moved(a.FallAt.At(i), b.FallAt.At(i), eps)
		earlyMoved := moved(a.EarlyRise.At(i), b.EarlyRise.At(i), eps) || moved(a.EarlyFall.At(i), b.EarlyFall.At(i), eps)
		sa, sb := math.NaN(), math.NaN()
		slackMoved := false
		if reqA != nil && reqB != nil {
			sa = math.Min(reqA.Slack(i, core.Rise), reqA.Slack(i, core.Fall))
			sb = math.Min(reqB.Slack(i, core.Rise), reqB.Slack(i, core.Fall))
			slackMoved = moved(sa, sb, eps)
		}
		if !settleMoved && !earlyMoved && !slackMoved {
			continue
		}
		d.Changed = append(d.Changed, NodeDelta{
			Node:  int32(i),
			RiseA: a.RiseAt.At(i), RiseB: b.RiseAt.At(i),
			FallA: a.FallAt.At(i), FallB: b.FallAt.At(i),
			DRise:      deltaOf(a.RiseAt.At(i), b.RiseAt.At(i)),
			DFall:      deltaOf(a.FallAt.At(i), b.FallAt.At(i)),
			EarlyMoved: earlyMoved,
			SlackA:     sa, SlackB: sb,
		})
	}
	if k > 0 {
		var err error
		if d.RankMoves, err = rankMoves(ctx, ra, rb, k); err != nil {
			return Diff{}, err
		}
	}
	return d, nil
}

// sharedChunk reports whether a and b, and their required times when
// both are given, hold the same chunk c of every array a node delta
// reads.
func sharedChunk(a, b *core.Result, reqA, reqB *core.Required, c int) bool {
	same := a.RiseAt.SameChunk(&b.RiseAt, c) && a.FallAt.SameChunk(&b.FallAt, c) &&
		a.EarlyRise.SameChunk(&b.EarlyRise, c) && a.EarlyFall.SameChunk(&b.EarlyFall, c)
	if reqA != nil && reqB != nil {
		same = same && reqA.RiseRAT.SameChunk(&reqB.RiseRAT, c) && reqA.FallRAT.SameChunk(&reqB.FallRAT, c)
	}
	return same
}

// CountChanged returns how many shared nodes differ in any arrival
// array, plus the number of nodes only the newer result has — the
// per-batch "what did this change" headline number.
func CountChanged(a, b *core.Result) int {
	count, n := onlyOne(a, b)
	for i := 0; i < n; i++ {
		if changedAt(a, b, i) {
			count++
		}
	}
	return count
}

// CountChangedAt is CountChanged for a b that AnalyzeIncremental
// extended from a: only the nodes it relaxed (DeltaStats.Relaxed, each
// listed once) can differ, so only they are compared.
func CountChangedAt(a, b *core.Result, relaxed []int32) int {
	count, n := onlyOne(a, b)
	for _, v := range relaxed {
		if i := int(v); i < n && changedAt(a, b, i) {
			count++
		}
	}
	return count
}

// onlyOne returns how many nodes only one of the results has, and how
// many both have.
func onlyOne(a, b *core.Result) (count, shared int) {
	shared = min(a.RiseAt.Len(), b.RiseAt.Len())
	return max(a.RiseAt.Len(), b.RiseAt.Len()) - shared, shared
}

// changedAt reports whether node i's arrivals differ between a and b.
func changedAt(a, b *core.Result, i int) bool {
	return a.RiseAt.At(i) != b.RiseAt.At(i) || a.FallAt.At(i) != b.FallAt.At(i) ||
		a.EarlyRise.At(i) != b.EarlyRise.At(i) || a.EarlyFall.At(i) != b.EarlyFall.At(i)
}

// pathSig fingerprints a path by endpoint identity and transition
// sequence — stable across model rebuilds, unlike arc indices.
func pathSig(p Path) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(p.Kind))
	put(uint64(uint32(p.Node)))
	put(uint64(p.Pol))
	if p.Wrapped {
		put(1)
	} else {
		put(0)
	}
	for _, s := range p.Steps {
		put(uint64(uint32(s.Node))<<8 | uint64(s.Pol))
	}
	return h.Sum64()
}

func rankMoves(ctx context.Context, a, b *Ranking, k int) ([]RankMove, error) {
	type entry struct {
		p    Path
		rank int
	}
	top := func(r *Ranking) (map[uint64]entry, error) {
		m := make(map[uint64]entry)
		c := r.Cursor()
		for i := 0; i < k; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p, ok := c.Next()
			if !ok {
				break
			}
			m[pathSig(p)] = entry{p, p.Rank}
		}
		return m, nil
	}
	ta, err := top(a)
	if err != nil {
		return nil, err
	}
	tb, err := top(b)
	if err != nil {
		return nil, err
	}
	var out []RankMove
	for sig, ea := range ta {
		eb, inB := tb[sig]
		if inB && eb.rank == ea.rank {
			continue
		}
		mv := RankMove{Node: ea.p.Node, Pol: ea.p.Pol, Kind: ea.p.Kind, Wrapped: ea.p.Wrapped,
			RankA: ea.rank, SlackA: ea.p.Slack, SlackB: math.NaN()}
		if inB {
			mv.RankB, mv.SlackB = eb.rank, eb.p.Slack
		}
		out = append(out, mv)
	}
	for sig, eb := range tb {
		if _, inA := ta[sig]; inA {
			continue
		}
		out = append(out, RankMove{Node: eb.p.Node, Pol: eb.p.Pol, Kind: eb.p.Kind, Wrapped: eb.p.Wrapped,
			RankB: eb.rank, SlackA: math.NaN(), SlackB: eb.p.Slack})
	}
	// Deterministic order: by newer-side rank (absent last), then the
	// older-side rank, then endpoint identity.
	rank := func(r int) int {
		if r == 0 {
			return math.MaxInt
		}
		return r
	}
	slices.SortFunc(out, func(x, y RankMove) int {
		if c := cmp.Compare(rank(x.RankB), rank(y.RankB)); c != 0 {
			return c
		}
		if c := cmp.Compare(rank(x.RankA), rank(y.RankA)); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Node, y.Node); c != 0 {
			return c
		}
		return cmp.Compare(x.Pol, y.Pol)
	})
	return out, nil
}
