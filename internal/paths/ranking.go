package paths

import (
	"context"
	"fmt"
	"math"
	"sync"

	"nmostv/internal/core"
	"nmostv/internal/obs"
)

// Ranking is one published result's worst-path order, shared by every
// reader of that result: an append-only prefix of settled paths. A
// reader serves ranks from the prefix and runs a generator of its own
// only past the prefix's end, publishing every path it settles, so a
// result is searched once however often it is read. The ranking keeps no
// generator, heap or state: a settled path is its endpoint and its
// forward arcs (four bytes a hop), and a read rebuilds the steps with
// the replay Generator.Next uses. Safe for concurrent use.
type Ranking struct {
	res      *core.Result
	searches *obs.Counter

	mu sync.Mutex
	// settled is the prefix in rank order. Appends never write an
	// element a reader already holds, so readers index a copy of the
	// slice header outside the lock.
	settled []settledPath
	// complete reports that settled is the design's whole population.
	complete bool
}

// settledPath is a ranked path in compact form: what build replays.
type settledPath struct {
	end  endpoint
	arcs []int32
}

// NewRanking returns an empty ranking over the published result res.
// searches, when not nil, counts the generators its readers build.
func NewRanking(res *core.Result, searches *obs.Counter) *Ranking {
	return &Ranking{res: res, searches: searches}
}

// Result returns the result the ranking orders.
func (r *Ranking) Result() *core.Result { return r.res }

// prefix returns the paths settled so far and whether they are all.
func (r *Ranking) prefix() ([]settledPath, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.settled, r.complete
}

// publish records a group a generator settled from 0-based rank at on;
// an empty group means the generator's search ended at rank at. Every
// generator settles the same sequence and publishes each group it
// settles, so at never exceeds the prefix, and publish appends only the
// part of the group past it.
func (r *Ranking) publish(at int, group []*state) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(group) == 0 {
		r.complete = true
		return
	}
	for _, st := range group[min(len(r.settled)-at, len(group)):] {
		r.settled = append(r.settled, settledPath{end: *st.end, arcs: st.arcs})
	}
}

// Cursor reads a ranking in worst-first order from rank 1. A cursor
// belongs to one goroutine; any number of cursors may read one ranking
// at once.
type Cursor struct {
	r    *Ranking
	rank int // paths returned
	// gen is the cursor's own search, made when it first reads past the
	// prefix; it has settled the first at paths. It replays the ranks
	// before the prefix's end without building them.
	gen *Generator
	at  int
}

// Cursor opens a reader at rank 1.
func (r *Ranking) Cursor() *Cursor { return &Cursor{r: r} }

// Next returns the next path in worst-first order, the one New's
// generator would return; ok=false when the design has no further
// feasible paths.
func (c *Cursor) Next() (Path, bool) {
	for {
		settled, complete := c.r.prefix()
		if c.rank < len(settled) {
			p := &settled[c.rank]
			c.rank++
			return build(c.r.res, &p.end, p.arcs, c.rank), true
		}
		if complete {
			return Path{}, false
		}
		if c.gen == nil {
			c.gen = New(c.r.res)
			c.r.searches.Inc()
		}
		group := c.gen.settle()
		c.r.publish(c.at, group)
		c.at += len(group)
	}
}

// Verify replays the settled prefix with a fresh generator and requires
// the same paths bit for bit: endpoint identity, arc ids, and the bits
// of every delay, launch, arrival and slack. A complete ranking must end
// where the fresh search ends. An empty ranking passes at no cost.
func (r *Ranking) Verify(ctx context.Context) error {
	settled, complete := r.prefix()
	if len(settled) == 0 {
		return nil
	}
	g := New(r.res)
	for i := range settled {
		if err := ctx.Err(); err != nil {
			return err
		}
		want, ok := g.Next()
		if !ok {
			return fmt.Errorf("paths: rank %d is settled, but a fresh search ends after %d paths", i+1, i)
		}
		if err := samePath(build(r.res, &settled[i].end, settled[i].arcs, i+1), want); err != nil {
			return fmt.Errorf("paths: rank %d: %w", i+1, err)
		}
	}
	if complete {
		if _, more := g.Next(); more {
			return fmt.Errorf("paths: the ranking ends after %d paths, but a fresh search goes on", len(settled))
		}
	}
	return nil
}

// samePath returns the first difference between got and a fresh
// search's want, comparing times by their bits; nil when they agree.
func samePath(got, want Path) error {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if got.Rank != want.Rank || got.Kind != want.Kind || got.Node != want.Node || got.Pol != want.Pol ||
		got.Phase != want.Phase || got.Wrapped != want.Wrapped {
		return fmt.Errorf("endpoint node %d %s %s phase %d wrapped %v, a fresh search node %d %s %s phase %d wrapped %v",
			got.Node, got.Pol, got.Kind, got.Phase, got.Wrapped, want.Node, want.Pol, want.Kind, want.Phase, want.Wrapped)
	}
	if !same(got.Arrival, want.Arrival) || !same(got.Required, want.Required) || !same(got.Slack, want.Slack) {
		return fmt.Errorf("arrival %v required %v slack %v, a fresh search %v %v %v",
			got.Arrival, got.Required, got.Slack, want.Arrival, want.Required, want.Slack)
	}
	if len(got.Steps) != len(want.Steps) {
		return fmt.Errorf("%d steps, a fresh search %d", len(got.Steps), len(want.Steps))
	}
	for i, g := range got.Steps {
		w := want.Steps[i]
		if g.Node != w.Node || g.Pol != w.Pol || g.Arc != w.Arc || g.Clamped != w.Clamped ||
			!same(g.Delay, w.Delay) || !same(g.Launch, w.Launch) || !same(g.Arrival, w.Arrival) {
			return fmt.Errorf("step %d is %+v, a fresh search %+v", i, g, w)
		}
	}
	return nil
}
