package paths

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/obs"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// generated returns the first n paths of New(res), fewer when the design
// has fewer, and the sizes of the equal-slack groups the generator
// settled to produce them.
func generated(res *core.Result, n int) ([]Path, []int) {
	g := New(res)
	var out []Path
	var groups []int
	for len(out) < n {
		group := g.settle()
		if len(group) == 0 {
			break
		}
		groups = append(groups, len(group))
		for _, st := range group {
			out = append(out, build(res, st.end, st.arcs, len(out)+1))
		}
	}
	return out[:min(n, len(out))], groups
}

// tiledResult analyzes an n-transistor tiled chip at one worker.
func tiledResult(t *testing.T, n int) *core.Result {
	t.Helper()
	p := tech.Default()
	nl := gen.TiledChip(p, gen.DefaultTiledChip(n))
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{Workers: 1})
	res, err := core.Analyze(context.Background(), nl, m, clocks.TwoPhase(200, 0.8), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// readEqual reads n paths from c and requires want[from:from+n], bit for
// bit; with n past the end of a design's whole population (exhausted),
// the cursor must end exactly there.
func readEqual(t *testing.T, what string, c *Cursor, want []Path, from, n int, exhausted bool) {
	t.Helper()
	for i := from; i < from+n; i++ {
		p, ok := c.Next()
		if i == len(want) {
			if ok || !exhausted {
				t.Fatalf("%s: rank %d: ok=%v past the %d paths New yields", what, i+1, ok, len(want))
			}
			return
		}
		if !ok {
			t.Fatalf("%s: cursor ended at rank %d, New yields %d paths", what, i+1, len(want))
		}
		if err := samePath(p, want[i]); err != nil {
			t.Fatalf("%s: rank %d: %v", what, i+1, err)
		}
	}
}

// TestRankingMatchesGenerator: cursors over one ranking return exactly
// New(res)'s sequence, bit for bit, however their reads interleave — on
// the path-oracle circuits at every corner and on a 10k tiled chip, whose
// reads stop 1,000 paths on. Three cursors read round-robin from a fresh
// ranking, the first read past its empty prefix, stopping at 3, at 10,
// and halfway. Then a cursor opened on the ranking and the one that
// stopped at 3 both read to the end, past the prefix: their own searches
// replay the published ranks without publishing them again. A ranking
// whose prefix ends inside a tie group continues the group in order. The
// four cursors build at most one search each.
func TestRankingMatchesGenerator(t *testing.T) {
	type design struct {
		name  string
		res   *core.Result
		limit int // paths read; past the population for the oracle circuits
	}
	var designs []design
	for _, topo := range []struct {
		name  string
		build func(b *gen.B)
	}{{"latch-pipeline", latchPipeline}, {"ripple-adder", reconvergent}, {"scc-pass", sccPass}} {
		for _, c := range corners3() {
			designs = append(designs, design{topo.name + "/" + c.Name, prep(t, topo.build, c, 1), math.MaxInt32})
		}
	}
	designs = append(designs, design{"tiled-10k", tiledResult(t, 10_000), 1000})
	splitGroups := 0
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			want, groups := generated(d.res, d.limit)
			if len(want) == 0 {
				t.Fatal("no paths")
			}
			// total reads every path wanted and, when that is the whole
			// population, one more to see the end.
			exhausted := len(want) < d.limit
			total := len(want)
			if exhausted {
				total++
			}
			searches := obs.NewRegistry().Counter("searches", "")
			r := NewRanking(d.res, searches)
			stops := []int{3, 10, total / 2}
			cursors := []*Cursor{r.Cursor(), r.Cursor(), r.Cursor()}
			read := make([]int, len(cursors))
			for progressed := true; progressed; {
				progressed = false
				for ci, c := range cursors {
					if read[ci] < min(stops[ci], total) {
						readEqual(t, fmt.Sprintf("cursor %d", ci), c, want, read[ci], 1, exhausted)
						read[ci]++
						progressed = true
					}
				}
			}
			readEqual(t, "late cursor", r.Cursor(), want, 0, total, exhausted)
			readEqual(t, "resumed cursor", cursors[0], want, read[0], total-read[0], exhausted)
			if got := searches.Value(); got > 4 {
				t.Fatalf("%d searches for 4 cursors", got)
			}
			if err := r.Verify(context.Background()); err != nil {
				t.Fatal(err)
			}

			// A prefix that ends inside a tie group: keep the group's
			// first path only.
			at := 0
			for _, n := range groups {
				if n > 1 {
					break
				}
				at += n
			}
			if at+1 >= len(want) {
				return
			}
			splitGroups++
			split := NewRanking(d.res, nil)
			split.settled = slices.Clone(r.settled[:at+1])
			readEqual(t, "cursor over a split group", split.Cursor(), want, 0, total, exhausted)
			if err := split.Verify(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if splitGroups == 0 {
		t.Fatal("no design settled a tie group of two or more paths")
	}
}

// TestRankingConcurrentReaders: goroutines drain cursors of one fresh
// ranking while others read the prefix published so far and verify it;
// every read is New's path at its rank. Run it with -race -count=10.
func TestRankingConcurrentReaders(t *testing.T) {
	res := tiledResult(t, 3000)
	const n = 150
	want, _ := generated(res, n)
	if len(want) < n {
		t.Fatalf("%d paths, want %d", len(want), n)
	}
	r := NewRanking(res, nil)
	var wg sync.WaitGroup
	var drained atomic.Int32
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer drained.Add(1)
			c := r.Cursor()
			for i := range n {
				p, ok := c.Next()
				if !ok {
					t.Errorf("drain: cursor ended at rank %d", i+1)
					return
				}
				if err := samePath(p, want[i]); err != nil {
					t.Errorf("drain: rank %d: %v", i+1, err)
					return
				}
			}
		}()
	}
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for drained.Load() < 3 {
				settled, _ := r.prefix()
				c := r.Cursor()
				for i := range min(len(settled), n) {
					p, _ := c.Next()
					if err := samePath(p, want[i]); err != nil {
						t.Errorf("prefix read: rank %d: %v", i+1, err)
						return
					}
				}
				if err := r.Verify(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRankingVerifyReportsAlteredStep: Verify passes a ranking as read,
// and reports the rank of a settled path one of whose steps is altered —
// its arc swapped for another arc into the same node.
func TestRankingVerifyReportsAlteredStep(t *testing.T) {
	res := tiledResult(t, 3000)
	r := NewRanking(res, nil)
	c := r.Cursor()
	for range 10 {
		if _, ok := c.Next(); !ok {
			t.Fatal("fewer than 10 paths")
		}
	}
	ctx := context.Background()
	if err := r.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	alter := func(p *settledPath) bool {
		for j, a := range p.arcs {
			if a < 0 {
				break
			}
			for _, alt := range res.ArcsInto(res.Model.Arc(a).To) {
				if alt != a {
					p.arcs = slices.Clone(p.arcs)
					p.arcs[j] = alt
					return true
				}
			}
		}
		return false
	}
	if !alter(&r.settled[4]) {
		t.Fatal("rank 5 has no step to alter")
	}
	err := r.Verify(ctx)
	if err == nil || !strings.Contains(err.Error(), "rank 5:") {
		t.Fatalf("Verify of a ranking with an altered step at rank 5 returned %v", err)
	}
}
