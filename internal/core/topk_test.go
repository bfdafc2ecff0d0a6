package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// topkRow is a ranking row with few distinct slacks, so most rows tie on
// slack and the order rests on the index tiebreak, as in a tiled design.
type topkRow struct {
	slack float64
	idx   int
	pol   Polarity
	tag   int // offer order; not part of the order
}

func compareTopkRow(a, b topkRow) int {
	if a.slack != b.slack {
		if a.slack < b.slack {
			return -1
		}
		return 1
	}
	if a.idx != b.idx {
		return a.idx - b.idx
	}
	return int(a.pol) - int(b.pol)
}

// randomRows returns n distinct rows under compareTopkRow in random order.
func randomRows(rng *rand.Rand, n int) []topkRow {
	rows := make([]topkRow, 0, n)
	for _, i := range rng.Perm(n) {
		rows = append(rows, topkRow{
			slack: float64(rng.IntN(4)) - 1.5,
			idx:   i / 2,
			pol:   Polarity(i % 2),
			tag:   len(rows),
		})
	}
	return rows
}

// TestTopKMatchesSortTruncate: for random inputs dense in equal slacks,
// the selector returns exactly the rows, in exactly the order, of a full
// sort truncated to k, at k = 1, 2, n−1, n, n+1 and at k ≤ 0 (every row).
func TestTopKMatchesSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(60)
		rows := randomRows(rng, n)
		want := slices.Clone(rows)
		slices.SortFunc(want, compareTopkRow)
		for _, k := range []int{-1, 0, 1, 2, n - 1, n, n + 1} {
			top := NewTopK(k, compareTopkRow, nil)
			for _, r := range rows {
				top.Offer(r)
			}
			got := top.Sorted()
			w := want
			if k > 0 && k < n {
				w = want[:k]
			}
			if !slices.Equal(got, w) {
				t.Fatalf("trial %d n=%d k=%d:\n got %v\nwant %v", trial, n, k, got, w)
			}
		}
	}
	if got := NewTopK(3, compareTopkRow, nil).Sorted(); got != nil {
		t.Fatalf("empty selector returned %v, want nil", got)
	}
}

// TestTopKKeyedMatchesDedupeSortTruncate: with a key, the selector equals
// keeping each key's smallest row (the first offered on a tie) in a map,
// then sorting and truncating — the dedupe TopPaths used to do by hand.
// Rows of one key share its index, so ties within a key are exact.
func TestTopKKeyedMatchesDedupeSortTruncate(t *testing.T) {
	cmp := func(a, b topkRow) int {
		if a.slack != b.slack {
			if a.slack < b.slack {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	}
	key := func(r topkRow) int { return r.idx }
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(80)
		keys := 1 + rng.IntN(20)
		rows := make([]topkRow, n)
		for i := range rows {
			rows[i] = topkRow{slack: float64(rng.IntN(3)), idx: rng.IntN(keys), tag: i}
		}
		best := map[int]topkRow{}
		for _, r := range rows {
			if old, ok := best[r.idx]; !ok || r.slack < old.slack {
				best[r.idx] = r
			}
		}
		var want []topkRow
		for _, r := range best {
			want = append(want, r)
		}
		slices.SortFunc(want, cmp)
		m := len(want)
		for _, k := range []int{0, 1, 2, m - 1, m, m + 1} {
			top := NewTopK(k, cmp, key)
			for _, r := range rows {
				top.Offer(r)
			}
			got := top.Sorted()
			w := want
			if k > 0 && k < m {
				w = want[:k]
			}
			if !slices.Equal(got, w) {
				t.Fatalf("trial %d n=%d keys=%d k=%d:\n got %v\nwant %v", trial, n, keys, k, got, w)
			}
		}
	}
}

// TestTopKGrowsWithRowsNotK: a huge k allocates for the rows offered,
// not for k.
func TestTopKGrowsWithRowsNotK(t *testing.T) {
	for _, key := range []func(topkRow) int{nil, func(r topkRow) int { return r.idx }} {
		t.Run(fmt.Sprintf("keyed=%v", key != nil), func(t *testing.T) {
			allocs := testing.AllocsPerRun(10, func() {
				top := NewTopK(1<<40, compareTopkRow, key)
				for i := 0; i < 4; i++ {
					top.Offer(topkRow{slack: float64(i), idx: i})
				}
				if len(top.Sorted()) != 4 {
					t.Fatal("lost rows")
				}
			})
			if allocs > 10 {
				t.Fatalf("%v allocations for 4 rows", allocs)
			}
		})
	}
}
