package core

import (
	"fmt"
	"slices"
	"sync"
)

// Ranker describes one version's ranking to a Prefix: a total order over
// rows in which every row belongs to one node.
type Ranker[T any] interface {
	// Nodes returns the number of nodes.
	Nodes() int
	// Rows appends node i's rows to out.
	Rows(i int, out []T) []T
	// Node returns the node a row belongs to.
	Node(x T) int
	// Compare is the ranking's order.
	Compare(x, y T) int
}

// A scan keeps at least minRows rows, so that a version after it derives
// from more rows than a small read asked for, and the changes that move a
// few of them past the cut still leave a prefix that serves the read. A
// version derives its prefix from at most the first minRows rows of the
// previous version's: deriving costs a row per row and node it visits, so
// a prefix that grew over many versions, or a large read, would otherwise
// make every later version's first read pay for it. A read past a derived
// prefix scans.
const minRows = 1 << 6

// Prefix memoizes one published version's ranking as its worst-first
// prefix: rows[i] is the ranking's (i+1)-th row, and all reports that the
// rows are the whole ranking. A read of the first k rows is served from
// the prefix when it holds them (Read).
//
// A version whose rows differ from the previous version's only at known
// nodes derives its prefix from the previous one instead of scanning
// (Extend): rows of the other nodes are unchanged, so the previous rows
// that sort at or before the previous prefix's last row, recomputed,
// together with the changed nodes' rows that sort there, are exactly the
// new ranking's rows up to that row. The prefix keeps the previous rows
// only until its first read derives from them, so versions never chain.
// Safe for concurrent use; rows a read returns are never written again.
type Prefix[T any] struct {
	mu   sync.Mutex
	rows []T
	all  bool
	base *prefixBase[T]
}

// prefixBase is what a first read derives a prefix from: the previous
// version's prefix and the nodes whose rows can differ from its version.
type prefixBase[T any] struct {
	rows    []T
	all     bool
	changed [][]int32
}

// Built returns the rows reads have built so far, shared, and whether they
// are the whole ranking.
func (p *Prefix[T]) Built() (rows []T, all bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rows, p.all
}

// Extend makes the first read of p derive it from prev, the previous
// version's prefix as built now (cut to its first minRows rows), and
// changed, lists of the nodes whose rows can differ between the two
// versions (in any order, repeats allowed). A prev that has built nothing
// leaves p to scan. Call it before p is published.
func (p *Prefix[T]) Extend(prev *Prefix[T], changed ...[]int32) {
	prev.mu.Lock()
	rows, all := prev.rows, prev.all
	prev.mu.Unlock()
	if len(rows) > minRows {
		rows, all = rows[:minRows], false
	}
	if len(rows) == 0 && !all {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.base = &prefixBase[T]{rows: rows, all: all, changed: changed}
}

// keep copies into p, which no read reaches, what Extend reads of src: a
// carrier of a previous version's prefix.
func (p *Prefix[T]) keep(src *Prefix[T]) {
	src.mu.Lock()
	defer src.mu.Unlock()
	p.rows, p.all = src.rows, src.all
}

// Read returns the ranking's first k rows (every row when k ≤ 0), worst
// first, and whether it scanned every node to get them. The first read
// derives the prefix when Extend gave it a base; a read scans only when k
// is past the prefix or there is no base. Concurrent reads share one
// derivation or scan. The rows are shared: callers must not modify them.
func (p *Prefix[T]) Read(k int, rk Ranker[T]) (rows []T, scanned bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := p.base; b != nil {
		p.base = nil
		p.rows, p.all = b.derive(rk)
	}
	if !p.all && (k <= 0 || k > len(p.rows)) {
		n := k
		if k > 0 {
			n = max(k, minRows)
		}
		p.rows = topRows(n, rk)
		p.all = k <= 0 || len(p.rows) < n
		scanned = true
	}
	rows = p.rows
	if k > 0 && k < len(rows) {
		rows = rows[:k:k]
	}
	return rows, scanned
}

// Verify compares the prefix built so far with a fresh scan of rk row by
// row under same; a prefix that holds the whole ranking must end where
// the scan ends. A prefix that has built nothing passes at no cost.
func (p *Prefix[T]) Verify(rk Ranker[T], same func(x, y T) bool) error {
	rows, all := p.Built()
	if len(rows) == 0 && !all {
		return nil
	}
	k := len(rows)
	if all {
		k = 0
	}
	want := topRows(k, rk)
	for i := range min(len(rows), len(want)) {
		if !same(rows[i], want[i]) {
			return fmt.Errorf("rank %d is %v, a fresh scan's %v", i+1, rows[i], want[i])
		}
	}
	if len(rows) != len(want) {
		return fmt.Errorf("the prefix holds %d rows, a fresh scan %d", len(rows), len(want))
	}
	return nil
}

// topRows selects the k smallest rows of every node's (every row when
// k ≤ 0) in one pass.
func topRows[T any](k int, rk Ranker[T]) []T {
	top := NewTopK(k, rk.Compare, nil)
	var buf []T
	for i := range rk.Nodes() {
		buf = rk.Rows(i, buf[:0])
		for _, x := range buf {
			top.Offer(x)
		}
	}
	return top.Sorted()
}

// derive returns the rows of the new version that sort at or before the
// base's last row (every row when the base is whole): the rows of the
// base's nodes and of the changed nodes, recomputed, that sort there, in
// order, each once.
func (b *prefixBase[T]) derive(rk Ranker[T]) ([]T, bool) {
	var last T
	if !b.all {
		last = b.rows[len(b.rows)-1]
	}
	out := make([]T, 0, len(b.rows)+minRows)
	var buf []T
	visit := func(i int) {
		buf = rk.Rows(i, buf[:0])
		for _, x := range buf {
			if b.all || rk.Compare(x, last) <= 0 {
				out = append(out, x)
			}
		}
	}
	for _, x := range b.rows {
		visit(rk.Node(x))
	}
	for _, nodes := range b.changed {
		for _, v := range nodes {
			visit(int(v))
		}
	}
	slices.SortFunc(out, rk.Compare)
	return slices.CompactFunc(out, func(x, y T) bool { return rk.Compare(x, y) == 0 }), b.all
}
