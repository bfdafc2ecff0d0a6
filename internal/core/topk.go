package core

import "slices"

// TopK is the bounded selector behind every ranked read: the slack
// rankings, the merged corner ranking and TopPaths. It keeps the k
// smallest rows offered to it under cmp in one pass, as a max-heap of at
// most k rows whose root is the worst row kept, so a row that cannot
// make the cut costs one comparison and a ranking costs one pass over
// its candidates plus O(k log k). Storage grows with the rows kept and
// is never sized by k up front, so any k a client asks for is safe.
//
// cmp must be a total order over the rows offered (every ranking breaks
// slack ties by node index, then polarity). The k smallest rows are then
// unique, and Sorted returns exactly the rows, in exactly the order, that
// sorting every candidate and truncating to k would. k ≤ 0 keeps every
// row and sorts them all.
//
// With a key function, TopK keeps at most one row per key: the smallest
// under cmp, the first offered on a tie. A row no smaller than the worst
// kept row is dropped without a lookup, which is exact: its key's kept
// row, if any, is no larger, and otherwise k rows of other keys already
// beat it. The key index therefore holds only the keys of kept rows.
type TopK[T any] struct {
	k    int
	cmp  func(a, b T) int
	key  func(T) int
	rows []T
	pos  map[int]int // key → index in rows; nil without a key function
}

// NewTopK returns a selector for the k smallest rows under cmp. key may
// be nil; otherwise rows are deduplicated by key as described on TopK.
func NewTopK[T any](k int, cmp func(a, b T) int, key func(T) int) *TopK[T] {
	t := &TopK[T]{k: k, cmp: cmp, key: key}
	if key != nil {
		t.pos = make(map[int]int)
	}
	return t
}

// Len returns the number of rows currently kept.
func (t *TopK[T]) Len() int { return len(t.rows) }

// Offer considers one row.
func (t *TopK[T]) Offer(x T) {
	full := t.k > 0 && len(t.rows) == t.k
	if full && t.cmp(x, t.rows[0]) >= 0 {
		return
	}
	if t.key != nil {
		kx := t.key(x)
		if i, ok := t.pos[kx]; ok {
			if t.cmp(x, t.rows[i]) < 0 {
				t.rows[i] = x
				t.down(i)
			}
			return
		}
		at := len(t.rows)
		if full {
			delete(t.pos, t.key(t.rows[0]))
			at = 0
		}
		t.pos[kx] = at
	}
	if full {
		t.rows[0] = x
		t.down(0)
		return
	}
	t.rows = append(t.rows, x)
	t.up(len(t.rows) - 1)
}

// Sorted returns the kept rows, smallest first; nil when none were kept.
// The selector must not be offered rows afterwards.
func (t *TopK[T]) Sorted() []T {
	slices.SortFunc(t.rows, t.cmp)
	return t.rows
}

// The heap is maintained only for a bounded selector; with k ≤ 0 every
// row is kept and Sorted orders them, so up and down do nothing.

func (t *TopK[T]) up(i int) {
	if t.k <= 0 {
		return
	}
	for i > 0 {
		p := (i - 1) / 2
		if t.cmp(t.rows[i], t.rows[p]) <= 0 {
			return
		}
		t.swap(i, p)
		i = p
	}
}

func (t *TopK[T]) down(i int) {
	if t.k <= 0 {
		return
	}
	n := len(t.rows)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && t.cmp(t.rows[r], t.rows[c]) > 0 {
			c = r
		}
		if t.cmp(t.rows[c], t.rows[i]) <= 0 {
			return
		}
		t.swap(i, c)
		i = c
	}
}

func (t *TopK[T]) swap(i, j int) {
	t.rows[i], t.rows[j] = t.rows[j], t.rows[i]
	if t.pos != nil {
		t.pos[t.key(t.rows[i])] = i
		t.pos[t.key(t.rows[j])] = j
	}
}
