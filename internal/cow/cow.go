// Package cow holds the chunked copy-on-write array every per-version
// array of an analysis lives in: a model's arcs and caps, an analysis's
// arrivals and predecessor records, a backward pass's required times and
// a merged view's worst slacks.
//
// An Array is a table of fixed-size chunks. Clone copies only the table,
// so the clone shares every chunk with its source, and the first write to
// a shared chunk copies just that chunk. A new version made by cloning
// the previous one and writing the nodes its cone moved therefore costs
// the table plus the chunks the cone wrote, and shares the rest with the
// previous version and every version still held (a history ring, an open
// path stream, a rollback point). A version is published once its writer
// is done with it and is never written again, so readers of any version
// need no lock.
//
// An Array value is a reference, like a slice: copies of it share the
// table and write to the same chunks. Only Clone makes an independent
// version. An Array is not safe for concurrent writes unless every chunk
// they write is owned already (Own): a write to a shared chunk replaces
// the table entry.
package cow

import "slices"

// Shift sets the chunk length, 1<<Shift elements. A single-device edit
// of a 100k-transistor chip moves about a hundred nodes and seventy arcs
// spread over two or three node chunks and six to eight arc chunks of
// this length, so a version copies tens of kilobytes where one 4096
// element chunk per touch would copy four times as much; the table stays
// a thousand pointers at a million nodes.
const Shift = 10

// ChunkLen is the number of elements per chunk.
const ChunkLen = 1 << Shift

const mask = ChunkLen - 1

// Array is a chunked copy-on-write array of T. The zero value is an
// empty array.
type Array[T any] struct {
	chunks []*[ChunkLen]T
	// own[c] reports that chunk c belongs to this array alone, so a write
	// may go to it in place; shared counts the chunks that do not.
	own    []bool
	shared int
	n      int
}

// Make returns an array of n elements, each fill, owning every chunk.
func Make[T any](n int, fill T) Array[T] {
	var a Array[T]
	a.Grow(n, fill)
	return a
}

// From returns an array holding a copy of s.
func From[T any](s []T) Array[T] {
	var zero T
	a := Make(len(s), zero)
	for c := range a.chunks {
		copy(a.chunks[c][:], s[c<<Shift:])
	}
	return a
}

// Len returns the number of elements.
func (a *Array[T]) Len() int { return a.n }

// At returns element i.
func (a *Array[T]) At(i int) T { return a.chunks[i>>Shift][i&mask] }

// Ref returns a pointer to element i for reading. Writing through it
// would write every version sharing the chunk; use Set or Mut.
func (a *Array[T]) Ref(i int) *T { return &a.chunks[i>>Shift][i&mask] }

// Set writes element i, copying its chunk first if it is shared.
func (a *Array[T]) Set(i int, v T) {
	c := i >> Shift
	if a.shared > 0 && !a.own[c] {
		a.copyChunk(c)
	}
	a.chunks[c][i&mask] = v
}

// Mut returns a writable pointer to element i, copying its chunk first
// if it is shared.
func (a *Array[T]) Mut(i int) *T {
	c := i >> Shift
	if a.shared > 0 && !a.own[c] {
		a.copyChunk(c)
	}
	return &a.chunks[c][i&mask]
}

// Own makes the chunk holding element i this array's own, copying it if
// it is shared, so later writes to it neither copy nor touch the table.
func (a *Array[T]) Own(i int) {
	if c := i >> Shift; a.shared > 0 && !a.own[c] {
		a.copyChunk(c)
	}
}

// Shared reports whether some chunk is shared with another version.
func (a *Array[T]) Shared() bool { return a.shared > 0 }

func (a *Array[T]) copyChunk(c int) {
	cp := *a.chunks[c]
	a.chunks[c] = &cp
	a.own[c] = true
	a.shared--
}

// Clone returns a new version of a: it shares every chunk with a and owns
// none, so its first write to each chunk copies that chunk. a must not be
// written afterwards while the clone is live, except through chunks it
// copies.
func (a *Array[T]) Clone() Array[T] {
	return Array[T]{
		chunks: append([]*[ChunkLen]T(nil), a.chunks...),
		own:    make([]bool, len(a.chunks)),
		shared: len(a.chunks),
		n:      a.n,
	}
}

// Grow extends the array to n elements, the added ones fill; a shorter n
// leaves it as it is. The tail of the last chunk is written in place only
// when the array owns that chunk.
func (a *Array[T]) Grow(n int, fill T) {
	if n <= a.n {
		return
	}
	nc := (n + mask) >> Shift
	a.chunks = slices.Grow(a.chunks, nc-len(a.chunks))
	a.own = slices.Grow(a.own, nc-len(a.own))
	for a.n < n {
		if a.n&mask == 0 {
			a.chunks = append(a.chunks, new([ChunkLen]T))
			a.own = append(a.own, true)
		}
		c := a.n >> Shift
		end := min(n, (c+1)<<Shift)
		if !a.own[c] {
			a.copyChunk(c)
		}
		fillRange(a.chunks[c][a.n&mask:(end-1)&mask+1], fill)
		a.n = end
	}
}

func fillRange[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// NumChunks returns the number of chunks.
func (a *Array[T]) NumChunks() int { return len(a.chunks) }

// Chunk returns chunk c's elements, elements c<<Shift onwards, for
// reading: the last chunk is cut at Len. Whole-array scans go chunk by
// chunk through it.
func (a *Array[T]) Chunk(c int) []T {
	return a.chunks[c][:min(ChunkLen, a.n-c<<Shift)]
}

// Slice returns a copy of the elements as one slice.
func (a *Array[T]) Slice() []T {
	s := make([]T, 0, a.n)
	for c := range a.chunks {
		s = append(s, a.Chunk(c)...)
	}
	return s
}

// SameChunk reports whether a and b hold the same chunk c, by identity:
// then they hold the same values there. A c past either's end is not.
func (a *Array[T]) SameChunk(b *Array[T], c int) bool {
	return c < len(a.chunks) && c < len(b.chunks) && a.chunks[c] == b.chunks[c]
}

// SharedChunks counts the chunks a and b hold in common, by identity.
func (a *Array[T]) SharedChunks(b *Array[T]) int {
	k := 0
	for c := range min(len(a.chunks), len(b.chunks)) {
		if a.SameChunk(b, c) {
			k++
		}
	}
	return k
}

// Equal reports whether a and b hold equal elements under eq.
func Equal[T any](a, b *Array[T], eq func(x, y T) bool) bool {
	if a.n != b.n {
		return false
	}
	for c := range a.chunks {
		if a.chunks[c] == b.chunks[c] {
			continue
		}
		x, y := a.Chunk(c), b.Chunk(c)
		for i := range x {
			if !eq(x[i], y[i]) {
				return false
			}
		}
	}
	return true
}
