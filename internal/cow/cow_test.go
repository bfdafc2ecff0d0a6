package cow

import (
	"slices"
	"testing"
)

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestCloneCopiesOnlyWrittenChunks: a clone shares every chunk with its
// source until it writes one, then owns a copy of that chunk alone, and
// the source keeps its values.
func TestCloneCopiesOnlyWrittenChunks(t *testing.T) {
	const n = 5*ChunkLen + 17
	a := From(seq(n))
	b := a.Clone()
	if got := b.SharedChunks(&a); got != a.NumChunks() || !b.Shared() {
		t.Fatalf("a fresh clone shares %d of %d chunks", got, a.NumChunks())
	}
	b.Set(2*ChunkLen+3, -1)
	*b.Mut(2*ChunkLen + 4) = -2
	b.Set(n-1, -3)
	if got, want := b.SharedChunks(&a), a.NumChunks()-2; got != want {
		t.Fatalf("after writes to two chunks the clone shares %d chunks, want %d", got, want)
	}
	if !slices.Equal(a.Slice(), seq(n)) {
		t.Fatal("a write to the clone changed its source")
	}
	want := seq(n)
	want[2*ChunkLen+3], want[2*ChunkLen+4], want[n-1] = -1, -2, -3
	if got := b.Slice(); !slices.Equal(got, want) {
		t.Fatal("the clone does not read its writes and its source's other values")
	}
	for i := range n {
		if b.At(i) != want[i] || *b.Ref(i) != want[i] {
			t.Fatalf("At/Ref(%d) = %d/%d, want %d", i, b.At(i), *b.Ref(i), want[i])
		}
	}
	if Equal(&a, &b, func(x, y int) bool { return x == y }) {
		t.Fatal("Equal misses a difference")
	}
	c := b.Clone()
	if !Equal(&b, &c, func(x, y int) bool { return x == y }) {
		t.Fatal("Equal differs on a clone")
	}
}

// TestGrowAndOwn: growing fills only the added elements, copying a
// shared last chunk first; Own copies a shared chunk once and leaves the
// array unshared once every chunk is owned.
func TestGrowAndOwn(t *testing.T) {
	a := Make(ChunkLen+5, 7)
	b := a.Clone()
	b.Grow(3*ChunkLen+1, 9)
	if a.Len() != ChunkLen+5 || b.Len() != 3*ChunkLen+1 || b.NumChunks() != 4 {
		t.Fatalf("lengths %d/%d, chunks %d", a.Len(), b.Len(), b.NumChunks())
	}
	for i := range b.Len() {
		want := 7
		if i >= ChunkLen+5 {
			want = 9
		}
		if b.At(i) != want {
			t.Fatalf("b[%d] = %d, want %d", i, b.At(i), want)
		}
	}
	if a.Chunk(1)[len(a.Chunk(1))-1] != 7 || len(a.Chunk(1)) != 5 {
		t.Fatal("growing the clone wrote its source's last chunk")
	}
	if !b.Shared() {
		t.Fatal("the clone's first chunk is its own before any write")
	}
	b.Own(3)
	b.Own(4)
	if b.Shared() || b.SharedChunks(&a) != 0 {
		t.Fatal("Own left a shared chunk")
	}
	var z Array[int]
	z.Grow(0, 1)
	if z.Len() != 0 || len(z.Slice()) != 0 {
		t.Fatal("an empty array is not empty")
	}
}
