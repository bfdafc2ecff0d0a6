package core

import "sync/atomic"

// Arena is reusable scratch memory for Analyze and AnalyzeIncremental:
// the per-analysis working set (source-fix masks, dirty seeds, wave-plan
// construction scratch, per-component dirty flags, check masks) is
// carved out of a handful of type-homogeneous blocks instead of being
// allocated slice-by-slice on every call. A session that passes the same
// Arena through Options.Arena pays the allocation cost once: after the
// first call at a given design size the blocks are capacity-stable and
// every subsequent analysis reuses them without growing
// (TestArenaReuseNoGrowth pins this).
//
// An Arena is NOT safe for concurrent use: it may back at most one
// analysis at a time. The incremental daemon owns one per session, which
// is exactly the single-writer discipline its admission control already
// enforces. Result arrays (arrivals, predecessors) are never carved from
// the arena — they escape into the published Result and must survive the
// next call — so published results stay immutable as before.
//
// The zero value is ready to use; a nil Options.Arena makes every call
// allocate a private one, which degenerates to the old per-call
// allocation behavior.
type Arena struct {
	boolBuf  []bool
	bOff     int
	i32buf   []int32
	iOff     int
	dirtyBuf []atomic.Bool
	dOff     int
}

// begin resets the carve cursors for a new analysis call. Memory handed
// out during the previous call is either dead or — for DeltaStats.Relaxed
// — documented as valid only until the next call on the same arena.
func (ar *Arena) begin() {
	ar.bOff, ar.iOff, ar.dOff = 0, 0, 0
}

// carve slices n elements off a type-homogeneous block, growing the block
// when the running total exceeds its capacity. A mid-call grow strands the
// earlier carves on the previous backing array — harmless, they stay valid
// — and sizes the new block at twice the running total, so the *next* call
// runs entirely inside one block and stops allocating.
func carve[T any](buf *[]T, off *int, n int) []T {
	if *off+n > len(*buf) {
		*buf = make([]T, 2*(*off+n))
	}
	s := (*buf)[*off : *off+n : *off+n]
	*off += n
	return s
}

// bools carves n cleared bools.
func (ar *Arena) bools(n int) []bool {
	s := carve(&ar.boolBuf, &ar.bOff, n)
	for i := range s {
		s[i] = false
	}
	return s
}

// int32s carves n int32s, contents unspecified (callers fill).
func (ar *Arena) int32s(n int) []int32 {
	return carve(&ar.i32buf, &ar.iOff, n)
}

// atomicBools carves n cleared atomic flags.
func (ar *Arena) atomicBools(n int) []atomic.Bool {
	s := carve(&ar.dirtyBuf, &ar.dOff, n)
	for i := range s {
		s[i].Store(false)
	}
	return s
}
