package core

import (
	"math"
	"sync/atomic"
)

// Arena is reusable scratch memory for Analyze and AnalyzeIncremental:
// the per-analysis working set (wave-plan construction scratch, the
// forward passes' worklists, the relaxed-node list) is carved out of a
// handful of type-homogeneous blocks instead of being allocated
// slice-by-slice on every call. A session that passes the same Arena
// through Options.Arena pays the allocation cost once: after the first
// call at a given design size the blocks are capacity-stable and every
// subsequent analysis reuses them without growing
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
	boolBuf []bool
	bOff    int
	i32buf  []int32
	iOff    int
	// markBuf and bucketBuf back the worklists. Marks are never cleared:
	// each worklist marks with a stamp no earlier one on this arena used.
	markBuf   []atomic.Uint32
	mOff      int
	stamp     uint32
	bucketBuf [][]int32
	kOff      int
}

// begin resets the carve cursors for a new analysis call. Memory handed
// out during the previous call is either dead or — for DeltaStats.Relaxed
// — documented as valid only until the next call on the same arena. The
// stamps wrap only after billions of calls; the marks are cleared then.
func (ar *Arena) begin() {
	ar.bOff, ar.iOff, ar.mOff, ar.kOff = 0, 0, 0, 0
	if ar.stamp > math.MaxUint32-2 { // a call takes two stamps
		for i := range ar.markBuf {
			ar.markBuf[i].Store(0)
		}
		ar.stamp = 0
	}
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

// worklist carves an empty worklist over plan ws: its marks under a new
// stamp, and its buckets emptied but keeping their capacity, so a warm
// arena queues a cone of the usual size without allocating.
func (ar *Arena) worklist(ws *waveSchedule) *worklist {
	ar.stamp++
	w := &worklist{
		level:  ws.level,
		mark:   carve(&ar.markBuf, &ar.mOff, ws.numComps()),
		stamp:  ar.stamp,
		bucket: carve(&ar.bucketBuf, &ar.kOff, len(ws.levels)),
	}
	for i := range w.bucket {
		w.bucket[i] = w.bucket[i][:0]
	}
	return w
}
