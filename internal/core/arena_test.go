package core

import (
	"context"
	"testing"

	"nmostv/internal/gen"
	"nmostv/internal/tech"
)

// arenaLens snapshots the backing-block sizes of every arena pool, the
// worklist buckets' capacities included; equal snapshots across calls
// mean no block was regrown.
func arenaLens(ar *Arena) [5]int {
	buckets := 0
	for _, b := range ar.bucketBuf {
		buckets += cap(b)
	}
	return [5]int{len(ar.boolBuf), len(ar.i32buf), len(ar.markBuf), len(ar.bucketBuf), buckets}
}

// TestArenaReuseNoGrowth pins the Options.Arena contract the incremental
// daemon relies on: after one warm AnalyzeIncremental call at a given
// design size, repeated calls on the same arena carve from
// capacity-stable blocks — no scratch growth, and results stay
// bit-identical to a fresh full analysis.
func TestArenaReuseNoGrowth(t *testing.T) {
	b := gen.New("arena", tech.Default())
	in := b.Input("in")
	b.Output(b.InvChain(in, 64))
	nl, m := pipeline(b)
	ctx := context.Background()

	ar := &Arena{}
	opt := Options{Workers: 1, Arena: ar}
	res, err := Analyze(ctx, nl, m, sched(), opt)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	// Dirty a source so every incremental pass re-relaxes the chain cone —
	// the arena must absorb the full dirty-walk working set, not just the
	// no-op path.
	seed := []int32{int32(in.Index)}

	res, _, err = AnalyzeIncremental(ctx, nl, m, sched(), opt, res, seed)
	if err != nil {
		t.Fatalf("warm AnalyzeIncremental: %v", err)
	}
	warm := arenaLens(ar)
	for i := 0; i < 5; i++ {
		res, _, err = AnalyzeIncremental(ctx, nl, m, sched(), opt, res, seed)
		if err != nil {
			t.Fatalf("AnalyzeIncremental %d: %v", i, err)
		}
		if got := arenaLens(ar); got != warm {
			t.Fatalf("arena grew on reuse call %d: blocks %v, want %v", i, got, warm)
		}
	}

	// The arena-backed result must be bit-identical to an arena-free full
	// analysis of the same state.
	ref, err := Analyze(ctx, nl, m, sched(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("reference Analyze: %v", err)
	}
	for i := range nl.Nodes {
		if res.RiseAt.At(i) != ref.RiseAt.At(i) || res.FallAt.At(i) != ref.FallAt.At(i) {
			t.Fatalf("node %d settle diverged: (%v,%v) vs (%v,%v)",
				i, res.RiseAt.At(i), res.FallAt.At(i), ref.RiseAt.At(i), ref.FallAt.At(i))
		}
		if res.EarlyRise.At(i) != ref.EarlyRise.At(i) || res.EarlyFall.At(i) != ref.EarlyFall.At(i) {
			t.Fatalf("node %d early diverged", i)
		}
	}
}

// TestAnalyzeIncrementalArenaAllocsBounded guards the steady-state
// allocation count of an arena-backed incremental call: the scratch
// working set comes from the arena, so what remains is the published
// Result (two array blocks plus bookkeeping) and the check maps — a
// small constant independent of design size. Without the arena the same
// call allocates the full O(n) scratch set every time.
func TestAnalyzeIncrementalArenaAllocsBounded(t *testing.T) {
	b := gen.New("arena", tech.Default())
	in := b.Input("in")
	b.Output(b.InvChain(in, 256))
	nl, m := pipeline(b)
	ctx := context.Background()

	ar := &Arena{}
	opt := Options{Workers: 1, Arena: ar}
	res, err := Analyze(ctx, nl, m, sched(), opt)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	seed := []int32{int32(in.Index)}
	res, _, err = AnalyzeIncremental(ctx, nl, m, sched(), opt, res, seed)
	if err != nil {
		t.Fatalf("warm AnalyzeIncremental: %v", err)
	}
	const limit = 64 // generous 2× headroom over the measured constant
	avg := testing.AllocsPerRun(10, func() {
		var aerr error
		res, _, aerr = AnalyzeIncremental(ctx, nl, m, sched(), opt, res, seed)
		if aerr != nil {
			t.Fatalf("AnalyzeIncremental: %v", aerr)
		}
	})
	if avg > limit {
		t.Fatalf("arena-backed AnalyzeIncremental allocated %v times per call, want <= %d", avg, limit)
	}
}
