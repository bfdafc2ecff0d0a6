package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/tech"
)

// TestAnalyzePreCanceled: a context canceled before the walk starts
// aborts the analysis immediately with the context's error.
func TestAnalyzePreCanceled(t *testing.T) {
	b := gen.New("t", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 8))
	nl, m := pipeline(b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Analyze(ctx, nl, m, sched(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Analyze = %v, want context.Canceled", err)
	}
}

// TestAnalyzeDeadlineAbortsWalk: with the per-level fault point stalling
// the wavefront, a deadline shorter than the total walk aborts it partway
// through — on both the serial and parallel paths.
func TestAnalyzeDeadlineAbortsWalk(t *testing.T) {
	defer faultpoint.Reset()
	b := gen.New("t", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 48))
	nl, m := pipeline(b)

	for _, workers := range []int{1, 4} {
		faultpoint.Reset()
		faultpoint.Arm("core.propagate.level", faultpoint.Action{Delay: 2 * time.Millisecond})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		res, err := Analyze(ctx, nl, m, sched(), Options{Workers: workers})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: Analyze = (%v, %v), want DeadlineExceeded", workers, res, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: aborted analysis returned a result", workers)
		}
		if faultpoint.Hits("core.propagate.level") == 0 {
			t.Fatalf("workers=%d: walk never reached the level fault point", workers)
		}
	}
}

// TestInjectedLevelFaultAborts: an injected error at a wavefront level
// surfaces from Analyze (wrapped, so the cause stays identifiable).
func TestInjectedLevelFaultAborts(t *testing.T) {
	defer faultpoint.Reset()
	b := gen.New("t", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 8))
	nl, m := pipeline(b)
	faultpoint.Arm("core.propagate.level", faultpoint.Action{Err: faultpoint.ErrInjected})
	if _, err := Analyze(context.Background(), nl, m, sched(), Options{}); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Analyze = %v, want injected fault", err)
	}
}

// TestAnalyzeIncrementalAbortKeepsPrev: an aborted incremental pass
// returns an error and must not have touched the previous result's
// arrays (the daemon republishes prev after a rollback).
func TestAnalyzeIncrementalAbortKeepsPrev(t *testing.T) {
	defer faultpoint.Reset()
	b := gen.New("t", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 16))
	nl, m := pipeline(b)
	prev, err := Analyze(context.Background(), nl, m, sched(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rise := prev.RiseAt.Slice()

	seed := make([]int32, len(nl.Nodes))
	for i := range seed {
		seed[i] = int32(i)
	}
	faultpoint.Arm("core.propagate.level", faultpoint.Action{Err: faultpoint.ErrInjected})
	_, _, err = AnalyzeIncremental(context.Background(), nl, m, sched(), Options{}, prev, seed)
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("AnalyzeIncremental = %v, want injected fault", err)
	}
	for i := range rise {
		if prev.RiseAt.At(i) != rise[i] {
			t.Fatalf("aborted incremental pass mutated prev.RiseAt[%d]", i)
		}
	}
}
