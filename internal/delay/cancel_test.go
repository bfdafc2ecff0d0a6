package delay

import (
	"context"
	"errors"
	"testing"

	"nmostv/internal/faultpoint"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

func chainFixture(t *testing.T, n int) (*gen.B, tech.Params) {
	t.Helper()
	p := tech.Default()
	b := gen.New("t", p)
	b.Output(b.InvChain(b.Input("in"), n))
	return b, p
}

// TestBuildCtxPreCanceled: a canceled context aborts the build before
// any shard work, on both the serial and parallel paths.
func TestBuildCtxPreCanceled(t *testing.T) {
	b, p := chainFixture(t, 16)
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		m, err := BuildCtx(ctx, nl, st, p, Options{Workers: w})
		if !errors.Is(err, context.Canceled) || m != nil {
			t.Fatalf("workers=%d: BuildCtx = (%v, %v), want (nil, Canceled)", w, m, err)
		}
	}
}

// TestBuildWithCacheAbortKeepsEntries: an aborted cached build must NOT
// replace the cache's record — the last completed build stays in place,
// so the session's rolled-back state keeps its warm shards, and undoing
// the edit rebuilds nothing.
func TestBuildWithCacheAbortKeepsEntries(t *testing.T) {
	defer faultpoint.Reset()
	b, p := chainFixture(t, 16)
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	c := NewCache()
	if _, _, err := BuildWithCache(context.Background(), nl, st, p, Options{Workers: 1}, c, nil); err != nil {
		t.Fatal(err)
	}
	warm := c.last
	if warm == nil || warm.fps.Len() == 0 {
		t.Fatal("cache not primed by successful build")
	}

	// Invalidate every fingerprint (resize all devices), then abort the
	// rebuild through the shard fault point.
	for _, tr := range nl.Trans {
		tr.W *= 2
	}
	faultpoint.Arm("delay.build.shard", faultpoint.Action{Err: faultpoint.ErrInjected})
	m, _, err := BuildWithCache(context.Background(), nl, st, p, Options{Workers: 1}, c, nil)
	if !errors.Is(err, faultpoint.ErrInjected) || m != nil {
		t.Fatalf("aborted BuildWithCache = (%v, %v), want injected fault", m, err)
	}
	if c.last != warm {
		t.Fatal("abort replaced the cache's last build")
	}
	faultpoint.Reset()

	// Undo the resize: the untouched cache must hit again wholesale.
	for _, tr := range nl.Trans {
		tr.W /= 2
	}
	_, stats, err := BuildWithCache(context.Background(), nl, st, p, Options{Workers: 1}, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Rebuilt) != 0 {
		t.Fatalf("%d stages rebuilt after rollback, want 0 (cache should still be warm)", len(stats.Rebuilt))
	}
}
