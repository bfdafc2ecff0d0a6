package core

import (
	"context"
	"testing"

	"nmostv/internal/gen"
	"nmostv/internal/obs"
	"nmostv/internal/tech"
)

// settledPass runs a full Analyze over an inverter-chain design and
// returns the settle pass the engine runs from scratch — every component
// dirty — positioned on the settled fixpoint, instrumented through o.
// Relaxation is monotone and the arrivals are already at the fixpoint,
// so walking again performs the full read path of the hot loop (edge
// scans, window checks, comparisons) without writing — exactly the
// steady-state cost the alloc guards must bound.
func settledPass(tb testing.TB, chain int, o *obs.Obs) *pass {
	tb.Helper()
	b := gen.New("bench", tech.Default())
	in := b.Input("in")
	b.Output(b.InvChain(in, chain))
	nl, m := pipeline(b)
	res, err := Analyze(context.Background(), nl, m, sched(), Options{Workers: 1})
	if err != nil {
		tb.Fatalf("Analyze: %v", err)
	}
	a := &analysis{Result: res, opt: Options{Workers: 1, Obs: o}.withDefaults(), ctx: context.Background()}
	a.initMetrics()
	// res's arrivals are the settled fixpoint, its sources anchored.
	return &pass{analysis: a, kind: settlePass, val: res.settleVals()}
}

// walkAllocs returns the allocations per settle pass over a chain of the
// given length, measured once warm (for a bounded tracer, once it has
// saturated and takes the drop path).
func walkAllocs(t *testing.T, chain int, o *obs.Obs) float64 {
	t.Helper()
	p := settledPass(t, chain, o)
	p.walk()
	if tr := o.Tracer(); tr != nil {
		for tr.Dropped() == 0 {
			p.walk()
		}
	}
	return testing.AllocsPerRun(50, p.walk)
}

// assertWalkAllocs checks the contract every instrumentation setting
// keeps: a pass allocates the same at chain 32 as at chain 512 — nothing
// per level, component or node — and at most limit.
func assertWalkAllocs(t *testing.T, newObs func() *obs.Obs, limit float64) {
	t.Helper()
	small, large := walkAllocs(t, 32, newObs()), walkAllocs(t, 512, newObs())
	if small != large || large > limit {
		t.Fatalf("settle pass allocated %v times at chain 32 and %v at chain 512, want the same and <= %v", small, large, limit)
	}
}

// TestWavefrontDisabledObsZeroAlloc asserts the instrumentation contract
// documented on walk: with Obs nil, a pass — level iteration, counter
// updates, and per-node relaxation — allocates nothing. The counters
// degrade to nil-receiver no-ops and span construction is gated on the
// tracer, so disabled observability costs two nil checks per level and
// nothing per node.
func TestWavefrontDisabledObsZeroAlloc(t *testing.T) {
	assertWalkAllocs(t, func() *obs.Obs { return nil }, 0)
}

// TestWavefrontEnabledCountersZeroAlloc asserts the same for metrics-only
// instrumentation (registry attached, no tracer) — the daemon's steady
// state. Handles are pre-resolved by initMetrics, so the walk itself is
// atomic increments only.
func TestWavefrontEnabledCountersZeroAlloc(t *testing.T) {
	p := settledPass(t, 32, obs.NewObs())
	if p.mLevels == nil || p.mComps == nil {
		t.Fatal("counters not resolved")
	}
	assertWalkAllocs(t, obs.NewObs, 0)
}

// TestWavefrontRecorderOnAllocBounded asserts the flight-recorder
// contract: with a bounded per-request tracer attached (the recorder's
// configuration), the walk's extra cost is one pooled span per level —
// and once the tracer saturates, the drop path — so the steady-state walk
// stays allocation-free whatever the design's depth. This is what lets
// the recorder ride along on every request without perturbing the engine
// it is observing.
func TestWavefrontRecorderOnAllocBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; alloc counts are meaningless")
	}
	recorder := func() *obs.Obs {
		return &obs.Obs{Reg: obs.NewRegistry(), Tr: obs.NewTracerBounded(obs.DefaultSpanLimit)}
	}
	assertWalkAllocs(t, recorder, 0.25)
	o := recorder()
	walkAllocs(t, 32, o)
	if n := o.Tr.Len(); n != obs.DefaultSpanLimit {
		t.Fatalf("tracer recorded %d spans, want cap %d", n, obs.DefaultSpanLimit)
	}
}

func BenchmarkPropagateDisabledObs(b *testing.B) {
	p := settledPass(b, 64, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.walk()
	}
}
