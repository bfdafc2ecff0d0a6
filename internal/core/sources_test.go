package core_test

import (
	"context"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/incr"
	"nmostv/internal/tech"
)

// TestSizeEditsKeepSources pins the sources+storage reuse across a size
// edit: a resize and a setcap change nothing the classification reads,
// so the session's next result keeps the previous result's arrays — the
// same backing — while an annotate derives them again. The session,
// corners included, must still equal a from-scratch analysis after each
// edit. (TestAnalyzeSharedPlanBitIdentical pins that a corner takes its
// base's arrays.)
func TestSizeEditsKeepSources(t *testing.T) {
	ctx := context.Background()
	p := tech.Default()
	b := gen.New("keep", p)
	phi1, phi2 := b.Clock("phi1", 1), b.Clock("phi2", 2)
	in := b.Input("in")
	mid := b.Inverter(in)
	out := b.Output(b.ShiftRegister(mid, phi1, phi2, 4))
	nl := b.Finish()
	s, err := incr.New(ctx, "keep", nl, incr.Options{
		Params: p, Sched: clocks.TwoPhase(200, 0.8), Corners: tech.Corners()})
	if err != nil {
		t.Fatal(err)
	}
	dev := mid.Terms[0]
	shares := func(a, b *core.Result) bool {
		ar, af, as := core.SourceArrays(a)
		br, bf, bs := core.SourceArrays(b)
		return &ar[0] == &br[0] && &af[0] == &bf[0] && &as[0] == &bs[0]
	}
	for _, step := range []struct {
		delta incr.Delta
		keep  bool
	}{
		{incr.Delta{Op: "resize", ID: dev.ID, W: 2 * dev.W}, true},
		{incr.Delta{Op: "setcap", Node: out.Name, Cap: 0.2}, true},
		{incr.Delta{Op: "annotate", Node: mid.Name, Attrs: []string{"output"}}, false},
	} {
		before := s.Result()
		if _, err := s.Apply(ctx, []incr.Delta{step.delta}); err != nil {
			t.Fatalf("%s: %v", step.delta.Op, err)
		}
		after := s.Result()
		if got := shares(before, after); got != step.keep {
			t.Fatalf("%s: kept the previous sources+storage arrays %v, want %v", step.delta.Op, got, step.keep)
		}
		if err := s.SelfCheck(ctx); err != nil {
			t.Fatalf("%s: %v", step.delta.Op, err)
		}
	}
}
