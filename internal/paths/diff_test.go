package paths

import (
	"context"
	"errors"
	"os"
	"runtime"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/simfile"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// tutorialResult analyzes testdata/tutorial.sim with its first device's
// width scaled by wScale, so two calls give two versions of one design.
func tutorialResult(t *testing.T, wScale float64) *core.Result {
	t.Helper()
	f, err := os.Open("../../testdata/tutorial.sim")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nl, err := simfile.Read(f, "tutorial")
	if err != nil {
		t.Fatal(err)
	}
	nl.Trans[0].W *= wScale
	p := tech.Default()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{Workers: 1})
	res, err := core.Analyze(context.Background(), nl, m, clocks.TwoPhase(1000, 0.8), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDiffResultsLargeKAllocatesByPopulation: the k of a rank comparison
// sizes nothing. Asking for 1<<20 ranked paths on the 16-device tutorial
// design walks only the paths it has, so the whole diff allocates a
// small fraction of what one k-sized map would.
func TestDiffResultsLargeKAllocatesByPopulation(t *testing.T) {
	a, b := tutorialResult(t, 1), tutorialResult(t, 4)
	ctx := context.Background()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := DiffResults(ctx, a, b, nil, nil, 0, 1<<20)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Changed) == 0 {
		t.Fatal("resizing a device moved no arrival")
	}
	const limit = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("DiffResults with k=1<<20 allocated %d MiB, want under %d MiB", got>>20, limit>>20)
	}
}

// TestDiffResultsCanceled: a canceled context stops the rank walks with
// its error.
func TestDiffResultsCanceled(t *testing.T) {
	a, b := tutorialResult(t, 1), tutorialResult(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiffResults(ctx, a, b, nil, nil, 0, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled diff returned %v, want context.Canceled", err)
	}
	if _, err := DiffResults(ctx, a, b, nil, nil, 0, 0); err != nil {
		t.Fatalf("diff without a rank walk returned %v", err)
	}
}
