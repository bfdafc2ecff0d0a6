package paths

import (
	"context"
	"runtime"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// TestTopKStreamsLazily is the laziness guard from the acceptance
// criteria: pulling k=10000 paths from the 100k-transistor tiled chip
// must cost memory proportional to the explored search frontier, not to
// the design's path population (which is combinatorial — materializing
// it would not finish, let alone fit). The test bounds total bytes
// allocated while streaming and checks the stream is really emitting
// ranked paths the whole way.
func TestTopKStreamsLazily(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-transistor design; skipped in -short")
	}
	p := tech.Default()
	nl := gen.TiledChip(p, gen.DefaultTiledChip(100_000))
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{})
	res, err := core.Analyze(context.Background(), nl, m, clocks.TwoPhase(200, 0.8), core.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	g := New(res)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	const k = 10000
	prevSlack := 0.0
	for i := 0; i < k; i++ {
		path, ok := g.Next()
		if !ok {
			t.Fatalf("stream dried up at %d paths", i)
		}
		if path.Rank != i+1 {
			t.Fatalf("path %d: rank %d", i, path.Rank)
		}
		if len(path.Steps) == 0 {
			t.Fatalf("path %d: no steps", i)
		}
		// Worst-first: reported slacks never improve by more than the
		// FP guard between consecutive paths.
		if i > 0 && path.Slack < prevSlack-1e-9 {
			t.Fatalf("path %d: slack %v after %v — not worst-first", i, path.Slack, prevSlack)
		}
		prevSlack = path.Slack
	}

	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	const budget = 512 << 20
	if allocated > budget {
		t.Fatalf("streaming %d paths allocated %d MiB, budget %d MiB — generator is not lazy",
			k, allocated>>20, budget>>20)
	}
	t.Logf("streamed %d paths over %d nodes: %d MiB allocated", k, res.RiseAt.Len(), allocated>>20)
}
