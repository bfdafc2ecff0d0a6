package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// toyScale shrinks every workload to a 10k-transistor design and a few
// ops, so the whole harness runs in seconds.
var toyScale = config{
	tvTransistors:     10_000,
	daemonTransistors: 10_000,
	tvSetups:          2,
	tvdSetups:         2,
	editWarmup:        2,
	queryWarmup:       1,
}

// TestSmoke runs every workload at toy scale, untraced and traced. Each
// run must be correct and report exactly the metrics BENCHMARK.json
// declares for its mode, and every per-layer metric must be nonzero in
// some workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tv and tvd")
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if err := buildTools(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	cfg := toyScale
	cfg.tvGolden = toyGolden(t, ctx, bin, dir)

	reached := make(map[string]bool)
	for _, traced := range []bool{false, true} {
		for _, w := range sp.Workloads {
			e := &env{
				ctx: ctx, sp: sp, cfg: cfg, bin: bin,
				work:     filepath.Join(dir, "work"),
				traces:   filepath.Join(dir, "traces"),
				workload: w.Name, seed: 7, seconds: 200 * time.Millisecond, traced: traced,
			}
			r, err := e.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct {
				t.Fatalf("%s traced=%v: %d of %d ops failed: %v", w.Name, traced, r.Failed, r.Attempted, r.Errors)
			}
			if len(r.Metrics) != len(sp.metrics(traced)) {
				t.Fatalf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(r.Metrics), len(sp.metrics(traced)))
			}
			for _, m := range sp.metrics(traced) {
				if r.Metrics[m.Name].Value != 0 {
					reached[m.Name] = true
				} else if !traced || timeUnit[m.Unit] {
					// A time that reads 0 was not measured.
					t.Errorf("%s traced=%v: %s is 0", w.Name, traced, m.Name)
				}
			}
		}
	}
	// A count or ratio may be 0 everywhere (no apply reuses its wave plan
	// yet); a layer share no workload reaches means a span name went stale.
	for _, m := range sp.PerLayer {
		if m.Unit == "%" && !reached[m.Name] {
			t.Errorf("per-layer metric %s is 0 in every workload", m.Name)
		}
	}
}

var timeUnit = map[string]bool{"s": true, "ms": true, "us": true}

// toyGolden runs tv serially on the toy design, so the workload's runs at
// the default worker count must print the same bytes.
func toyGolden(t *testing.T, ctx context.Context, bin, dir string) golden {
	t.Helper()
	e := &env{ctx: ctx, bin: bin, work: filepath.Join(dir, "golden"), cfg: toyScale}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := e.generate(toyScale.tvTransistors, filepath.Join(e.work, tvSim)); err != nil {
		t.Fatal(err)
	}
	e.cfg.tvGolden = golden{exit: -1}
	res, _ := e.tvRun("-j", "1")
	if res.digest == "" {
		t.Fatal("tv -j 1 printed nothing")
	}
	return golden{digest: res.digest, exit: res.exit}
}
