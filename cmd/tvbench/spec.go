package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json: the run length, the workloads, and every
// metric's unit, direction and regression bound. tvbench reads it at
// start, so the file and the code cannot drift apart; TestSpecMatchesCode
// and TestSmoke check that they name the same workloads and metrics.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds <= 0 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds, workloads, end_to_end and per_layer must be set")
	}
	return &s, nil
}

// metrics returns the metrics a run reports: the end-to-end ones, or the
// per-layer ones for a traced run.
func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// findRoot walks up from dir to the checkout root, the directory holding
// BENCHMARK.json.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory; pass -root")
		}
		dir = parent
	}
}
