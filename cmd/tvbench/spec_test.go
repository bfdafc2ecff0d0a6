package main

import (
	"maps"
	"regexp"
	"slices"
	"testing"
)

// TestSpecMatchesCode checks BENCHMARK.json against the harness: every
// workload it declares has a driver and every driver is declared; every
// metric has a well-formed name, a unit and a direction; end-to-end
// metrics carry a bound and per-layer ones none; and the per-layer
// metrics in % are exactly the shares of the layers a trace folds into.
// TestSmoke checks that the runs emit exactly the declared metrics.
func TestSpecMatchesCode(t *testing.T) {
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	seen := make(map[string]bool)
	for _, w := range sp.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why missing or over 200 characters", w.Name)
		}
		seen[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	for w := range workloads {
		if !seen[w] {
			t.Errorf("driver %s is not declared in BENCHMARK.json", w)
		}
	}
	var setupBound, maxBound float64
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound")
	}
	for _, m := range sp.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) ||
				(m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %+v: bad or repeated name, unit or direction", m)
			}
			seen[m.Name] = true
		}
	}
	// Every layer a trace folds into has its share declared, and every
	// declared share is a layer's or the unattributed rest.
	shares := map[string]bool{"op.unattributed_pct": true}
	for _, layer := range layers() {
		shares[layer+"_pct"] = true
	}
	declared := make(map[string]bool)
	for _, m := range sp.PerLayer {
		if m.Unit == "%" {
			declared[m.Name] = true
		}
	}
	if !maps.Equal(declared, shares) {
		t.Errorf("per-layer metrics in %%: %v; want the layer shares %v", slices.Sorted(maps.Keys(declared)), slices.Sorted(maps.Keys(shares)))
	}
}
