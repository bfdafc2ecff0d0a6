package main

import (
	"math"
	"reflect"
	"testing"
)

const all = math.MaxInt64

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{"analyze", 0, 0, 100},
		{"propagate", 0, 10, 40},
		{"level 3 (5)", 0, 12, 20},    // folds into propagate
		{"level worker 3", 1, 10, 40}, // another track: covered by propagate
		{"checks", 0, 50, 90},
		{"wave-plan", 0, 40, 50},
	}
	self := selfTimes(spans, -all, all)
	want := map[string]int64{
		"core.analyze":   100 - 30 - 40 - 10,
		"core.propagate": 30,
		"core.checks":    40,
		"core.wave_plan": 10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
}

// TestSelfTimesCrossTrack: spans on other tracks never reduce a track-0
// parent's self time, even when they cover all of it.
func TestSelfTimesCrossTrack(t *testing.T) {
	spans := []span{
		{"required", 0, 0, 100},
		{"level worker 0", 1, 0, 100},
		{"level worker 0", 2, 5, 95},
	}
	self := selfTimes(spans, -all, all)
	if self["core.required"] != 100 || len(self) != 1 {
		t.Errorf("self = %v, want core.required 100 only", self)
	}
}

// TestSelfTimesUnlisted: an unlisted span's time counts toward its
// nearest listed ancestor, and a root nobody lists counts nowhere.
func TestSelfTimesUnlisted(t *testing.T) {
	spans := []span{
		{"tvbench.measure", 0, 0, 1000},
		{"incr.restore", 0, 100, 600},
		{"full-analysis", 0, 110, 590},
		{"propagate", 0, 200, 300},
	}
	self := selfTimes(spans, -all, all)
	want := map[string]int64{"incr.restore": 400, "core.propagate": 100}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
}

// TestSelfTimesOpaque: the corner sweep runs its corners concurrently on
// one track, so their overlapping spans fold into the sweep.
func TestSelfTimesOpaque(t *testing.T) {
	spans := []span{
		{"corner-sweep", 0, 0, 100},
		{"analyze", 0, 5, 90},
		{"analyze", 0, 6, 95},
		{"propagate", 0, 10, 80},
		{"propagate", 0, 11, 85},
		{"required", 0, 100, 130},
	}
	self := selfTimes(spans, -all, all)
	want := map[string]int64{"slack.sweep": 100, "core.required": 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
}

func TestSelfTimesWindow(t *testing.T) {
	spans := []span{
		{"incr.slack", 0, 0, 10},
		{"tvbench.measure", 0, 20, 100},
		{"incr.slack", 0, 30, 40},
		{"incr.slack", 0, 95, 110},
	}
	self := selfTimes(spans, 20, 100)
	if self["incr.slack"] != 10 {
		t.Errorf("self = %v, want only the slack span inside [20,100]: 10", self)
	}
}

// TestReadRealTrace folds a trace tv -trace wrote for the tutorial
// netlist at three corners: every phase appears, no self time is
// negative, and the self times add up to the top-level spans.
func TestReadRealTrace(t *testing.T) {
	spans, err := readTraceFile("testdata/tv-trace.json")
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range spans {
		names[s.name] = true
		if s.end < s.start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, n := range []string{"parse", "stage-partition", "flow", "delay-build", "analyze", "propagate", "checks", "required", "corner-sweep"} {
		if !names[n] {
			t.Errorf("trace has no %q span", n)
		}
	}
	self := selfTimes(spans, -all, all)
	var sum int64
	for name, v := range self {
		if v < 0 {
			t.Errorf("%s self time %d < 0", name, v)
		}
		sum += v
	}
	// tv's top-level phases are all listed layers, so together they own
	// every nanosecond the top-level spans cover.
	var roots int64
	for i, s := range spans {
		top := s.tid == 0
		for j, p := range spans {
			if top && j != i && p.tid == 0 && p.start <= s.start && s.end <= p.end {
				top = false
			}
		}
		if top {
			roots += s.end - s.start
		}
	}
	if sum != roots {
		t.Errorf("self times sum to %d ns, top-level spans to %d", sum, roots)
	}
}
