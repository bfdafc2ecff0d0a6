package main

import (
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	odd := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    int
		want float64
	}{{1, 1}, {200, 1}, {201, 2}, {250, 2}, {500, 3}, {750, 4}, {999, 5}, {1000, 5}} {
		if got := quantile(odd, c.q); got != c.want {
			t.Errorf("quantile(1..5, %d) = %v, want %v", c.q, got, c.want)
		}
	}
	// Nearest rank never interpolates: the median of an even sample is
	// its lower middle value.
	if got := quantile([]float64{4, 1, 3, 2}, 500); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
	if got := quantile([]float64{7}, 990); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	s := summarize([]float64{8, 7, 6, 5, 4, 3, 2, 1})
	if s.P25 != 2 || s.P50 != 4 || s.P75 != 6 || s.N != 8 {
		t.Errorf("summarize(1..8) = %+v, want p25 2, p50 4, p75 6, n 8", s)
	}
	if got := s.spread(); got != 1 {
		t.Errorf("spread = %v, want (6-2)/4 = 1", got)
	}
}

// TestTailQuantile checks the rule for reporting a tail: the highest
// percentile that still has at least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{
		{19, 0, false},
		{20, 500, true},   // 10 beyond the median
		{100, 900, true},  // p95 would leave 5
		{199, 900, true},  // p95 is rank 190, 9 beyond
		{200, 950, true},  // p95 is rank 190, 10 beyond
		{2000, 990, true}, // p99.9 would leave 2
		{10000, 999, true},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %d, %v; want %d, %v", c.n, q, ok, c.want, c.ok)
		}
	}
	if pname(950) != "p95" || pname(999) != "p99.9" {
		t.Errorf("pname(950), pname(999) = %s, %s", pname(950), pname(999))
	}
}

// TestCompare: a declared metric gets a verdict from its bound, a
// workload's detail row none, and only a worse declared metric fails the
// comparison.
func TestCompare(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "edit-100k"}},
		EndToEnd:  []metricSpec{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	runs := func(op, delta float64) []*run {
		var out []*run
		for i := range 4 {
			r := newRun("edit-100k", int64(i), 1, false)
			r.Metrics["op_p50_ms"] = value{Value: op + float64(i)}
			r.detail("route.delta_p50_ms", "ms", []float64{delta + float64(i)}, 500)
			out = append(out, r)
		}
		return out
	}
	for _, c := range []struct {
		b    []*run
		ok   bool
		want string
	}{
		{runs(101, 300), true, "same"},
		{runs(150, 100), false, "worse"},
	} {
		var buf strings.Builder
		if ok := compare(&buf, sp, runs(100, 50), c.b); ok != c.ok {
			t.Errorf("compare = %v, want %v:\n%s", ok, c.ok, buf.String())
		}
		lines := strings.Split(buf.String(), "\n")
		if len(lines) != 4 || !strings.HasSuffix(strings.TrimSpace(lines[1]), c.want) ||
			!strings.Contains(lines[2], "route.delta_p50_ms") || !strings.HasSuffix(strings.TrimSpace(lines[2]), " -") {
			t.Errorf("want a header, op_p50_ms %s and a detail row without verdict:\n%s", c.want, buf.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"within bound", lower, base, []float64{104, 105, 103, 104, 106, 102}, "same"},
		{"slower", lower, base, []float64{120, 121, 119, 120, 122, 118}, "worse"},
		{"faster", lower, base, []float64{80, 81, 79, 80, 82, 78}, "better"},
		{"higher is better", higher, base, []float64{80, 81, 79, 80, 82, 78}, "worse"},
		{"spread wider than bound", lower, base, []float64{60, 150, 90, 130, 70, 125}, "unresolved"},
		{"wide but separated", lower, base, []float64{130, 170, 140, 200, 150, 160}, "worse"},
		{"no bound", metricSpec{Better: "lower"}, base, base, "-"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
