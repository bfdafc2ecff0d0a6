package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
)

// compare prints one row per (workload, metric) that both sets of runs
// report: each side's median and quartiles over its runs, the ratio of
// the medians, and a verdict from the metric's bound in BENCHMARK.json.
// The workloads' detail follows each workload's metrics, without a
// verdict. It reports whether no row is worse.
func compare(w io.Writer, sp *spec, a, b []*run) bool {
	type key struct{ workload, metric string }
	collect := func(runs []*run) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range runs {
			for _, vals := range []map[string]value{r.Metrics, r.Detail} {
				for name, v := range vals {
					k := key{r.Workload, name}
					out[k] = append(out[k], v.Value)
				}
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	units := make(map[key]string) // of the detail rows
	for _, r := range a {
		for name, v := range r.Detail {
			units[key{r.Workload, name}] = v.Unit
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [p25, p75] n\tB median [p25, p75] n\tB/A\tverdict")
	ok := true
	for _, wl := range sp.Workloads {
		var detail []metricSpec
		for k, unit := range units {
			if k.workload == wl.Name {
				detail = append(detail, metricSpec{Name: k.metric, Unit: unit})
			}
		}
		slices.SortFunc(detail, func(x, y metricSpec) int { return strings.Compare(x.Name, y.Name) })
		for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer, detail} {
			for _, m := range list {
				k := key{wl.Name, m.Name}
				xa, xb := va[k], vb[k]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				v := verdict(m, xa, xb)
				ok = ok && v != "worse"
				sa, sb := summarize(xa), summarize(xb)
				ratio := "-"
				if sa.P50 != 0 {
					ratio = fmt.Sprintf("%.3f", sb.P50/sa.P50)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%s\t%s\n",
					wl.Name, m.Name, m.Unit, sa.P50, sa.P25, sa.P75, sa.N, sb.P50, sb.P25, sb.P75, sb.N, ratio, v)
			}
		}
	}
	tw.Flush()
	return ok
}

// verdict judges B against A for one metric. The change is the shift of
// the median in the metric's worse direction, as a share of A's median:
// beyond the bound it is worse or better, within it the same. When
// either side's quartile spread is wider than the bound the medians
// cannot be told apart, and the verdict is unresolved, unless every run
// of one side reads above every run of the other. Metrics without a
// bound (the per-layer ones) get no verdict.
func verdict(m metricSpec, a, b []float64) string {
	sa, sb := summarize(a), summarize(b)
	if m.Bound == 0 || sa.P50 == 0 {
		return "-"
	}
	if (sa.spread() > m.Bound || sb.spread() > m.Bound) && !separated(a, b) {
		return "unresolved"
	}
	change := (sb.P50 - sa.P50) / abs(sa.P50)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "same"
}

// separated reports whether every value of one sample lies above every
// value of the other.
func separated(a, b []float64) bool {
	return slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
}
