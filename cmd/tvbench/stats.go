package main

import (
	"fmt"
	"slices"
)

// Quantiles are nearest-rank and written in per-mille (500 = median,
// 950 = p95), so ranks come from integer arithmetic: the result is always
// one of the samples, as measured.

// rankOf is the 0-based nearest rank of the q-per-mille quantile in n
// sorted samples: the smallest sample with at least q/1000 of the samples
// at or below it.
func rankOf(n, q int) int {
	r := (q*n+999)/1000 - 1
	return max(0, min(r, n-1))
}

// quantile returns the nearest-rank q-per-mille quantile of xs.
func quantile(xs []float64, q int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rankOf(len(s), q)]
}

// summary is a sample's median and quartiles.
type summary struct {
	P25, P50, P75 float64
	N             int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return summary{P25: s[rankOf(n, 250)], P50: s[rankOf(n, 500)], P75: s[rankOf(n, 750)], N: n}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.P50 == 0 {
		return 0
	}
	return (s.P75 - s.P25) / abs(s.P50)
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []int{999, 990, 950, 900, 500}

// tailQuantile returns the highest percentile on the ladder that has at
// least ten of n samples beyond it; ok is false below 20 samples, where
// not even the median has ten beyond it.
func tailQuantile(n int) (q int, ok bool) {
	for _, q := range tailLadder {
		if n-(rankOf(n, q)+1) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// pname renders a per-mille quantile as a percentile label: 950 → "p95",
// 999 → "p99.9".
func pname(q int) string {
	if q%10 == 0 {
		return fmt.Sprintf("p%d", q/10)
	}
	return fmt.Sprintf("p%g", float64(q)/10)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
