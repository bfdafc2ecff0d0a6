package bench

import (
	"context"
	"fmt"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/report"
	"nmostv/internal/sim"
	"nmostv/internal/tech"
)

// RunF1 renders the settle-time distribution of the flagship datapath at
// its minimum period — the "timing waterfall" across the two phases.
func RunF1() *Report {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DefaultDatapath())
	pr := prepare(nl, p, true)
	base := genericSchedule()
	T, res, err := core.MinPeriod(context.Background(), nl, pr.model, base, core.Options{}, 1, base.Period, 0.05)
	if err != nil {
		panic(fmt.Sprintf("bench F1: %v", err))
	}
	times := settleTimes(res)
	hist := report.Histogram(
		fmt.Sprintf("Figure F1 — node settle times, %s at Tmin = %.4g ns", nl.Name, T),
		times, 20)

	// Census per clock region.
	s := res.Sched
	regions := []struct {
		name   string
		lo, hi float64
	}{
		{"before φ1", 0, s.Phi1Rise},
		{"φ1 window", s.Phi1Rise, s.Phi1Fall},
		{"φ1→φ2 gap", s.Phi1Fall, s.Phi2Rise},
		{"φ2 window", s.Phi2Rise, s.Phi2Fall},
		{"after φ2", s.Phi2Fall, s.Period * 10},
	}
	tab := report.NewTable("settle census per clock region", "region", "nodes settling")
	for _, r := range regions {
		count := 0
		for _, t := range times {
			if t >= r.lo && t < r.hi {
				count++
			}
		}
		tab.Add(r.name, count)
	}
	return &Report{ID: "F1", Title: "Settle-time distribution per phase",
		Sections: []string{hist, tab.String()}}
}

// RunF2 renders the runtime scaling curve with its linear fit.
func RunF2() *Report {
	samples := MeasureScaling()
	var xs, prepMS, analyzeMS, totalMS []float64
	for _, s := range samples {
		xs = append(xs, float64(s.Transistors))
		prepMS = append(prepMS, s.Prep.Seconds()*1000)
		analyzeMS = append(analyzeMS, s.Analyze.Seconds()*1000)
		totalMS = append(totalMS, (s.Prep+s.Analyze).Seconds()*1000)
	}
	plot := report.Plot("Figure F2 — analysis time (ms) vs transistor count",
		report.Series{Name: "prepare", X: xs, Y: prepMS},
		report.Series{Name: "analyze", X: xs, Y: analyzeMS},
		report.Series{Name: "total", X: xs, Y: totalMS},
	)
	slope, intercept, r2 := report.LinearFit(xs, totalMS)
	note := fmt.Sprintf("total-time linear fit: %.4g ms/transistor, intercept %.4g ms, R² = %.4f\n",
		slope, intercept, r2)
	return &Report{ID: "F2", Title: "Runtime scaling curve",
		Sections: []string{plot, note}}
}

// PassChainPoint is one sample of the F3 sweep.
type PassChainPoint struct {
	K        int
	TV       float64 // analyzer (Elmore) delay of the bare chain
	Sim      float64 // simulator measured delay
	Naive    float64 // lumped model: sum of per-segment RC, no cross terms
	Buffered float64 // analyzer delay with a restoring buffer mid-chain
}

// MeasurePassChains sweeps pass-chain length 1..maxK.
func MeasurePassChains(maxK int) []PassChainPoint {
	p := tech.Default()
	var out []PassChainPoint
	for k := 1; k <= maxK; k++ {
		pt := PassChainPoint{K: k}

		// Bare chain: analyzer.
		b := gen.New("chain", p)
		in := b.Input("in")
		ctrl := b.Input("ctrl")
		end := b.Output(b.PassChain(in, ctrl, k))
		nl := b.Finish()
		pr := prepare(nl, p, true)
		res, _ := pr.analyze(genericSchedule())
		pt.TV = res.RiseAt.At(end.Index)

		// Bare chain: simulator.
		b2 := gen.New("chain", p)
		in2 := b2.Input("in")
		ctrl2 := b2.Input("ctrl")
		end2 := b2.Output(b2.PassChain(in2, ctrl2, k))
		nl2 := b2.Finish()
		s := sim.New(nl2, nil, p)
		s.Set(nl2.Lookup("ctrl"), sim.V1)
		s.Set(nl2.Lookup("in"), sim.V0)
		s.Quiesce()
		t0 := s.Now()
		s.Set(nl2.Lookup("in"), sim.V1)
		s.Quiesce()
		pt.Sim = s.LastChange(end2) - t0

		// Naive lumped model: k segments of R_pass × C_node, no
		// accumulation of upstream resistance — linear in k.
		rseg := p.RPassDevice(b.Sizes.PassW, b.Sizes.PassL)
		var cseg float64
		if k >= 1 {
			// Per-node load along the chain (uniform by construction).
			mid := nl.Lookup("pch_1")
			cseg = pr.model.Caps.At(mid.Index)
		}
		pt.Naive = float64(k) * rseg * cseg

		// Buffered: a restoring two-inverter buffer inserted mid-chain.
		// The repeater costs a fixed delay (dominated by one slow
		// ratioed rise); it pays once the bypassed quadratic term
		// exceeds that cost.
		if k >= 2 {
			b3 := gen.New("chainbuf", p)
			in3 := b3.Input("in")
			ctrl3 := b3.Input("ctrl")
			half := b3.PassChain(in3, ctrl3, k/2)
			buf := b3.Buffer(half)
			end3 := b3.Output(b3.PassChain(buf, ctrl3, k-k/2))
			nl3 := b3.Finish()
			pr3 := prepare(nl3, p, true)
			res3, _ := pr3.analyze(genericSchedule())
			pt.Buffered = res3.Settle(end3)
		}
		out = append(out, pt)
	}
	return out
}

// RunF3 renders the pass-chain delay sweep.
func RunF3() *Report {
	pts := MeasurePassChains(20)
	tab := report.NewTable("Figure F3 — pass-chain delay vs length",
		"k", "TV Elmore (ns)", "sim (ns)", "naive lumped (ns)", "buffered TV (ns)")
	crossover := -1
	for _, pt := range pts {
		buffered := ""
		if pt.K >= 2 {
			buffered = fmt.Sprintf("%.4g", pt.Buffered)
			if crossover < 0 && pt.Buffered < pt.TV {
				crossover = pt.K
			}
		}
		tab.Add(pt.K, pt.TV, pt.Sim, pt.Naive, buffered)
	}
	note := "claims under test: delay grows quadratically in k (the analyzer's\n" +
		"Elmore model tracks simulation; the naive lumped model grows only\n" +
		"linearly and diverges);"
	if crossover > 0 {
		note += fmt.Sprintf(" inserting a restoring buffer wins from k = %d on.\n", crossover)
	} else {
		note += " no buffering crossover observed in this range.\n"
	}
	return &Report{ID: "F3", Title: "Pass-chain delay vs length",
		Sections: []string{tab.String(), note}}
}

// RatioPoint is one sample of the F4 sweep.
type RatioPoint struct {
	Ratio      float64
	RiseDelay  float64
	FallDelay  float64
	ChainDelay float64
}

// MeasureRatios sweeps the pullup/pulldown ratio of an inverter.
func MeasureRatios(ratios []float64) []RatioPoint {
	p := tech.Default()
	var out []RatioPoint
	for _, ratio := range ratios {
		b := gen.New("ratio", p)
		in := b.Input("in")
		// One measured inverter driving a twin (fixed load), plus an
		// 8-stage chain of the same ratio for the cumulative number.
		first := b.InverterRatio(in, ratio)
		cur := first
		for i := 0; i < 7; i++ {
			cur = b.InverterRatio(cur, ratio)
		}
		b.Output(cur)
		nl := b.Finish()
		pr := prepare(nl, p, true)
		res, _ := pr.analyze(genericSchedule())
		out = append(out, RatioPoint{
			Ratio:      ratio,
			RiseDelay:  res.RiseAt.At(first.Index),
			FallDelay:  res.FallAt.At(first.Index),
			ChainDelay: res.Settle(cur),
		})
	}
	return out
}

// RunF4 renders the ratioed-logic design-space sweep.
func RunF4() *Report {
	pts := MeasureRatios([]float64{1, 2, 4, 6, 8, 12, 16})
	tab := report.NewTable("Figure F4 — inverter delay vs pullup/pulldown ratio",
		"ratio (squares)", "rise (ns)", "fall (ns)", "rise/fall", "8-chain settle (ns)")
	for _, pt := range pts {
		tab.Add(pt.Ratio, pt.RiseDelay, pt.FallDelay, pt.RiseDelay/pt.FallDelay, pt.ChainDelay)
	}
	note := "claims under test: fall delay is nearly flat in the ratio (it grows\n" +
		"only through the longer load's gate capacitance); rise delay grows\n" +
		"~linearly (the depletion load weakens); ratioed nMOS cycle time is\n" +
		"rise-dominated. Ratios below ~4 are electrically illegal (no level\n" +
		"restoration margin) — the sweep shows why designers paid the slow rise.\n"
	return &Report{ID: "F4", Title: "Delay vs pullup/pulldown ratio",
		Sections: []string{tab.String(), note}}
}
