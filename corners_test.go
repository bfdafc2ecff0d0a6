package nmostv_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"nmostv"
	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/incr"
)

// TestFacadeCornersMatchSession: tv's corner sweep (Prepare, Analyze,
// AnalyzeCorners from the base result) and a tvd session configured with
// the same corners produce bit-identical per-corner arrivals and required
// times, the same merged worst-slack view, and the same merged ranking,
// at one worker and at one per CPU.
func TestFacadeCornersMatchSession(t *testing.T) {
	p := nmostv.DefaultParams()
	sched := nmostv.TwoPhase(900, 0.8)
	corners := nmostv.Corners()
	design := func() *nmostv.Netlist {
		return gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			ctx := context.Background()
			opt := nmostv.AnalyzeOptions{Workers: workers}
			d := nmostv.Prepare(design(), p, nmostv.PrepareOptions{Workers: workers})
			res, err := d.Analyze(sched, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.AnalyzeCorners(res, corners, opt)
			if err != nil {
				t.Fatal(err)
			}
			s, err := incr.New(ctx, "tvd", design(), incr.Options{
				Params: p, Sched: sched, Core: opt, Corners: corners,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Sweep(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Corners) != len(want.Corners) {
				t.Fatalf("%d session corners, facade %d", len(got.Corners), len(want.Corners))
			}
			for i, w := range want.Corners {
				g := got.Corners[i]
				if g.Corner != w.Corner {
					t.Fatalf("corner %d is %v, facade %v", i, g.Corner, w.Corner)
				}
				if !same(g.Res.RiseAt.Slice(), w.Res.RiseAt.Slice()) || !same(g.Res.FallAt.Slice(), w.Res.FallAt.Slice()) ||
					!same(g.Res.EarlyRise.Slice(), w.Res.EarlyRise.Slice()) || !same(g.Res.EarlyFall.Slice(), w.Res.EarlyFall.Slice()) {
					t.Fatalf("corner %s: arrivals differ", w.Corner.Name)
				}
				if !same(g.Req.RiseRAT.Slice(), w.Req.RiseRAT.Slice()) || !same(g.Req.FallRAT.Slice(), w.Req.FallRAT.Slice()) {
					t.Fatalf("corner %s: required times differ", w.Corner.Name)
				}
				for n := range w.Req.RiseRAT.Len() {
					for _, pol := range []core.Polarity{core.Rise, core.Fall} {
						if !same([]float64{g.Req.Slack(n, pol)}, []float64{w.Req.Slack(n, pol)}) {
							t.Fatalf("corner %s: node %d %s slack differs", w.Corner.Name, n, pol)
						}
					}
				}
			}
			if !same(got.WorstSlack.Slice(), want.WorstSlack.Slice()) {
				t.Fatal("merged worst slack differs")
			}
			for i := range want.WorstCorner.Len() {
				if got.WorstCorner.At(i) != want.WorstCorner.At(i) {
					t.Fatalf("node %d: worst corner %d, facade %d", i, got.WorstCorner.At(i), want.WorstCorner.At(i))
				}
			}
			const k = 25
			rows, err := s.Slack(ctx, k, "")
			if err != nil {
				t.Fatal(err)
			}
			ranked := want.Ranking(k)
			if len(rows) != len(ranked) || len(rows) == 0 {
				t.Fatalf("session ranks %d rows, facade %d", len(rows), len(ranked))
			}
			for i, e := range ranked {
				r := rows[i]
				if r.Node != e.Node.Name || r.Corner != e.Corner || r.Pol != e.Pol.String() ||
					!same([]float64{r.Arrival, r.Required, r.Slack}, []float64{e.Arrival, e.Required, e.Slack}) {
					t.Fatalf("row %d: session %+v, facade %+v", i, r, e)
				}
			}
		})
	}
}
