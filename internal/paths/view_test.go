package paths

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// TestCornerViewPathsMatchMaterialized: the path stream and the why
// traces over a corner's view of the base model equal those over
// ScaleModel's materialized copy, bit for bit — the first 50 paths of
// New, and WhyLate at every node and polarity — on the path-oracle
// topologies and a small tiled chip, at one and several workers.
func TestCornerViewPathsMatchMaterialized(t *testing.T) {
	p := tech.Default()
	var designs []*netlist.Netlist
	for _, build := range []func(*gen.B){latchPipeline, reconvergent, sccPass} {
		b := gen.New("t", p)
		build(b)
		designs = append(designs, b.Finish())
	}
	designs = append(designs, gen.TiledChip(p, gen.DefaultTiledChip(3000)))
	for di, nl := range designs {
		st := stage.Extract(nl)
		flow.Analyze(nl)
		m := delay.Build(nl, st, p, delay.Options{Workers: 1})
		for _, c := range []tech.Corner{tech.Slow(), tech.Fast()} {
			mat := delay.ScaleModel(m, c.RScale, c.CScale)
			for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
				what := fmt.Sprintf("design %d %s workers %d", di, c.Name, workers)
				analyze := func(model *delay.Model) *core.Result {
					res, err := core.Analyze(context.Background(), nl, model, clocks.TwoPhase(40, 0.8), core.Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				rv, rm := analyze(m.At(c)), analyze(mat)
				gv, gm := New(rv), New(rm)
				for i := 0; i < 50; i++ {
					pv, okv := gv.Next()
					pm, okm := gm.Next()
					if okv != okm {
						t.Fatalf("%s: path %d exists over the view %v, materialized %v", what, i, okv, okm)
					}
					if !okm {
						break
					}
					if fmt.Sprintf("%v", pv) != fmt.Sprintf("%v", pm) {
						t.Fatalf("%s: path %d is %+v, materialized %+v", what, i, pv, pm)
					}
				}
				for v := range nl.Nodes {
					for _, pol := range []core.Polarity{core.Rise, core.Fall} {
						wv, okv := WhyLate(rv, int32(v), pol)
						wm, okm := WhyLate(rm, int32(v), pol)
						if okv != okm || fmt.Sprintf("%v", wv) != fmt.Sprintf("%v", wm) {
							t.Fatalf("%s: why node %d %s is %+v, materialized %+v", what, v, pol, wv, wm)
						}
					}
				}
			}
		}
	}
}
