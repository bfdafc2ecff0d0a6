package paths

import (
	"math"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/tech"
)

// TestWhyTraceFPExact is the why-trace property test: for every node and
// polarity, across corners and worker counts, the trace's hops replay
// the engine's relaxation arithmetic bit for bit — each hop's arrival is
// exactly its launch plus its delay, each launch is exactly the previous
// arrival clamped to the hop's window, and folding the per-hop delays
// forward from the source reproduces the node's published arrival
// FP-exactly (not within a tolerance: bitwise).
func TestWhyTraceFPExact(t *testing.T) {
	topologies := []struct {
		name  string
		build func(b *gen.B)
	}{
		{"latch-pipeline", latchPipeline},
		{"ripple-adder", reconvergent},
		{"scc-pass", sccPass},
	}
	for _, topo := range topologies {
		for _, corner := range corners3() {
			for _, workers := range []int{1, 4} {
				res := prep(t, topo.build, corner, workers)
				loop := map[int]bool{}
				for _, n := range res.LoopNodes() {
					loop[n.Index] = true
				}
				traced := 0
				for v := range res.RiseAt.Len() {
					if loop[v] {
						continue // non-converged arrivals are not fixpoint values
					}
					for _, pol := range []core.Polarity{core.Rise, core.Fall} {
						at := res.RiseAt.At(v)
						if pol == core.Fall {
							at = res.FallAt.At(v)
						}
						w, ok := WhyLate(res, int32(v), pol)
						if math.IsInf(at, -1) {
							if ok {
								t.Fatalf("%s/%s: WhyLate(%d,%s) ok on a never-transition", topo.name, corner.Name, v, pol)
							}
							continue
						}
						if !ok {
							t.Fatalf("%s/%s: WhyLate(%d,%s) failed on a finite arrival", topo.name, corner.Name, v, pol)
						}
						traced++
						if w.Arrival != at {
							t.Fatalf("%s/%s: trace arrival %v != published %v", topo.name, corner.Name, w.Arrival, at)
						}
						// Fold the hops forward: the engine's exact ops.
						tm := w.Hops[0].Arrival
						for h := 1; h < len(w.Hops); h++ {
							hop := w.Hops[h]
							launch := tm
							if hop.Clamped {
								if hop.Launch <= tm {
									t.Fatalf("hop %d: clamped but launch %v <= prev %v", h, hop.Launch, tm)
								}
								launch = hop.Launch
							} else if hop.Launch != tm {
								t.Fatalf("hop %d: unclamped launch %v != prev arrival %v", h, hop.Launch, tm)
							}
							if got := launch + hop.Delay; got != hop.Arrival {
								t.Fatalf("%s/%s node %d hop %d: launch+delay = %v, arrival = %v (not FP-exact)",
									topo.name, corner.Name, v, h, got, hop.Arrival)
							}
							if hop.Wait != hop.Launch-tm {
								t.Fatalf("hop %d: wait %v != launch-prev %v", h, hop.Wait, hop.Launch-tm)
							}
							tm = hop.Arrival
						}
						if tm != at {
							t.Fatalf("%s/%s node %d %s: folded hops end at %v, published arrival %v",
								topo.name, corner.Name, v, pol, tm, at)
						}
						// The trace must start at a fixed source.
						if w.Hops[0].Arc != -1 {
							t.Fatalf("trace does not start at a source: %+v", w.Hops[0])
						}
						if arc, _ := res.DominantPred(int(w.Hops[0].Node), w.Hops[0].Pol); arc != -1 {
							t.Fatalf("trace source %d has a dominant pred", w.Hops[0].Node)
						}
					}
				}
				if traced == 0 {
					t.Fatalf("%s/%s: no transitions traced", topo.name, corner.Name)
				}
			}
		}
	}
}

// TestWhyAgreesWithTopPath ties the two debug views together: the
// generator's rank-1 path ends on the engine's dominant chain, so the
// why-trace of the path's worst cause reports the same arrival the path
// reaches there.
func TestWhyAgreesWithTopPath(t *testing.T) {
	res := prep(t, latchPipeline, tech.Typical(), 1)
	p, ok := New(res).Next()
	if !ok {
		t.Fatal("no paths")
	}
	// The rank-1 path's cause transition (last step before the capture)
	// carries the node's published worst arrival.
	cause := p.Steps[len(p.Steps)-1]
	if p.Kind == KindLatch && len(p.Steps) >= 2 {
		cause = p.Steps[len(p.Steps)-2]
	}
	w, ok := WhyLate(res, cause.Node, cause.Pol)
	if !ok {
		t.Fatalf("WhyLate(%d,%s) failed", cause.Node, cause.Pol)
	}
	if w.Arrival != cause.Arrival {
		t.Fatalf("why arrival %v != top-path cause arrival %v", w.Arrival, cause.Arrival)
	}
}
