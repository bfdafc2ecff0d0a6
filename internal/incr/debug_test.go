package incr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/tech"
)

// TestDiffReportsExactChangedSet is the diff property test: after a
// random delta batch whose incremental result has been SelfCheck'd, the
// eps=0 diff between the previous and the current version must name
// exactly the nodes that changed — bitwise over all four arrival arrays,
// plus (when the backward pass is available on both sides) bitwise over
// the per-node worst slack — with no false positives and no misses.
// Stats.ChangedNodes must agree with the arrival-only count.
func TestDiffReportsExactChangedSet(t *testing.T) {
	p := tech.Default()
	ctx := context.Background()
	for _, w := range testWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(w.name)) * 977))
			s := newTestSession(t, w.name, w.build(p), 2)
			for round := 0; round < 5; round++ {
				prev := s.Result()
				prevSeq := s.LastStats().Version
				batch := make([]Delta, 1+rng.Intn(3))
				for i := range batch {
					batch[i] = randomDelta(rng, s)
				}
				st, err := s.Apply(ctx, batch)
				if err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				if err := s.SelfCheck(ctx); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				cur := s.Result()
				if st.Version != prevSeq+1 {
					t.Fatalf("round %d: version %d after %d", round, st.Version, prevSeq)
				}

				// Ground truth, arrivals: bitwise over the shared prefix
				// of all four arrays.
				shared := min(prev.RiseAt.Len(), cur.RiseAt.Len())
				added := cur.RiseAt.Len() - shared
				wantArr := map[string]bool{}
				for i := 0; i < shared; i++ {
					if prev.RiseAt.At(i) != cur.RiseAt.At(i) || prev.FallAt.At(i) != cur.FallAt.At(i) ||
						prev.EarlyRise.At(i) != cur.EarlyRise.At(i) || prev.EarlyFall.At(i) != cur.EarlyFall.At(i) {
						wantArr[s.nl.Nodes[i].Name] = true
					}
				}
				if st.ChangedNodes != len(wantArr)+added {
					t.Fatalf("round %d: Stats.ChangedNodes %d, ground truth %d changed + %d added",
						round, st.ChangedNodes, len(wantArr), added)
				}

				// Ground truth, slacks: a resize moves arc delays, so
				// required times (and slacks) can move at nodes whose
				// arrivals are bit-identical. The session only compares
				// slacks when both versions still match the live node
				// count (the backward pass reads it); mirror that gate.
				want := map[string]bool{}
				for n := range wantArr {
					want[n] = true
				}
				if shared == len(s.nl.Nodes) && added == 0 {
					reqP, err := prev.Required(ctx, s.opt.Core)
					if err != nil {
						t.Fatal(err)
					}
					reqC, err := cur.Required(ctx, s.opt.Core)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < shared; i++ {
						sp := math.Min(reqP.Slack(i, core.Rise), reqP.Slack(i, core.Fall))
						sc := math.Min(reqC.Slack(i, core.Rise), reqC.Slack(i, core.Fall))
						if sp != sc {
							want[s.nl.Nodes[i].Name] = true
						}
					}
				}

				d, err := s.Diff(context.Background(), prevSeq, st.Version, 0, 0, 0)
				if err != nil {
					t.Fatalf("round %d: Diff: %v", round, err)
				}
				if d.From != prevSeq || d.To != st.Version {
					t.Fatalf("round %d: diff resolved %d..%d, asked %d..%d",
						round, d.From, d.To, prevSeq, st.Version)
				}
				if d.Added != added {
					t.Fatalf("round %d: diff Added %d, want %d", round, d.Added, added)
				}
				got := map[string]bool{}
				for _, nd := range d.Changed {
					got[nd.Node] = true
				}
				for name := range want {
					if !got[name] {
						t.Fatalf("round %d: node %s changed bitwise but missing from diff", round, name)
					}
				}
				for name := range got {
					if !want[name] {
						t.Fatalf("round %d: diff reports %s but arrivals and slacks are bitwise unchanged",
							round, name)
					}
				}

				// Defaults: from=0,to=0 must mean "previous vs latest".
				dd, err := s.Diff(context.Background(), 0, 0, 0, 0, 0)
				if err != nil {
					t.Fatalf("round %d: default Diff: %v", round, err)
				}
				if dd.From != prevSeq || dd.To != st.Version {
					t.Fatalf("round %d: default diff resolved %d..%d, want %d..%d",
						round, dd.From, dd.To, prevSeq, st.Version)
				}
			}
		})
	}
}

// TestDiffNoopFullIsEmpty pins determinism through the diff lens: a
// from-scratch re-analysis of an unchanged design publishes a new
// version whose eps=0 diff against its predecessor is empty — no node
// deltas, no rank moves, ChangedNodes zero.
func TestDiffNoopFullIsEmpty(t *testing.T) {
	p := tech.Default()
	b := gen.New("chain", p)
	b.Output(b.InvChain(b.Input("in"), 6))
	s := newTestSession(t, "chain", b.Finish(), 1)
	st, err := s.Full(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ChangedNodes != 0 {
		t.Fatalf("no-op full run changed %d nodes", st.ChangedNodes)
	}
	d, err := s.Diff(context.Background(), 0, 0, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Changed) != 0 || d.ChangedCount != 0 {
		t.Fatalf("no-op full run diffs non-empty: %+v", d.Changed)
	}
	if len(d.RankMoves) != 0 {
		t.Fatalf("no-op full run moved ranks: %+v", d.RankMoves)
	}
}

// TestVersionRingRetention pins the ring semantics: HistoryDepth bounds
// retention, sequence numbers stay monotone, and diffing against an
// evicted version is a clean NotFound.
func TestVersionRingRetention(t *testing.T) {
	p := tech.Default()
	b := gen.New("chain", p)
	b.Output(b.InvChain(b.Input("in"), 6))
	s, err := New(context.Background(), "chain", b.Finish(), Options{
		Params:       p,
		Sched:        testSchedule(),
		Core:         core.Options{Workers: 1},
		HistoryDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := s.nl.Trans[0].ID
	for i := 0; i < 4; i++ {
		if _, err := s.Apply(context.Background(), []Delta{{Op: "resize", ID: id, W: 4 + float64(i)}}); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	vs := s.Versions()
	if len(vs) != 2 {
		t.Fatalf("ring holds %d versions, want 2", len(vs))
	}
	if vs[0].Seq != 4 || vs[1].Seq != 5 {
		t.Fatalf("ring seqs %d,%d want 4,5", vs[0].Seq, vs[1].Seq)
	}
	if _, err := s.Diff(context.Background(), 1, 5, 0, 0, 0); err == nil {
		t.Fatal("diff against evicted version 1 succeeded")
	}
	if d, err := s.Diff(context.Background(), 4, 5, 0, 0, 0); err != nil {
		t.Fatal(err)
	} else if d.ChangedCount == 0 {
		t.Fatal("resize diff is empty")
	}
}

// TestPathStreamSurvivesApply pins the stream's lock discipline: a
// stream opened before a delta batch keeps producing its (old) version's
// paths unperturbed while Apply commits a new one.
func TestPathStreamSurvivesApply(t *testing.T) {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	s := newTestSession(t, "datapath4x4", nl, 2)
	before, err := s.PathStream("")
	if err != nil {
		t.Fatal(err)
	}
	first, ok := before.Next()
	if !ok {
		t.Fatal("no paths")
	}
	id := s.nl.Trans[0].ID
	if _, err := s.Apply(context.Background(), []Delta{{Op: "resize", ID: id, W: 9}}); err != nil {
		t.Fatal(err)
	}
	// Drain a prefix of the old stream: ranks stay sequential, slacks
	// stay worst-first, entirely from the pre-batch result.
	prev := first.Slack
	for i := 2; i <= 20; i++ {
		pi, ok := before.Next()
		if !ok {
			break
		}
		if pi.Rank != i {
			t.Fatalf("old stream rank %d at position %d", pi.Rank, i)
		}
		if pi.Slack < prev-1e-9 {
			t.Fatalf("old stream slack regressed: %v after %v", pi.Slack, prev)
		}
		prev = pi.Slack
	}
	// A fresh stream reflects the new version and starts at rank 1.
	after, err := s.PathStream("")
	if err != nil {
		t.Fatal(err)
	}
	if pi, ok := after.Next(); !ok || pi.Rank != 1 {
		t.Fatalf("fresh stream first path: ok=%v rank=%d", ok, pi.Rank)
	}
}

// TestWhyQueryCorners exercises the session-level why-trace across a
// multi-corner session: explicit corners resolve, the default picks the
// node's worst corner, the trace arrival and slack match the merged
// ranking bitwise, and the error taxonomy holds.
func TestWhyQueryCorners(t *testing.T) {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	s, err := New(context.Background(), "datapath4x4", nl, Options{
		Params:  p,
		Sched:   testSchedule(),
		Core:    core.Options{Workers: 2},
		Corners: []tech.Corner{tech.Slow(), tech.Typical(), tech.Fast()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Slack(context.Background(), 1, "")
	if err != nil || len(rows) == 0 {
		t.Fatalf("slack: %v (%d rows)", err, len(rows))
	}
	worst := rows[0]
	w, err := s.Why(context.Background(), worst.Node, worst.Pol, worst.Corner)
	if err != nil {
		t.Fatalf("Why(%s,%s,%s): %v", worst.Node, worst.Pol, worst.Corner, err)
	}
	if w.Arrival != worst.Arrival {
		t.Fatalf("why arrival %v != slack-ranking arrival %v", w.Arrival, worst.Arrival)
	}
	if len(w.Hops) == 0 || w.Hops[len(w.Hops)-1].Arrival != w.Arrival {
		t.Fatalf("trace does not end at its own arrival: %+v", w)
	}
	if w.Slack == nil || *w.Slack != worst.Slack {
		t.Fatalf("why slack %v != ranking slack %v", w.Slack, worst.Slack)
	}
	// Defaulted corner picks the node's worst one.
	wd, err := s.Why(context.Background(), worst.Node, worst.Pol, "")
	if err != nil {
		t.Fatal(err)
	}
	if wd.Corner != worst.Corner {
		t.Fatalf("default corner %q, merged ranking says %q", wd.Corner, worst.Corner)
	}
	// Error taxonomy.
	if _, err := s.Why(context.Background(), "no-such-node", "", ""); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := s.Why(context.Background(), worst.Node, "sideways", ""); err == nil {
		t.Fatal("bad polarity accepted")
	}
	if _, err := s.Why(context.Background(), worst.Node, "", "cryogenic"); err == nil {
		t.Fatal("unknown corner accepted")
	}
	if _, err := s.PathStream("cryogenic"); err == nil {
		t.Fatal("unknown corner accepted by PathStream")
	}
}
