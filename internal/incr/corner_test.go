package incr

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/slack"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

func newCornerSession(t *testing.T, workers int) *Session {
	t.Helper()
	nl := gen.MIPSDatapath(tech.Default(), gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	s, err := New(context.Background(), "mc", nl, Options{
		Params:  tech.Default(),
		Sched:   testSchedule(),
		Core:    core.Options{Workers: workers},
		Corners: tech.Corners(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestCornerSessionSelfCheck: a multi-corner session satisfies the
// extended bit-identity invariant — every corner equal to a from-scratch
// analysis at that corner, forward and backward pass — after the initial
// load and after every kind of delta.
func TestCornerSessionSelfCheck(t *testing.T) {
	ctx := context.Background()
	s := newCornerSession(t, 1)
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck after load: %v", err)
	}
	if st := s.LastStats(); st.Corners != len(tech.Corners()) {
		t.Fatalf("stats report %d corners, want %d", st.Corners, len(tech.Corners()))
	}
	if _, err := s.Apply(ctx, structuralBatch(s)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck after structural batch: %v", err)
	}
	// The typical corner aliases the base analysis outright.
	for _, cs := range s.corners {
		if cs.corner.IsTypical() {
			if cs.res != s.res || cs.model != s.model {
				t.Fatal("typical corner does not alias the base analysis")
			}
		} else if cs.res == s.res {
			t.Fatalf("corner %s aliases the base result", cs.corner.Name)
		}
	}
}

// TestCornerCacheHitMiss pins the per-corner model-reuse accounting: a
// batch that leaves the timing model untouched reuses every corner model
// (hit), a batch that rebuilds arcs re-derives them (miss).
func TestCornerCacheHitMiss(t *testing.T) {
	ctx := context.Background()
	s := newCornerSession(t, 1)
	infos := s.Corners()
	if len(infos) != 3 {
		t.Fatalf("%d corner infos, want 3", len(infos))
	}
	for _, ci := range infos {
		// The initial full run derives every model: one miss, no hits.
		if ci.CacheHits != 0 || ci.CacheMisses != 1 {
			t.Fatalf("corner %s after load: hits=%d misses=%d, want 0/1", ci.Name, ci.CacheHits, ci.CacheMisses)
		}
	}

	// A no-op resize changes no stage fingerprint and no cap: the base
	// model is reused by pointer, so every corner model is too.
	t0 := s.nl.Trans[0]
	if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: t0.ID, W: t0.W, L: t0.L}}); err != nil {
		t.Fatalf("no-op resize: %v", err)
	}
	for _, ci := range s.Corners() {
		if ci.CacheHits != 1 || ci.CacheMisses != 1 {
			t.Fatalf("corner %s after no-op batch: hits=%d misses=%d, want 1/1", ci.Name, ci.CacheHits, ci.CacheMisses)
		}
		if ci.CacheHitRate != 0.5 {
			t.Fatalf("corner %s hit rate %v, want 0.5", ci.Name, ci.CacheHitRate)
		}
	}

	// A real resize rebuilds the touched stage: corner models re-derive.
	if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: t0.ID, W: t0.W * 3}}); err != nil {
		t.Fatalf("resize: %v", err)
	}
	for _, ci := range s.Corners() {
		if ci.CacheHits != 1 || ci.CacheMisses != 2 {
			t.Fatalf("corner %s after resize: hits=%d misses=%d, want 1/2", ci.Name, ci.CacheHits, ci.CacheMisses)
		}
	}
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
}

// TestPlanReuse pins the plan-reuse rule. Resize and setcap batches keep
// every arc's endpoints, so the base keeps its previous propagation plan
// (ReusedWave) and every corner runs on the base's plan. A batch that
// moves arcs rebuilds the plan, the corners share the new one, and the
// session still passes SelfCheck.
func TestPlanReuse(t *testing.T) {
	ctx := context.Background()
	s := newCornerSession(t, 1)
	// planOf names a result's plan by the array its arc lists alias.
	planOf := func(r *core.Result) *int32 {
		for v := range r.RiseAt.Len() {
			if arcs := r.ArcsInto(int32(v)); len(arcs) > 0 {
				return &arcs[0]
			}
		}
		t.Fatal("design has no arcs")
		return nil
	}
	onBasePlan := func(what string) {
		for _, cs := range s.corners {
			if planOf(cs.res) != planOf(s.res) {
				t.Fatalf("%s: corner %s does not run on the base's plan", what, cs.corner.Name)
			}
		}
	}
	t0 := s.nl.Trans[0]
	var n string
	for _, nd := range s.nl.Nodes {
		if !nd.IsSupply() && !nd.IsClock() {
			n = nd.Name
			break
		}
	}
	for _, batch := range [][]Delta{
		{{Op: "resize", ID: t0.ID, W: t0.W * 2}},
		{{Op: "setcap", Node: n, Cap: 0.33}},
	} {
		was := planOf(s.res)
		st, err := s.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("%s: %v", batch[0].Op, err)
		}
		if !st.ReusedWave || planOf(s.res) != was {
			t.Fatalf("%s: reused_wave %v, plan kept %v; want both", batch[0].Op, st.ReusedWave, planOf(s.res) == was)
		}
		onBasePlan(batch[0].Op)
	}
	was := planOf(s.res)
	st, err := s.Apply(ctx, []Delta{{Op: "add", Kind: "e", Gate: n, A: "plan_new_node", B: "gnd", W: 4, L: 2}})
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if st.ReusedWave || planOf(s.res) == was {
		t.Fatal("add: an edit that moves arcs kept the previous plan")
	}
	onBasePlan("add")
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
}

// TestCornerRollback: an abort after the base pass but before the corner
// sweep rolls the whole batch back — the published base and per-corner
// results are the exact same objects, the netlist is restored, and the
// extended SelfCheck still holds.
func TestCornerRollback(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	s := newCornerSession(t, 1)
	snap := captureNetlist(s)
	resBefore := s.Result()
	cornersBefore := make([]*core.Result, len(s.corners))
	for i, cs := range s.corners {
		cornersBefore[i] = cs.res
	}
	batch := structuralBatch(s)

	faultpoint.Arm("incr.apply.corner", faultpoint.Action{Err: faultpoint.ErrInjected})
	if _, err := s.Apply(ctx, batch); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Apply = %v, want injected fault", err)
	}
	faultpoint.Reset()

	if s.Result() != resBefore {
		t.Fatal("aborted Apply republished the base result")
	}
	for i, cs := range s.corners {
		if cs.res != cornersBefore[i] {
			t.Fatalf("aborted Apply republished corner %s", cs.corner.Name)
		}
	}
	checkRestored(t, s, snap)
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck after corner rollback: %v", err)
	}
	if _, err := s.Apply(ctx, batch); err != nil {
		t.Fatalf("Apply after rollback: %v", err)
	}
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck after recovered Apply: %v", err)
	}
}

// TestSlackQueries covers the merged and per-corner slack views and the
// corner-resolved critical path query.
func TestSlackQueries(t *testing.T) {
	s := newCornerSession(t, 1)

	merged, err := s.Slack(context.Background(), 0, "")
	if err != nil {
		t.Fatalf("merged slack: %v", err)
	}
	if len(merged) == 0 {
		t.Fatal("empty merged ranking")
	}
	perCorner := map[string][]SlackInfo{}
	for _, c := range tech.Corners() {
		rows, err := s.Slack(context.Background(), 0, c.Name)
		if err != nil {
			t.Fatalf("slack at %s: %v", c.Name, err)
		}
		if len(rows) == 0 {
			t.Fatalf("empty ranking at %s", c.Name)
		}
		for _, r := range rows {
			if r.Corner != c.Name {
				t.Fatalf("row at %s labeled %q", c.Name, r.Corner)
			}
		}
		perCorner[c.Name] = rows
	}
	// Each merged row carries the minimum of that node's per-corner node
	// slacks, labeled with the corner that set it.
	nodeSlack := map[string]map[string]float64{} // corner -> node -> slack
	for name, rows := range perCorner {
		nodeSlack[name] = map[string]float64{}
		for _, r := range rows {
			if cur, ok := nodeSlack[name][r.Node]; !ok || r.Slack < cur {
				nodeSlack[name][r.Node] = r.Slack
			}
		}
	}
	for i, r := range merged {
		if i > 0 && merged[i-1].Slack > r.Slack {
			t.Fatalf("merged ranking unsorted at %d", i)
		}
		want := math.Inf(1)
		for _, byNode := range nodeSlack {
			if sl, ok := byNode[r.Node]; ok && sl < want {
				want = sl
			}
		}
		if math.Float64bits(r.Slack) != math.Float64bits(want) {
			t.Fatalf("merged slack for %s = %v, want min over corners %v", r.Node, r.Slack, want)
		}
		if sl, ok := nodeSlack[r.Corner][r.Node]; !ok || math.Float64bits(sl) != math.Float64bits(r.Slack) {
			t.Fatalf("merged row %s labeled %s, which has slack %v not %v", r.Node, r.Corner, sl, r.Slack)
		}
	}
	// The slow corner dominates a max-delay view's worst row.
	if merged[0].Corner != "slow" {
		t.Errorf("worst merged row at %q, want slow", merged[0].Corner)
	}

	if _, err := s.Slack(context.Background(), 0, "warm"); tverr.KindOf(err) != tverr.NotFound {
		t.Fatalf("unknown corner: %v, want NotFound", err)
	}
	if top := func() []SlackInfo {
		rows, err := s.Slack(context.Background(), 3, "")
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}(); len(top) != 3 {
		t.Fatalf("k=3 gave %d rows", len(top))
	}

	paths, err := s.CriticalAt("slow", 3)
	if err != nil || len(paths) == 0 {
		t.Fatalf("CriticalAt(slow) = %d paths, err %v", len(paths), err)
	}
	if _, err := s.CriticalAt("warm", 3); tverr.KindOf(err) != tverr.NotFound {
		t.Fatalf("CriticalAt unknown corner: %v, want NotFound", err)
	}

	info := s.Info()
	if info.Corners != 3 || len(info.PerCorner) != 3 {
		t.Fatalf("Info corners %d/%d, want 3/3", info.Corners, len(info.PerCorner))
	}
}

// TestSlackSingleCorner: sessions without configured corners answer the
// merged query from the base analysis and reject corner names.
func TestSlackSingleCorner(t *testing.T) {
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 8))
	s := newTestSession(t, "chain", b.Finish(), 1)
	rows, err := s.Slack(context.Background(), 0, "")
	if err != nil {
		t.Fatalf("Slack: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("empty base ranking")
	}
	for _, r := range rows {
		if r.Corner != "" {
			t.Fatalf("single-corner row labeled %q", r.Corner)
		}
	}
	if _, err := s.Slack(context.Background(), 0, "slow"); tverr.KindOf(err) != tverr.NotFound {
		t.Fatalf("corner on single-corner session: %v, want NotFound", err)
	}
	if s.Corners() != nil {
		t.Fatal("single-corner session reports corner infos")
	}
	if info := s.Info(); info.Corners != 0 || info.PerCorner != nil {
		t.Fatal("single-corner Info reports corners")
	}
}

// TestCornerValidation: bad corner lists are rejected at session creation
// with a typed Invalid error.
func TestCornerValidation(t *testing.T) {
	for _, corners := range [][]tech.Corner{
		{tech.Slow(), tech.Slow()},
		{{Name: "", RScale: 1, CScale: 1}},
		{{Name: "neg", RScale: -1, CScale: 1}},
	} {
		b := gen.New("chain", tech.Default())
		b.Output(b.InvChain(b.Input("in"), 4))
		_, err := New(context.Background(), "chain", b.Finish(), Options{
			Params:  tech.Default(),
			Sched:   testSchedule(),
			Corners: corners,
		})
		if tverr.KindOf(err) != tverr.Invalid {
			t.Fatalf("corners %v: err %v, want Invalid", corners, err)
		}
	}
}

// editBytesCeiling bounds the bytes one single-device resize plus the
// merged Slack read allocates on TestCornerViewsShareArcs' 3-corner,
// 10k-transistor tiled chip at one worker. Versions that share their
// arrays' unwritten chunks and check blocks read 0.84 MiB per edit
// there, with or without the race detector; the ceiling leaves about
// 0.4 MiB for an edge slab a delay builder fills and replaces. A checks
// splice that copies every check per version read 1.03 MiB, arrays
// copied whole per version 3.3–3.6, per-corner arc copies 6.2.
// Allocation bytes do not depend on the host's speed.
const editBytesCeiling = 5 << 18

// TestCornerViewsShareArcs: after a load, a resize, a setcap, an add, a
// remove and a rolled-back batch, every non-typical corner's model is a
// view of the published base model — the same arc array, read at the
// corner's delay scale — and the typical corner's is the base itself.
// Then a resize plus the merged Slack read stays under editBytesCeiling.
func TestCornerViewsShareArcs(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	p := tech.Default()
	s, err := New(ctx, "tiled", gen.TiledChip(p, gen.DefaultTiledChip(10_000)), Options{
		Params: p, Sched: testSchedule(), Core: core.Options{Workers: 1}, Corners: tech.Corners(),
	})
	if err != nil {
		t.Fatal(err)
	}
	shared := func(when string) {
		t.Helper()
		for _, cs := range s.corners {
			switch {
			case cs.corner.IsTypical() && cs.model != s.model:
				t.Fatalf("after %s: the typical corner's model is not the base model", when)
			case cs.model.Edges.SharedChunks(&s.model.Edges) != s.model.Edges.NumChunks():
				t.Fatalf("after %s: corner %s holds arcs of its own", when, cs.corner.Name)
			case cs.model.DelayScale() != cs.corner.DelayScale():
				t.Fatalf("after %s: corner %s reads its arcs at %v, want %v", when, cs.corner.Name, cs.model.DelayScale(), cs.corner.DelayScale())
			}
		}
	}
	shared("load")
	tr := s.nl.Trans[len(s.nl.Trans)/2]
	node := s.nl.Nodes[len(s.nl.Nodes)/3].Name
	for _, b := range []struct {
		name  string
		batch []Delta
	}{
		{"resize", []Delta{{Op: "resize", ID: tr.ID, W: tr.W * 2}}},
		{"setcap", []Delta{{Op: "setcap", Node: node, Cap: 0.2}}},
		{"add", []Delta{{Op: "add", Kind: "e", Gate: node, A: tr.A.Name, B: "gnd", W: 4, L: 2}}},
		{"remove", []Delta{{Op: "remove", ID: tr.ID}}},
	} {
		if _, err := s.Apply(ctx, b.batch); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		shared(b.name)
	}
	faultpoint.Arm("incr.apply.corner", faultpoint.Action{Err: faultpoint.ErrInjected})
	if _, err := s.Apply(ctx, []Delta{{Op: "setcap", Node: node, Cap: 0.3}}); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("rolled-back batch: Apply = %v, want injected fault", err)
	}
	faultpoint.Reset()
	shared("a rolled-back batch")
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatal(err)
	}

	checkEditBytes(t, s, editBytesCeiling)
}

// checkEditBytes fails unless 20 single-device resizes, each followed by
// the merged Slack read, allocate at most ceiling bytes per edit on s.
func checkEditBytes(t *testing.T, s *Session, ceiling uint64) {
	t.Helper()
	perEdit := editBytes(t, s)
	t.Logf("%.2f MiB allocated per resize plus merged Slack", float64(perEdit)/(1<<20))
	if perEdit > ceiling {
		t.Fatalf("a resize plus the merged Slack read allocates %.2f MiB, ceiling %.2f MiB",
			float64(perEdit)/(1<<20), float64(ceiling)/(1<<20))
	}
}

// editBytes returns the mean bytes 20 single-device resizes, each
// followed by the merged Slack read, allocate per edit on s.
func editBytes(t *testing.T, s *Session) uint64 {
	t.Helper()
	ctx := context.Background()
	const edits = 20
	devs := s.Devices()
	if _, err := s.Slack(ctx, 10, ""); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < edits; i++ {
		d := devs[(i*len(devs))/edits]
		if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: d.ID, W: d.W * 1.25}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Slack(ctx, 10, ""); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / edits
}

// editBytesCeiling100k bounds what checkEditBytes measures on a 3-corner,
// 100k-transistor tiled chip at one worker. Versions that share their
// arrays' unwritten chunks and check blocks read 1.12 MiB per edit
// there; the ceiling leaves 0.25 MiB. A checks splice that copies every
// check per version read 3.05 MiB, arrays copied whole per version 23.5.
const editBytesCeiling100k = 11 << 17

// TestEditBytesAt100k: a resize plus the merged Slack read on a 100k
// chip allocates for its cone, not for every per-node array or every
// check of every corner.
func TestEditBytesAt100k(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100k-transistor chip")
	}
	checkEditBytes(t, tiledSession(t, 100_000, nil), editBytesCeiling100k)
}

// TestEditBytesFollowCone: a resize plus the merged Slack read allocates
// at most twice as many bytes at 100k as at 10k, though the design is
// ten times larger; the byte counts do not depend on the host. They read
// 1.12 and 0.87 MiB (1.3×); a checks splice that copies every check per
// version reads about 3×.
func TestEditBytesFollowCone(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100k-transistor chip")
	}
	small := editBytes(t, tiledSession(t, 10_000, nil))
	large := editBytes(t, tiledSession(t, 100_000, nil))
	t.Logf("%.2f MiB per edit at 10k, %.2f MiB at 100k", float64(small)/(1<<20), float64(large)/(1<<20))
	if large > 2*small {
		t.Fatalf("a resize plus the merged Slack read allocates %.2f MiB at 100k, %.1f× the %.2f MiB at 10k; want at most 2×",
			float64(large)/(1<<20), float64(large)/float64(small), float64(small)/(1<<20))
	}
}

// TestMergedViewSharedByConcurrentReaders: concurrent merged reads of one
// published version share one view — every Sweep call returns the same
// *slack.Sweep — and after each apply the next readers share a new one,
// which SelfCheck then proves equal to a full merge.
func TestMergedViewSharedByConcurrentReaders(t *testing.T) {
	ctx := context.Background()
	s := newCornerSession(t, 2)
	var prev *slack.Sweep
	for round := 0; round < 3; round++ {
		got := make([]*slack.Sweep, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw, err := s.Sweep(ctx)
				if err != nil {
					t.Error(err)
				}
				got[i] = sw
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, sw := range got[1:] {
			if sw != got[0] {
				t.Fatalf("round %d: concurrent readers built separate merged views", round)
			}
		}
		if got[0] == prev {
			t.Fatalf("round %d: a new version served the previous version's view", round)
		}
		if err := s.SelfCheck(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		prev = got[0]
		tr := s.nl.Trans[len(s.nl.Trans)*(round+1)/4]
		if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: tr.ID, W: tr.W * 1.5}}); err != nil {
			t.Fatal(err)
		}
	}
}
