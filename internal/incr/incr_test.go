package incr

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/paths"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

func testSchedule() clocks.Schedule { return clocks.TwoPhase(5000, 0.8) }

// testWorkloads mirrors the parallel engine's golden-equality coverage: a
// clocked datapath, a pass-matrix shifter, a NOR-NOR PLA, and the
// two-phase shift register.
func testWorkloads() []struct {
	name  string
	build func(p tech.Params) *netlist.Netlist
} {
	return []struct {
		name  string
		build func(p tech.Params) *netlist.Netlist
	}{
		{"datapath8x8", func(p tech.Params) *netlist.Netlist {
			return gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
		}},
		{"barrel16x4", func(p tech.Params) *netlist.Netlist {
			b := gen.New("barrel16x4", p)
			in := make([]*netlist.Node, 16)
			for i := range in {
				in[i] = b.Input(fmt.Sprintf("in%d", i))
			}
			for _, o := range b.BarrelShifter(in, b.ShiftControls(4)) {
				b.Output(b.Inverter(o))
			}
			return b.Finish()
		}},
		{"pla6x10x4", func(p tech.Params) *netlist.Netlist {
			b := gen.New("pla6x10x4", p)
			ins := make([]*netlist.Node, 6)
			for i := range ins {
				ins[i] = b.Input(fmt.Sprintf("in%d", i))
			}
			and := make([][]int, 10)
			for i := range and {
				row := make([]int, 6)
				for j := range row {
					switch (i*7 + j*3) % 3 {
					case 0:
						row[j] = 1
					case 1:
						row[j] = -1
					}
				}
				and[i] = row
			}
			or := make([][]int, 4)
			for i := range or {
				for pt := i; pt < 10; pt += 2 {
					or[i] = append(or[i], pt)
				}
			}
			for _, o := range b.PLA(ins, and, or) {
				b.Output(o)
			}
			return b.Finish()
		}},
		{"shiftreg16", func(p tech.Params) *netlist.Netlist {
			b := gen.New("shiftreg16", p)
			phi1 := b.Clock("phi1", 1)
			phi2 := b.Clock("phi2", 2)
			b.Output(b.ShiftRegister(b.Input("in"), phi1, phi2, 16))
			return b.Finish()
		}},
	}
}

// TestNewRejectsUnknownCaseNames: a session whose case names no node — a
// misspelling, or the supply alias "VDD" bound by the netlist — fails to
// open with an Invalid error instead of timing a different case.
func TestNewRejectsUnknownCaseNames(t *testing.T) {
	for _, tc := range []struct {
		opt  core.Options
		want string
	}{
		{core.Options{SetHigh: []string{"bogus"}}, "SetHigh bogus"},
		{core.Options{SetLow: []string{"VDD"}}, "SetLow VDD"},
		{core.Options{InputTime: map[string]float64{"nosuch": 1}}, "InputTime nosuch"},
	} {
		b := gen.New("case", tech.Default())
		b.Output(b.Inverter(b.Input("in")))
		nl := b.Finish()
		if nl.Node("VDD") != nl.VDD {
			t.Fatal("VDD must be bound as an alias of the supply")
		}
		_, err := New(context.Background(), "case", nl, Options{Params: tech.Default(), Sched: testSchedule(), Core: tc.opt})
		if tverr.KindOf(err) != tverr.Invalid || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Errorf("New(%+v): error %v, want Invalid naming %q", tc.opt, err, tc.want)
		}
	}
}

func newTestSession(t *testing.T, name string, nl *netlist.Netlist, workers int) *Session {
	t.Helper()
	s, err := New(context.Background(), name, nl, Options{
		Params: tech.Default(),
		Sched:  testSchedule(),
		Core:   core.Options{Workers: workers},
	})
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return s
}

// randomDelta builds one applicable delta against the session's current
// netlist. It only reads under the test's single-goroutine use, so direct
// field access is fine.
func randomDelta(rng *rand.Rand, s *Session) Delta {
	nodeName := func() string {
		for {
			n := s.nl.Nodes[rng.Intn(len(s.nl.Nodes))]
			if !n.IsSupply() {
				return n.Name
			}
		}
	}
	device := func() *netlist.Transistor {
		return s.nl.Trans[rng.Intn(len(s.nl.Trans))]
	}
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // resize dominates: the classic what-if edit
		t := device()
		return Delta{Op: "resize", ID: t.ID, W: t.W * (0.5 + rng.Float64()*1.5)}
	case 4, 5:
		return Delta{Op: "setcap", Node: nodeName(), Cap: rng.Float64() * 0.4}
	case 6:
		attrs := [][]string{{"output"}, {"input"}, {"precharged"}, {"flowin"}, {"exclusive=7"}}
		return Delta{Op: "annotate", Node: nodeName(), Attrs: attrs[rng.Intn(len(attrs))]}
	case 7, 8:
		return Delta{Op: "add", Kind: "e", Gate: nodeName(), A: nodeName(), B: nodeName(),
			W: 2 + rng.Float64()*6, L: 2}
	default:
		return Delta{Op: "remove", ID: device().ID}
	}
}

// TestRandomDeltaEquivalence is the property test of the tentpole
// invariant: after every random batch of edits, the incremental result is
// bit-identical to a from-scratch analysis — arrivals, predecessor
// records, checks and the backward pass — at serial and full worker
// counts, over the datapath, shifter, PLA, and shift-register workloads.
// Each batch's ChangedNodes, counted over the nodes the analysis relaxed,
// must equal paths.CountChanged's comparison of every node.
//
// It also replays sessions a sweep once found failing (40 seeds × the
// four workloads × 1 and 2 workers, rand.NewSource(seed*977+workers)):
// a topology edit rebuilt the plan and reordered or split a cyclic
// component that no seed reached, which kept values that depended on its
// old member list. Two of them replay with three corners as well.
func TestRandomDeltaEquivalence(t *testing.T) {
	type session struct {
		name, workload  string
		source          int64
		workers, rounds int
		corners         bool
	}
	var sessions []session
	for _, w := range testWorkloads() {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			sessions = append(sessions, session{fmt.Sprintf("%s/workers%d", w.name, workers),
				w.name, int64(len(w.name))*31 + int64(workers), workers, 6, false})
		}
	}
	for _, r := range []struct {
		workload string
		source   int64
		round    int
	}{
		{"shiftreg16", 979, 4}, {"shiftreg16", 3909, 2}, {"shiftreg16", 10748, 4},
		{"pla6x10x4", 11726, 5}, {"shiftreg16", 13680, 6}, {"shiftreg16", 14656, 4},
		{"shiftreg16", 18565, 4}, {"shiftreg16", 19541, 2}, {"shiftreg16", 25403, 7},
		{"shiftreg16", 27358, 2}, {"shiftreg16", 29311, 9}, {"shiftreg16", 33219, 2},
		{"shiftreg16", 35173, 7}, {"shiftreg16", 35174, 8}, {"shiftreg16", 36150, 8},
		{"datapath8x8", 37127, 5},
	} {
		workers := int(r.source % 977)
		name := fmt.Sprintf("replay/%s/source%d/workers%d", r.workload, r.source, workers)
		sessions = append(sessions, session{name, r.workload, r.source, workers, r.round + 1, false})
		if r.source == 3909 || r.source == 11726 {
			sessions = append(sessions, session{name + "/corners", r.workload, r.source, workers, r.round + 1, true})
		}
	}
	p := tech.Default()
	builds := make(map[string]func(tech.Params) *netlist.Netlist)
	for _, w := range testWorkloads() {
		builds[w.name] = w.build
	}
	// merges counts the corner sessions' merged /slack reads by how the
	// view was built: refolded from the previous version's, or in full.
	var merges [2]int
	cornerRuns := 0
	for _, sc := range sessions {
		opt := Options{Params: p, Sched: testSchedule(), Core: core.Options{Workers: sc.workers}}
		if sc.corners {
			opt.Corners = tech.Corners()
		}
		t.Run(sc.name, func(t *testing.T) {
			if sc.corners {
				cornerRuns++
			}
			ctx := context.Background()
			rng := rand.New(rand.NewSource(sc.source))
			// The merged reads draw from a source of their own, so the
			// replayed sessions keep their batches.
			reads := rand.New(rand.NewSource(sc.source + 1))
			s, err := New(ctx, sc.workload, builds[sc.workload](p), opt)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < sc.rounds; round++ {
				batch := make([]Delta, 1+rng.Intn(3))
				for i := range batch {
					batch[i] = randomDelta(rng, s)
				}
				before := s.Result()
				st, err := s.Apply(ctx, batch)
				if err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				if want := paths.CountChanged(before, s.Result()); st.ChangedNodes != want {
					t.Fatalf("round %d after %v: ChangedNodes %d from the relaxed nodes, %d comparing every node", round, batch, st.ChangedNodes, want)
				}
				if sc.corners && reads.Intn(4) > 0 {
					refold := s.merged.prev != nil
					if _, err := s.Slack(ctx, 10, ""); err != nil {
						t.Fatalf("round %d: merged Slack: %v", round, err)
					}
					if refold {
						merges[0]++
					} else {
						merges[1]++
					}
				}
				if err := s.SelfCheck(ctx); err != nil {
					t.Fatalf("round %d after %v: %v", round, batch, err)
				}
			}
		})
	}
	if cornerRuns == 2 && (merges[0] == 0 || merges[1] == 0) {
		t.Fatalf("the corner sessions' merged reads refolded %d views and merged %d in full; want both", merges[0], merges[1])
	}
}

// TestResizeConeSmall pins the incremental acceptance criterion: a
// single-transistor resize near the datapath's outputs re-visits under 20%
// of the stages and still reproduces the from-scratch result bit for bit,
// critical path included.
func TestResizeConeSmall(t *testing.T) {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
	s := newTestSession(t, "datapath8x8", nl, 1)

	// Pick a device in the stage with the least gate fanout, so the
	// edit's forward cone is as small as the design allows (an output
	// driver or a leaf of the control logic).
	var victim *netlist.Transistor
	bestFanout := -1
	for _, stg := range s.stages.Stages {
		fanout := 0
		for _, n := range stg.Nodes {
			fanout += len(n.Gates)
		}
		if len(stg.Trans) > 0 && (bestFanout < 0 || fanout < bestFanout) {
			bestFanout = fanout
			victim = stg.Trans[0]
		}
	}
	if victim == nil {
		t.Fatal("no stage found in datapath")
	}

	st, err := s.Apply(context.Background(), []Delta{{Op: "resize", ID: victim.ID, W: victim.W * 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st.StagesTotal == 0 || st.ConeStages*5 >= st.StagesTotal {
		t.Fatalf("resize cone too large: %d of %d stages (want <20%%)", st.ConeStages, st.StagesTotal)
	}
	t.Logf("resize cone: %d of %d stages (%.1f%%), %d/%d comps relaxed",
		st.ConeStages, st.StagesTotal,
		100*float64(st.ConeStages)/float64(st.StagesTotal),
		st.CompsRelaxed, st.Comps)
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Path recovery must also match a from-scratch run: this exercises
	// the predecessor remap across the model rebuild.
	ref := scratchAnalyze(t, s)
	got := core.FormatPath(s.res.CriticalPath())
	want := core.FormatPath(ref.CriticalPath())
	if got != want {
		t.Fatalf("critical path differs after resize:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func scratchAnalyze(t *testing.T, s *Session) *core.Result {
	t.Helper()
	s.nl.Finalize()
	stg := stage.Extract(s.nl)
	flow.Analyze(s.nl)
	m := delay.Build(s.nl, stg, s.opt.Params, s.delayOpt(s.opt.Obs))
	ref, err := core.Analyze(context.Background(), s.nl, m, s.opt.Sched, s.opt.Core)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestAddRemoveRoundtrip exercises the structural paths: a stage that
// appears, then vanishes entirely — the removed stage's nodes must fall
// back to "never transitions" exactly as a fresh analysis would conclude.
func TestAddRemoveRoundtrip(t *testing.T) {
	p := tech.Default()
	b := gen.New("chain", p)
	b.Output(b.InvChain(b.Input("in"), 8))
	s := newTestSession(t, "chain", b.Finish(), 1)

	st, err := s.Apply(context.Background(), []Delta{
		{Op: "add", Kind: "d", Gate: "spur", A: "vdd", B: "spur", W: 2, L: 8},
		{Op: "add", Kind: "e", Gate: "in", A: "spur", B: "gnd", W: 4, L: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.AddedIDs) != 2 {
		t.Fatalf("AddedIDs = %v, want 2 ids", st.AddedIDs)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatalf("after add: %v", err)
	}
	sp := s.nl.Lookup("spur")
	if sp == nil || s.res.Settle(sp) < 0 {
		t.Fatalf("spur node should settle after add; got %v", s.res.Settle(sp))
	}

	if _, err := s.Apply(context.Background(), []Delta{
		{Op: "remove", ID: st.AddedIDs[0]},
		{Op: "remove", ID: st.AddedIDs[1]},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatalf("after remove: %v", err)
	}
	if s.nl.TransByID(st.AddedIDs[0]) != nil {
		t.Fatal("removed device still addressable")
	}
}

// TestBadDeltasLeaveSessionIntact: a batch that fails validation must not
// change anything — resolution happens before any mutation.
func TestBadDeltasLeaveSessionIntact(t *testing.T) {
	p := tech.Default()
	b := gen.New("chain", p)
	b.Output(b.InvChain(b.Input("in"), 4))
	s := newTestSession(t, "chain", b.Finish(), 1)
	before := s.Info()

	bad := [][]Delta{
		{{Op: "teleport"}},
		{{Op: "resize", ID: 99999, W: 4}},
		{{Op: "resize", ID: 1, W: -3}},
		{{Op: "setcap", Node: "nope", Cap: 0.1}},
		{{Op: "annotate", Node: "in", Attrs: []string{"sparkly"}}},
		{{Op: "add", Kind: "q", Gate: "a", A: "b", B: "c", W: 4, L: 2}},
		{{Op: "resize", ID: 1, W: 8}, {Op: "remove", ID: 424242}}, // second fails: whole batch rejected
	}
	for _, batch := range bad {
		if _, err := s.Apply(context.Background(), batch); err == nil {
			t.Fatalf("Apply(%v) should fail", batch)
		}
	}
	after := s.Info()
	if before.Nodes != after.Nodes || before.Devices != after.Devices || before.Applied != after.Applied {
		t.Fatalf("failed batches changed the session: %+v -> %+v", before, after)
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFullResetsAndMatches: Full() after a run of edits equals the
// incremental state it replaces.
func TestFullResetsAndMatches(t *testing.T) {
	p := tech.Default()
	b := gen.New("chain", p)
	b.Output(b.InvChain(b.Input("in"), 8))
	s := newTestSession(t, "chain", b.Finish(), 1)

	if _, err := s.Apply(context.Background(), []Delta{{Op: "setcap", Node: "in", Cap: 0.25}}); err != nil {
		t.Fatal(err)
	}
	incRes := s.Result()
	st, err := s.Full(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatal("Full() stats not marked full")
	}
	fullRes := s.Result()
	for i := range fullRes.RiseAt.Len() {
		if fullRes.RiseAt.At(i) != incRes.RiseAt.At(i) || fullRes.FallAt.At(i) != incRes.FallAt.At(i) {
			t.Fatalf("Full() arrivals differ from incremental at node %d", i)
		}
	}
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQuerySnapshots covers the server-facing DTOs.
func TestQuerySnapshots(t *testing.T) {
	p := tech.Default()
	b := gen.New("chain", p)
	b.Output(b.InvChain(b.Input("in"), 4))
	s := newTestSession(t, "chain", b.Finish(), 1)

	if _, ok := s.NodeTiming("no-such-node"); ok {
		t.Fatal("NodeTiming of missing node reported ok")
	}
	nt, ok := s.NodeTiming("in")
	if !ok || nt.Name != "in" || !strings.Contains(nt.Flags, "input") {
		t.Fatalf("NodeTiming(in) = %+v, %v", nt, ok)
	}
	if nt.Settle == nil || *nt.Settle != 0 {
		t.Fatalf("input settle = %v, want 0", nt.Settle)
	}
	vdd, ok := s.NodeTiming("vdd")
	if !ok || vdd.Settle != nil {
		t.Fatalf("vdd should be static: %+v", vdd)
	}

	crit := s.Critical(3)
	if len(crit) == 0 || len(crit[0].Steps) == 0 {
		t.Fatalf("Critical(3) = %+v", crit)
	}
	if crit[0].Check.Kind != core.CheckOutput.String() {
		t.Fatalf("worst endpoint kind = %q", crit[0].Check.Kind)
	}

	info := s.Info()
	if info.Nodes != len(s.nl.Nodes) || info.Devices != len(s.nl.Trans) || info.Name != "chain" {
		t.Fatalf("Info() = %+v", info)
	}
	devs := s.Devices()
	if len(devs) != len(s.nl.Trans) || devs[0].ID == 0 {
		t.Fatalf("Devices() = %d entries", len(devs))
	}
}
