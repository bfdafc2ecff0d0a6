package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/cow"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// oracleChecks is an independent reference for runChecks: every node's
// checks from first principles, over a scan of the whole arc array
// rather than the plan's in-arc lists, with clocked storage and the
// clock windows recomputed. Arcs are visited in arc order and both
// polarities rise first, so where several candidates tie for one check
// the first wins — the documented rule. The list is then put in report
// order, which is total, so it must equal the engine's element by
// element, producing arc included.
func oracleChecks(r *Result) []Check {
	m, s := r.Model, r.Sched
	n := len(r.NL.Nodes)
	clock := func(v int32) bool { return m.NodeFlags[v]&netlist.FlagClock != 0 }
	storage := make([]bool, n)
	for i := range m.Edges.Len() {
		e := m.Edges.Ref(i)
		if m.NodeFlags[e.To]&netlist.FlagStorage != 0 && clock(e.From) {
			storage[e.To] = true
		}
	}
	loop := make(map[int]bool)
	for _, nd := range r.LoopNodes() {
		loop[nd.Index] = true
	}
	arrival := func(at [2][]float64, v int32, pol Polarity) float64 { return at[pol][v] }
	settle := [2][]float64{r.RiseAt.Slice(), r.FallAt.Slice()}
	early := [2][]float64{r.EarlyRise.Slice(), r.EarlyFall.Slice()}
	var out []Check
	for v, node := range r.NL.Nodes {
		var latch [2][2]*Check // [phase-1][pol]
		var race [2]*Check     // [phase-1]
		var mine []Check
		dead := false
		for ei := range m.Edges.Len() {
			e := m.Edges.Ref(ei)
			if int(e.To) != v {
				continue
			}
			for _, pol := range []Polarity{Rise, Fall} {
				d, mask := e.DRise, e.MaskRise
				if pol == Fall {
					d, mask = e.DFall, e.MaskFall
				}
				if mask == 0 || math.IsInf(d, 1) {
					continue
				}
				if mask == delay.MaskPhi1|delay.MaskPhi2 {
					if !dead {
						dead = true
						mine = append(mine, Check{Kind: CheckDeadPath, Node: node, Pol: pol, edge: int32(ei)})
					}
					continue
				}
				phase := 1
				if mask == delay.MaskPhi2 {
					phase = 2
				}
				fromPol := Rise
				switch {
				case e.GateArc:
				case e.Invert:
					fromPol = 1 - pol
				default:
					fromPol = pol
				}
				if storage[v] && !clock(e.From) {
					if t := arrival(early, e.From, fromPol); !math.IsInf(t, 1) {
						prevClose := s.Fall(phase) - s.Period
						c := Check{Kind: CheckRace, Node: node, Pol: pol, Phase: phase,
							Arrival: t, Deadline: prevClose, Slack: t - prevClose, OK: t-prevClose >= 0, edge: int32(ei)}
						if race[phase-1] == nil || c.Slack < race[phase-1].Slack {
							race[phase-1] = &c
						}
					}
				}
				cause := arrival(settle, e.From, fromPol)
				if math.IsInf(cause, -1) {
					continue
				}
				clamp, deadline := s.Rise(phase), s.Fall(phase)
				if phase == 1 && storage[v] && cause > deadline {
					clamp, deadline = clamp+s.Period, deadline+s.Period
				}
				if cause > deadline {
					mine = append(mine, Check{Kind: CheckMissedWindow, Node: node, Pol: pol, Phase: phase,
						Arrival: cause, Deadline: deadline, Slack: deadline - cause, edge: int32(ei)})
					continue
				}
				arr := math.Max(cause, clamp) + d
				c := Check{Kind: CheckLatch, Node: node, Pol: pol, Phase: phase,
					Arrival: arr, Deadline: deadline, Slack: deadline - arr, OK: deadline-arr >= 0, edge: int32(ei)}
				if l := latch[phase-1][pol]; l == nil || c.Slack < l.Slack {
					latch[phase-1][pol] = &c
				}
			}
		}
		for _, ph := range latch {
			for _, c := range ph {
				if c != nil {
					mine = append(mine, *c)
				}
			}
		}
		for _, c := range race {
			if c != nil {
				mine = append(mine, *c)
			}
		}
		if node.Flags.Has(netlist.FlagOutput) {
			if t := math.Max(r.RiseAt.At(v), r.FallAt.At(v)); !math.IsInf(t, -1) {
				pol := Rise
				if r.FallAt.At(v) > r.RiseAt.At(v) {
					pol = Fall
				}
				mine = append(mine, Check{Kind: CheckOutput, Node: node, Pol: pol,
					Arrival: t, Deadline: s.Period, Slack: s.Period - t, OK: s.Period-t >= 0, edge: -1})
			}
		}
		if loop[v] {
			mine = append(mine, Check{Kind: CheckLoop, Node: node, edge: -1})
		}
		out = append(out, mine...)
	}
	slices.SortFunc(out, func(x, y Check) int { return compareChecks(&x, &y) })
	return out
}

// oracleInputTimes are the primary-input arrivals the oracle tests run
// at: the cycle start (the launch clamp times the latches), inside the
// φ1 window (data arcs into clocked storage arrive after their clock
// arcs), and exactly at each phase's fall, so that a clocked arc fed
// straight from an input sees a cause equal to its deadline — the
// boundary of the φ1 wrap and the missed-window rules.
func oracleInputTimes(s clocks.Schedule) []float64 {
	return []float64{0, (s.Rise(1) + s.Fall(1)) / 2, s.Fall(1), s.Fall(2)}
}

// TestChecksMatchOracle checks the engine's timing checks — kind, node,
// polarity, phase, times, verdict and producing arc, in report order —
// against oracleChecks on the oracle circuits, at every oracle input
// time and at one and several workers.
func TestChecksMatchOracle(t *testing.T) {
	boundary := false
	for _, tc := range oracleCircuits(tech.Default()) {
		for _, period := range []float64{400, 30} {
			nl, m := oracleModel(t, tc.name, tc.build, period)
			s := clocks.TwoPhase(period, 0.8)
			for _, at := range oracleInputTimes(s) {
				for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
					r, err := Analyze(context.Background(), nl, m, s, Options{DefaultInputTime: at, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					want := oracleChecks(r)
					if len(r.Checks) != len(want) {
						t.Fatalf("%s period %g inputs at %g workers %d: %d checks, oracle %d\n got %v\nwant %v",
							tc.name, period, at, workers, len(r.Checks), len(want), r.Checks, want)
					}
					for i := range want {
						if r.Checks[i] != want[i] {
							t.Fatalf("%s period %g inputs at %g workers %d: check %d\n got %s (arc %d)\nwant %s (arc %d)",
								tc.name, period, at, workers, i, r.Checks[i], r.Checks[i].edge, want[i], want[i].edge)
						}
						c := want[i]
						boundary = boundary || c.Kind == CheckLatch && c.Phase == 1 && c.Deadline == s.Fall(1) &&
							c.Arrival == s.Fall(1)+latchDelay(m, c)
					}
				}
			}
		}
	}
	if !boundary {
		t.Fatal("no oracle circuit checks a storage node whose cause equals its φ1 deadline")
	}
}

// latchDelay is the delay of a latch check's producing arc.
func latchDelay(m *delay.Model, c Check) float64 {
	e := m.Arc(c.edge)
	if c.Pol == Fall {
		return e.DFall
	}
	return e.DRise
}

// TestWorstSlackFirstWins pins WorstSlack's tie rule: of equal minimum
// slacks the first in node order wins, and at one node rise before
// fall. Two identical inverters on two inputs give the second's nodes
// their twins' slacks bit for bit, so the minimum is always tied; a
// strong pullup puts it on the inputs' rise, a weak one on their fall.
func TestWorstSlackFirstWins(t *testing.T) {
	seen := map[Polarity]bool{}
	for _, ratio := range []float64{0.1, 4} {
		b := gen.New("twins", tech.Default())
		for _, in := range []string{"a", "b"} {
			b.Output(b.InverterRatio(b.Input(in), ratio))
		}
		nl := b.Finish()
		nl, m := oracleModel(t, "twins", func() *netlist.Netlist { return nl }, 100)
		r := analyzeFor(t, nl, m, 100, 1)
		q := requiredFor(t, r, 1)
		idx, pol, worst, ok := q.WorstSlack()
		if !ok {
			t.Fatalf("ratio %g: no finite slack", ratio)
		}
		first, ties := -1, 0
		var firstPol Polarity
		for i := range nl.Nodes {
			for _, p := range []Polarity{Rise, Fall} {
				if math.Float64bits(q.Slack(i, p)) != math.Float64bits(worst) {
					continue
				}
				if first < 0 {
					first, firstPol = i, p
				}
				ties++
			}
		}
		if ties < 2 {
			t.Fatalf("ratio %g: the worst slack %v is not tied", ratio, worst)
		}
		if idx != first || pol != firstPol {
			t.Fatalf("ratio %g: WorstSlack = node %d %s, want the first of %d ties, node %d %s",
				ratio, idx, pol, ties, first, firstPol)
		}
		seen[pol] = true
	}
	if !seen[Rise] || !seen[Fall] {
		t.Fatalf("the cases tie the worst slack only on %v", seen)
	}
}

// TestCheckBlocksMatchList: the checks by node and the report-ordered
// list hold the same checks. On a 10k chip's from-scratch result, whose
// blocks are derived from its list, and on results extended from it by a
// resize and a setcap, whose blocks are rebuilt where the cone reached
// and whose list is sorted from them: every node's NodeChecks are the
// list's checks on that node, in list order, and the blocks hold each
// node's in its block, in index order, with nothing else.
func TestCheckBlocksMatchList(t *testing.T) {
	ctx := context.Background()
	p := tech.Default()
	nl := gen.TiledChip(p, gen.DefaultTiledChip(10_000))
	st := stage.Extract(nl)
	flow.Analyze(nl)
	dopt := delay.Options{Workers: 1}
	opt := Options{Workers: 1}
	cache := delay.NewCache()
	m, _, err := delay.BuildWithCache(ctx, nl, st, p, dopt, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(ctx, nl, m, sched(), opt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, r *Result) {
		t.Helper()
		byNode := make(map[int][]Check)
		for _, c := range r.CheckList() {
			byNode[c.Node.Index] = append(byNode[c.Node.Index], c)
		}
		if len(byNode) < 100 {
			t.Fatalf("%s: only %d nodes have checks", what, len(byNode))
		}
		blocks := r.CheckBlocks()
		if len(blocks) != (len(nl.Nodes)+cow.ChunkLen-1)/cow.ChunkLen {
			t.Fatalf("%s: %d check blocks over %d nodes", what, len(blocks), len(nl.Nodes))
		}
		at := 0
		for v := range nl.Nodes {
			want := byNode[v]
			if got := r.NodeChecks(v); !slices.Equal(got, want) {
				t.Fatalf("%s: node %s: NodeChecks holds %d checks, the list %d", what, nl.Nodes[v], len(got), len(want))
			}
			if v%cow.ChunkLen == 0 {
				at = 0
			}
			blk := blocks[v/cow.ChunkLen]
			if at+len(want) > len(blk) || !slices.Equal(blk[at:at+len(want)], want) {
				t.Fatalf("%s: node %s: block %d does not hold its checks at %d", what, nl.Nodes[v], v/cow.ChunkLen, at)
			}
			at += len(want)
			if v%cow.ChunkLen == cow.ChunkLen-1 || v == len(nl.Nodes)-1 {
				if at != len(blk) {
					t.Fatalf("%s: block %d holds %d checks, its nodes %d", what, v/cow.ChunkLen, len(blk), at)
				}
			}
		}
	}
	check("from scratch", res)
	tr := nl.Trans[len(nl.Trans)/2]
	node := nl.Nodes[len(nl.Nodes)/3]
	for i, edit := range []func() []int{
		func() []int { tr.W *= 2; return []int{tr.Gate.Index, tr.A.Index, tr.B.Index} },
		func() []int { node.Cap += 0.2; return []int{node.Index} },
	} {
		loads := edit()
		m, bs, err := delay.BuildWithCache(ctx, nl, st, p, dopt, cache, loads)
		if err != nil {
			t.Fatal(err)
		}
		var seed []int32
		for _, stg := range bs.Rebuilt {
			for _, nd := range stg.Nodes {
				seed = append(seed, int32(nd.Index))
			}
		}
		next, ds, err := AnalyzeIncremental(ctx, nl, m, sched(), opt, res, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !ds.ReusedWave || ds.NodesRelaxed == 0 {
			t.Fatalf("edit %d: reused wave %v, %d nodes relaxed", i, ds.ReusedWave, ds.NodesRelaxed)
		}
		check("incremental", next)
		ref, err := Analyze(ctx, nl, m, sched(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(next.CheckList(), ref.Checks) {
			t.Fatalf("edit %d: the incremental result's checks differ from a from-scratch analysis's", i)
		}
		res = next
	}
}
