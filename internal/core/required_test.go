package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"testing"

	"nmostv/internal/clocks"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

func analyzeFor(t *testing.T, nl *netlist.Netlist, m *delay.Model, period float64, workers int) *Result {
	t.Helper()
	r, err := Analyze(context.Background(), nl, m, clocks.TwoPhase(period, 0.8), Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// requiredFor runs a fresh backward pass, bypassing Required's memo, so
// the worker-count comparisons below compare independent passes.
func requiredFor(t *testing.T, r *Result, workers int) *Required {
	t.Helper()
	q, err := r.backwardPass(context.Background(), Options{Workers: workers}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSlackEqualsRATMinusAT pins the defining identity of the slack
// arrays: for every node and polarity, slack is exactly RAT − AT in IEEE
// arithmetic — including the infinite cases (+Inf RAT ⇒ +Inf slack,
// −Inf AT ⇒ +Inf slack), never a NaN.
func TestSlackEqualsRATMinusAT(t *testing.T) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
	for _, period := range []float64{2000, 40} {
		r := analyzeFor(t, nl, m, period, 1)
		q := requiredFor(t, r, 1)
		finite, negative := 0, 0
		slackRise, slackFall := slackArrays(q)
		for i := range nl.Nodes {
			wantR := q.RiseRAT.At(i) - r.RiseAt.At(i)
			wantF := q.FallRAT.At(i) - r.FallAt.At(i)
			if math.Float64bits(slackRise[i]) != math.Float64bits(wantR) ||
				math.Float64bits(slackFall[i]) != math.Float64bits(wantF) {
				t.Fatalf("period %g node %d: slack != RAT − AT", period, i)
			}
			if math.IsNaN(slackRise[i]) || math.IsNaN(slackFall[i]) {
				t.Fatalf("period %g node %d: NaN slack", period, i)
			}
			if !math.IsInf(slackRise[i], 1) {
				finite++
				if slackRise[i] < 0 {
					negative++
				}
			}
		}
		if finite == 0 {
			t.Fatalf("period %g: no finite slack anywhere — seeds missing", period)
		}
		if period == 40 && negative == 0 {
			t.Fatal("period 40: a starved clock must produce negative slack")
		}
	}
}

// slackArrays reads every node's slacks off q, per polarity.
func slackArrays(q *Required) (rise, fall []float64) {
	rise, fall = make([]float64, q.RiseRAT.Len()), make([]float64, q.RiseRAT.Len())
	for i := range rise {
		rise[i], fall[i] = q.Slack(i, Rise), q.Slack(i, Fall)
	}
	return rise, fall
}

func assertRequiredIdentical(t *testing.T, workers int, base, q *Required) {
	t.Helper()
	baseRise, baseFall := slackArrays(base)
	qRise, qFall := slackArrays(q)
	arrays := []struct {
		name       string
		want, have []float64
	}{
		{"RiseRAT", base.RiseRAT.Slice(), q.RiseRAT.Slice()},
		{"FallRAT", base.FallRAT.Slice(), q.FallRAT.Slice()},
		{"SlackRise", baseRise, qRise},
		{"SlackFall", baseFall, qFall},
	}
	for _, arr := range arrays {
		if len(arr.want) != len(arr.have) {
			t.Fatalf("workers=%d: %s length %d, serial %d", workers, arr.name, len(arr.have), len(arr.want))
		}
		for i := range arr.want {
			if math.Float64bits(arr.want[i]) != math.Float64bits(arr.have[i]) {
				t.Fatalf("workers=%d: %s[%d] = %v, serial %v",
					workers, arr.name, i, arr.have[i], arr.want[i])
			}
		}
	}
}

// TestRequiredWorkersBitIdentical extends the engine's golden-equality
// guarantee to the backward pass: required times and slacks are
// bit-identical serial vs. every parallel worker count.
func TestRequiredWorkersBitIdentical(t *testing.T) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
	r := analyzeFor(t, nl, m, 2000, 1)
	base := requiredFor(t, r, 1)
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		assertRequiredIdentical(t, w, base, requiredFor(t, r, w))
	}
	// The backward pass must also be independent of which worker count
	// produced the forward arrivals.
	rp := analyzeFor(t, nl, m, 2000, runtime.GOMAXPROCS(0)+1)
	assertRequiredIdentical(t, -1, base, requiredFor(t, rp, runtime.GOMAXPROCS(0)))
}

// TestRequiredCyclicComponent runs the backward pass over a design with a
// genuine cyclic SCC (cross-coupled NOR pair): the bounded min-iteration
// must terminate and stay bit-identical across worker counts.
func TestRequiredCyclicComponent(t *testing.T) {
	p := tech.Default()
	b := gen.New("latchring", p)
	in := b.Input("in")
	q := b.Fresh("q")
	qb := b.Fresh("qb")
	b.NL.AddTransistor(netlist.Dep, q, b.NL.VDD, q, 4, 8)
	b.NL.AddTransistor(netlist.Enh, in, q, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Enh, qb, q, b.NL.GND, 8, 4)
	b.NL.AddTransistor(netlist.Dep, qb, b.NL.VDD, qb, 4, 8)
	b.NL.AddTransistor(netlist.Enh, q, qb, b.NL.GND, 8, 4)
	for i := 0; i < 32; i++ {
		b.Output(b.Inverter(in))
	}
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{Workers: 1})
	r := analyzeFor(t, nl, m, 500, 1)
	base := requiredFor(t, r, 1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		assertRequiredIdentical(t, w, base, requiredFor(t, r, w))
	}
}

// oracleRAT is an independent O(N·E) reference for required times: seeds
// recomputed from first principles and a Bellman-Ford-style sweep over
// the whole edge list until fixpoint, no wave plan, no level order. On a
// converging design the downward min-iteration has a unique fixpoint, so
// any relaxation order lands on the same values bit for bit.
func oracleRAT(t *testing.T, r *Result) (rise, fall []float64) {
	t.Helper()
	n := len(r.NL.Nodes)
	rise = make([]float64, n)
	fall = make([]float64, n)
	for i := range rise {
		rise[i], fall[i] = math.Inf(1), math.Inf(1)
	}
	// Clocked-storage classification, recomputed rather than borrowed.
	cs := make([]bool, n)
	for i := range r.Model.Edges.Len() {
		e := r.Model.Edges.Ref(i)
		if r.Model.NodeFlags[e.To]&netlist.FlagStorage != 0 &&
			r.Model.NodeFlags[e.From]&netlist.FlagClock != 0 {
			cs[e.To] = true
		}
	}
	at := func(i int32, pol Polarity) float64 {
		if pol == Rise {
			return r.RiseAt.At(int(i))
		}
		return r.FallAt.At(int(i))
	}
	rat := func(i int32, pol Polarity) *float64 {
		if pol == Rise {
			return &rise[i]
		}
		return &fall[i]
	}
	// One edge-transition visit: delay, cause polarity, effective window.
	type visit struct {
		d, deadline float64
		fromPol     Polarity
		cause       float64
		constrained bool
		transmits   bool // fires forward (in window, cause finite)
		seeded      bool // masked with live window and finite cause
	}
	look := func(e *delay.Edge, pol Polarity) (v visit, ok bool) {
		v.d = e.DRise
		mask := e.MaskRise
		if pol == Fall {
			v.d, mask = e.DFall, e.MaskFall
		}
		if math.IsInf(v.d, 1) {
			return v, false
		}
		switch {
		case e.GateArc:
			v.fromPol = Rise
		case e.Invert:
			v.fromPol = 1 - pol
		default:
			v.fromPol = pol
		}
		v.cause = at(e.From, v.fromPol)
		if math.IsInf(v.cause, -1) {
			return v, false
		}
		phase := 0
		switch mask {
		case 0:
		case delay.MaskPhi1:
			phase = 1
		case delay.MaskPhi2:
			phase = 2
		default:
			return v, false // dead path
		}
		if phase != 0 {
			v.constrained = true
			v.deadline = r.Sched.Fall(phase)
			if v.cause > v.deadline && phase == 1 && cs[e.To] {
				v.deadline += r.Sched.Period
			}
			v.seeded = true
			v.transmits = v.cause <= v.deadline
		} else {
			v.transmits = true
		}
		return v, true
	}
	// Seeds: masked arcs and primary outputs.
	for i := range r.Model.Edges.Len() {
		e := r.Model.Edges.Ref(i)
		for _, pol := range []Polarity{Rise, Fall} {
			v, ok := look(e, pol)
			if !ok || !v.seeded {
				continue
			}
			req := v.deadline - v.d
			if !v.transmits {
				req = v.deadline
			}
			if p := rat(e.From, v.fromPol); req < *p {
				*p = req
			}
		}
	}
	for _, nd := range r.NL.Nodes {
		if !nd.Flags.Has(netlist.FlagOutput) {
			continue
		}
		i := int32(nd.Index)
		if !math.IsInf(r.RiseAt.At(int(i)), -1) && r.Sched.Period < rise[i] {
			rise[i] = r.Sched.Period
		}
		if !math.IsInf(r.FallAt.At(int(i)), -1) && r.Sched.Period < fall[i] {
			fall[i] = r.Sched.Period
		}
	}
	// Full-edge sweeps to fixpoint.
	for iter := 0; ; iter++ {
		if iter > 2*n+4 {
			t.Fatal("oracle did not converge — test circuit unsuitable (diverging cycle)")
		}
		changed := false
		for i := range r.Model.Edges.Len() {
			e := r.Model.Edges.Ref(i)
			if cs[e.To] && r.Model.NodeFlags[e.From]&netlist.FlagClock == 0 {
				continue
			}
			for _, pol := range []Polarity{Rise, Fall} {
				v, ok := look(e, pol)
				if !ok || !v.transmits {
					continue
				}
				tr := *rat(e.To, pol)
				if math.IsInf(tr, 1) {
					continue
				}
				relief := tr - v.d
				if v.constrained && relief >= v.deadline {
					continue
				}
				if p := rat(e.From, v.fromPol); relief < *p {
					*p = relief
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return rise, fall
}

// oracleCircuits are small loop-free designs spanning the arc kinds the
// oracles must agree with the engine on: latch pipelines, restoring
// chains, dynamic (precharged) logic — one with a clocked evaluate
// device, whose arcs the launch clamp holds to the φ2 window — and pass
// networks, one of which only the launch clamp times.
func oracleCircuits(p tech.Params) []struct {
	name  string
	build func() *netlist.Netlist
} {
	return []struct {
		name  string
		build func() *netlist.Netlist
	}{
		{"shift-register", func() *netlist.Netlist {
			b := gen.New("sr", p)
			phi1 := b.Clock("phi1", 1)
			phi2 := b.Clock("phi2", 2)
			b.Output(b.ShiftRegister(b.Input("in"), phi1, phi2, 4))
			return b.Finish()
		}},
		{"inv-chain", func() *netlist.Netlist {
			b := gen.New("chain", p)
			b.Output(b.InvChain(b.Input("in"), 7))
			return b.Finish()
		}},
		{"dynamic-gate", func() *netlist.Netlist {
			b := gen.New("dyn", p)
			phi1 := b.Clock("phi1", 1)
			a := b.Input("a")
			c := b.Input("c")
			dyn := b.PrechargedNode(phi1)
			b.DischargeBranch(dyn, a, c)
			b.Output(b.Inverter(dyn))
			return b.Finish()
		}},
		{"dynamic-evaluate", func() *netlist.Netlist {
			b := gen.New("dyneval", p)
			phi1 := b.Clock("phi1", 1)
			phi2 := b.Clock("phi2", 2)
			dyn := b.PrechargedNode(phi1)
			b.DischargeBranch(dyn, phi2, b.Input("a"))
			b.Output(b.Inverter(dyn))
			return b.Finish()
		}},
		{"precharged-pass", func() *netlist.Netlist {
			// bus is annotated precharged but has no pullup of its own,
			// so nothing re-establishes a high on it: the φ2 pass
			// device's gate arc into x cannot rise, and x rises only
			// along the data arc from bus, which the launch clamp holds
			// to φ2's rise. The device is annotated to flow from bus to
			// x, which keeps the design loop-free.
			b := gen.New("pp", p)
			phi2 := b.Clock("phi2", 2)
			bus := b.Fresh("bus")
			bus.Flags |= netlist.FlagPrecharged
			b.DischargeBranch(bus, b.Input("a"))
			x := b.Fresh("x")
			b.NL.AddTransistor(netlist.Enh, phi2, bus, x, b.Sizes.PassW, b.Sizes.PassL).ForceFlow = netlist.FlowAB
			b.Output(b.Inverter(x))
			return b.Finish()
		}},
		{"pass-latch", func() *netlist.Netlist {
			b := gen.New("pl", p)
			phi1 := b.Clock("phi1", 1)
			chain := b.PassChain(b.Input("in"), b.Input("ctl"), 3)
			_, qbar := b.Latch(phi1, chain)
			b.Output(b.Inverter(qbar))
			return b.Finish()
		}},
		{"input-first-latch", func() *netlist.Netlist {
			// The input is made before the clock, so the latch's data
			// arc precedes its clock arc and the design's first check
			// is a race margin; an input timed at φ1's fall puts the
			// storage node's cause exactly on its deadline.
			b := gen.New("ifl", p)
			d := b.Input("d")
			_, qbar := b.Latch(b.Clock("phi1", 1), d)
			b.Output(b.Inverter(qbar))
			return b.Finish()
		}},
		{"dynamic-evaluate-deep", func() *netlist.Netlist {
			// A φ2 evaluate whose output chain is long enough that, at
			// the short period, the dynamic node is required before
			// φ2 falls: with an input timed at φ2's fall the evaluate
			// arc's cause sits on its deadline and its relief, not the
			// window, sets the input's required time.
			b := gen.New("dyndeep", p)
			phi1 := b.Clock("phi1", 1)
			phi2 := b.Clock("phi2", 2)
			dyn := b.PrechargedNode(phi1)
			b.DischargeBranch(dyn, phi2, b.Input("a"))
			b.Output(b.InvChain(dyn, 9))
			return b.Finish()
		}},
	}
}

// oracleModel builds one oracle circuit's model and fails the test if
// the engine finds a loop in it at the given period.
func oracleModel(t *testing.T, name string, build func() *netlist.Netlist, period float64) (*netlist.Netlist, *delay.Model) {
	t.Helper()
	p := tech.Default()
	nl := build()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{Workers: 1})
	for _, c := range analyzeFor(t, nl, m, period, 1).Checks {
		if c.Kind == CheckLoop {
			t.Fatalf("%s: oracle circuits must be loop-free", name)
		}
	}
	return nl, m
}

// TestRequiredMatchesOracle checks the engine's levelized backward pass
// against the brute-force reference on the oracle circuits, at every
// oracle input time.
func TestRequiredMatchesOracle(t *testing.T) {
	for _, tc := range oracleCircuits(tech.Default()) {
		for _, period := range []float64{400, 30} {
			nl, m := oracleModel(t, tc.name, tc.build, period)
			s := clocks.TwoPhase(period, 0.8)
			for _, at := range oracleInputTimes(s) {
				r, err := Analyze(context.Background(), nl, m, s, Options{DefaultInputTime: at, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				q := requiredFor(t, r, 1)
				wantRise, wantFall := oracleRAT(t, r)
				for i := range wantRise {
					if math.Float64bits(q.RiseRAT.At(i)) != math.Float64bits(wantRise[i]) ||
						math.Float64bits(q.FallRAT.At(i)) != math.Float64bits(wantFall[i]) {
						t.Fatalf("%s period %g inputs at %g: node %d (%s): engine RAT (%v, %v), oracle (%v, %v)",
							tc.name, period, at, i, nl.Nodes[i].Name,
							q.RiseRAT.At(i), q.FallRAT.At(i), wantRise[i], wantFall[i])
					}
				}
			}
		}
	}
}

// oracleArrivals is an independent reference for the forward passes:
// sources, case constants and clocked storage recomputed from first
// principles, then whole-arc-list sweeps to a fixpoint, no wave plan and
// no level order — max for the settle arrivals, min for the earliest,
// each arc clamped into and cut off by its clock window. Each sweep
// recomputes every non-source node from the previous sweep's values
// (a window cut-off makes an arc's contribution non-monotone in its
// cause, so values are recomputed, not only raised), which on a
// loop-free design reaches the unique fixpoint in depth+1 sweeps.
func oracleArrivals(t *testing.T, r *Result, opt Options) (rise, fall, erise, efall []float64) {
	t.Helper()
	n := len(r.NL.Nodes)
	var fixed [2][]bool
	fixed[Rise], fixed[Fall] = make([]bool, n), make([]bool, n)
	anchor := [2][]float64{make([]float64, n), make([]float64, n)}
	constant := map[string]bool{}
	for _, name := range append(append([]string(nil), opt.SetHigh...), opt.SetLow...) {
		constant[name] = true
	}
	for _, nd := range r.NL.Nodes {
		i := nd.Index
		anchor[Rise][i], anchor[Fall][i] = math.Inf(-1), math.Inf(-1)
		switch {
		case constant[nd.Name] || nd.Flags.Has(netlist.FlagSupply):
			fixed[Rise][i], fixed[Fall][i] = true, true
		case nd.Flags.Has(netlist.FlagClock):
			anchor[Rise][i], anchor[Fall][i] = r.Sched.Rise(nd.Phase), r.Sched.Fall(nd.Phase)
			fixed[Rise][i], fixed[Fall][i] = true, true
		case nd.Flags.Has(netlist.FlagInput):
			at := opt.DefaultInputTime
			if v, ok := opt.InputTime[nd.Name]; ok {
				at = v
			}
			anchor[Rise][i], anchor[Fall][i] = at, at
			fixed[Rise][i], fixed[Fall][i] = true, true
		case nd.Flags.Has(netlist.FlagPrecharged):
			anchor[Rise][i] = 0
			fixed[Rise][i] = true
		}
	}
	cs := make([]bool, n)
	for i := range r.Model.Edges.Len() {
		e := r.Model.Edges.Ref(i)
		if r.Model.NodeFlags[e.To]&netlist.FlagStorage != 0 &&
			r.Model.NodeFlags[e.From]&netlist.FlagClock != 0 {
			cs[e.To] = true
		}
	}
	// sweep runs one fixpoint: start is the value of a node no arc
	// reaches, better picks the kept candidate.
	sweep := func(anchor [2][]float64, start float64, better func(x, y float64) bool) [2][]float64 {
		cur := [2][]float64{make([]float64, n), make([]float64, n)}
		for pol := range cur {
			for i := range cur[pol] {
				cur[pol][i] = start
				if fixed[pol][i] {
					cur[pol][i] = anchor[pol][i]
				}
			}
		}
		for iter := 0; ; iter++ {
			if iter > n+2 {
				t.Fatal("arrival oracle did not converge — test circuit unsuitable")
			}
			next := [2][]float64{make([]float64, n), make([]float64, n)}
			for pol := range next {
				for i := range next[pol] {
					next[pol][i] = start
					if fixed[pol][i] {
						next[pol][i] = anchor[pol][i]
					}
				}
			}
			for i := range r.Model.Edges.Len() {
				e := r.Model.Edges.Ref(i)
				if cs[e.To] && r.Model.NodeFlags[e.From]&netlist.FlagClock == 0 {
					continue // data into clocked storage: a check, not an arc
				}
				for _, pol := range []Polarity{Rise, Fall} {
					d, mask := e.DRise, e.MaskRise
					if pol == Fall {
						d, mask = e.DFall, e.MaskFall
					}
					if fixed[pol][e.To] || math.IsInf(d, 1) {
						continue
					}
					fromPol := pol
					switch {
					case e.GateArc:
						fromPol = Rise
					case e.Invert:
						fromPol = 1 - pol
					}
					cause := cur[fromPol][e.From]
					if math.IsInf(cause, 0) {
						continue // the cause never transitions
					}
					switch mask {
					case 0:
					case delay.MaskPhi1, delay.MaskPhi2:
						phase := 1
						if mask == delay.MaskPhi2 {
							phase = 2
						}
						if cause > r.Sched.Fall(phase) {
							continue // missed the window
						}
						cause = math.Max(cause, r.Sched.Rise(phase))
					default:
						continue // needs both phases high: never conducts
					}
					if at := cause + d; better(at, next[pol][e.To]) {
						next[pol][e.To] = at
					}
				}
			}
			same := true
			for pol := range next {
				for i := range next[pol] {
					if math.Float64bits(next[pol][i]) != math.Float64bits(cur[pol][i]) {
						same = false
					}
				}
			}
			if same {
				return cur
			}
			cur = next
		}
	}
	settle := sweep(anchor, math.Inf(-1), func(x, y float64) bool { return x > y })
	// The early pass's sources take the settle anchors that transition.
	var early [2][]float64
	for pol := range early {
		early[pol] = make([]float64, n)
		for i := range early[pol] {
			early[pol][i] = math.Inf(1)
			if fixed[pol][i] && !math.IsInf(settle[pol][i], -1) {
				early[pol][i] = settle[pol][i]
			}
		}
	}
	best := sweep(early, math.Inf(1), func(x, y float64) bool { return x < y })
	return settle[Rise], settle[Fall], best[Rise], best[Fall]
}

// TestArrivalsMatchOracle checks the engine's forward passes — the walk
// from scratch, serial and fanned out — against the brute-force
// reference on the oracle circuits, bit for bit, at every oracle input
// time (oracleInputTimes).
func TestArrivalsMatchOracle(t *testing.T) {
	for _, tc := range oracleCircuits(tech.Default()) {
		for _, period := range []float64{400, 30} {
			nl, m := oracleModel(t, tc.name, tc.build, period)
			s := clocks.TwoPhase(period, 0.8)
			for _, at := range oracleInputTimes(s) {
				for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
					opt := Options{DefaultInputTime: at, Workers: workers}
					r, err := Analyze(context.Background(), nl, m, s, opt)
					if err != nil {
						t.Fatal(err)
					}
					rise, fall, erise, efall := oracleArrivals(t, r, opt)
					for _, arr := range []struct {
						name       string
						have, want []float64
					}{
						{"RiseAt", r.RiseAt.Slice(), rise},
						{"FallAt", r.FallAt.Slice(), fall},
						{"EarlyRise", r.EarlyRise.Slice(), erise},
						{"EarlyFall", r.EarlyFall.Slice(), efall},
					} {
						for i := range arr.want {
							if math.Float64bits(arr.have[i]) != math.Float64bits(arr.want[i]) {
								t.Fatalf("%s period %g inputs at %g workers %d: %s[%d] (%s) = %v, oracle %v",
									tc.name, period, opt.DefaultInputTime, workers, arr.name, i, nl.Nodes[i].Name, arr.have[i], arr.want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestOutputSlackMatchesCheck anchors the slack arrays to the check
// report where they must coincide: on an unclamped combinational chain,
// the worst node slack is exactly the output check's slack.
func TestOutputSlackMatchesCheck(t *testing.T) {
	p := tech.Default()
	b := gen.New("chain", p)
	out := b.Output(b.InvChain(b.Input("in"), 9))
	nl := b.Finish()
	st := stage.Extract(nl)
	flow.Analyze(nl)
	m := delay.Build(nl, st, p, delay.Options{Workers: 1})
	r := analyzeFor(t, nl, m, 100, 1)
	q := requiredFor(t, r, 1)
	var checkSlack float64
	found := false
	for _, c := range r.Checks {
		if c.Kind == CheckOutput && c.Node == out {
			checkSlack, found = c.Slack, true
		}
	}
	if !found {
		t.Fatal("no output check produced")
	}
	_, _, worst, ok := q.WorstSlack()
	if !ok {
		t.Fatal("no finite slack")
	}
	if math.Float64bits(worst) != math.Float64bits(checkSlack) {
		t.Fatalf("worst node slack %v != output check slack %v", worst, checkSlack)
	}
}

// TestSlackRanking pins the report contract: worst slack first,
// deterministic tiebreak, k truncation, no supply or clock rows.
func TestSlackRanking(t *testing.T) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	r := analyzeFor(t, nl, m, 800, 1)
	q := requiredFor(t, r, 1)
	all := r.SlackRanking(q, 0)
	if len(all) == 0 {
		t.Fatal("empty ranking")
	}
	for i, e := range all {
		if e.Node.IsSupply() || e.Node.IsClock() {
			t.Fatalf("entry %d is a supply/clock node %s", i, e.Node.Name)
		}
		if math.Float64bits(e.Slack) != math.Float64bits(q.Slack(e.Node.Index, e.Pol)) {
			t.Fatalf("entry %d slack mismatch vs Required", i)
		}
		if math.IsInf(e.Slack, 1) {
			t.Fatalf("entry %d unconstrained (+Inf) slack in ranking", i)
		}
		if i > 0 && all[i-1].Slack > e.Slack {
			t.Fatalf("ranking not sorted at %d: %v then %v", i, all[i-1].Slack, e.Slack)
		}
	}
	if top := r.SlackRanking(q, 5); len(top) != 5 {
		t.Fatalf("k=5 returned %d entries", len(top))
	} else {
		for i := range top {
			if top[i] != all[i] {
				t.Fatalf("k-truncation changed entry %d", i)
			}
		}
	}
}

// TestAnalyzeSharedPlanBitIdentical proves plan sharing is an identity:
// analyzing a corner-scaled model against the base model's plan produces
// exactly the result of analyzing it with a freshly computed plan.
func TestAnalyzeSharedPlanBitIdentical(t *testing.T) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 8, Words: 8, ShiftAmounts: 4})
	s := clocks.TwoPhase(2000, 0.8)
	base, err := Analyze(context.Background(), nl, m, s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow := tech.Slow()
	sm := delay.ScaleModel(m, slow.RScale, slow.CScale)
	fresh, err := Analyze(context.Background(), nl, sm, s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Analyze(context.Background(), nl, sm, s, Options{Workers: 1, Plan: base.Plan()})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, 1, fresh, shared)
	qf := requiredFor(t, fresh, 1)
	qs := requiredFor(t, shared, 1)
	assertRequiredIdentical(t, 1, qf, qs)
	// The corner takes the base's sources and storage through the plan.
	if shared.src != base.src || fresh.src == base.src {
		t.Fatal("the corner did not take the base's sources+storage through the plan, or took them without it")
	}
	// A non-matching plan must be ignored, not trusted.
	tiny := gen.New("tiny", tech.Default())
	tiny.Output(tiny.Inverter(tiny.Input("in")))
	tnl := tiny.Finish()
	tst := stage.Extract(tnl)
	flow.Analyze(tnl)
	tm := delay.Build(tnl, tst, tech.Default(), delay.Options{Workers: 1})
	mis, err := Analyze(context.Background(), tnl, tm, s, Options{Workers: 1, Plan: base.Plan()})
	if err != nil {
		t.Fatal(err)
	}
	if mis.wave == base.wave || mis.src == base.src {
		t.Fatal("mismatched plan was adopted")
	}
}

// TestRequiredCanceled: a canceled context aborts the reverse walk.
func TestRequiredCanceled(t *testing.T) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	r := analyzeFor(t, nl, m, 800, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Required(ctx, Options{Workers: 1}); err == nil {
		t.Fatal("pre-canceled context must abort the backward pass")
	}
}

// TestRequiredMemoized: Required runs the backward pass once per result
// and returns that pass to every later call, whatever their worker
// count; a call its context aborts keeps nothing, so the calls after it
// — here several at once — share one pass, bit-identical to a fresh one.
func TestRequiredMemoized(t *testing.T) {
	nl, m := datapathModel(gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	r := analyzeFor(t, nl, m, 800, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Required(ctx, Options{Workers: 1}); err == nil {
		t.Fatal("pre-canceled context must abort the backward pass")
	}
	tr := obs.NewTracer()
	got := make([]*Required, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := r.Required(context.Background(), Options{Workers: 1 + i, Obs: &obs.Obs{Tr: tr}})
			if err != nil {
				t.Error(err)
			}
			got[i] = q
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, q := range got[1:] {
		if q != got[0] {
			t.Fatal("concurrent Required calls returned different passes")
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Name string }
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	passes := 0
	for _, ev := range events {
		if ev.Name == "required" {
			passes++
		}
	}
	if passes != 1 {
		t.Fatalf("concurrent Required calls ran %d backward passes, want 1", passes)
	}
	assertRequiredIdentical(t, 1, requiredFor(t, r, 1), got[0])
}
