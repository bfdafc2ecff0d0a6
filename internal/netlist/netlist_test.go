package netlist

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestSupplyAliasing(t *testing.T) {
	nl := New("t")
	for _, name := range []string{"vdd", "Vdd", "VDD"} {
		if nl.Node(name) != nl.VDD {
			t.Errorf("Node(%q) must alias VDD", name)
		}
	}
	for _, name := range []string{"gnd", "GND", "vss", "VSS", "Vss"} {
		if nl.Node(name) != nl.GND {
			t.Errorf("Node(%q) must alias GND", name)
		}
	}
	if !nl.VDD.IsSupply() || !nl.GND.IsSupply() {
		t.Error("supplies must carry FlagSupply")
	}
}

func TestNodeIdentityAndLookup(t *testing.T) {
	nl := New("t")
	a := nl.Node("a")
	if nl.Node("a") != a {
		t.Error("Node must return the same node for the same name")
	}
	if nl.Lookup("a") != a {
		t.Error("Lookup must find created nodes")
	}
	if nl.Lookup("missing") != nil {
		t.Error("Lookup of unknown name must return nil")
	}
	if a.Index < 0 || nl.Nodes[a.Index] != a {
		t.Error("Index must locate the node in Nodes")
	}
}

func TestFinalizeRoles(t *testing.T) {
	nl := New("t")
	in, out, mid := nl.Node("in"), nl.Node("out"), nl.Node("mid")
	pu := nl.AddTransistor(Dep, out, nl.VDD, out, 4, 8)
	pd := nl.AddTransistor(Enh, in, out, nl.GND, 8, 4)
	pass := nl.AddTransistor(Enh, in, out, mid, 4, 4)
	nl.Finalize()

	if pu.Role != RolePullup {
		t.Errorf("depletion to VDD: role %v, want pullup", pu.Role)
	}
	if pd.Role != RolePulldown {
		t.Errorf("enh to GND: role %v, want pulldown", pd.Role)
	}
	if pass.Role != RolePass {
		t.Errorf("enh between signals: role %v, want pass", pass.Role)
	}
	if len(in.Gates) != 2 {
		t.Errorf("in gates %d devices, want 2", len(in.Gates))
	}
	if len(out.Terms) != 3 {
		t.Errorf("out has %d channel connections, want 3", len(out.Terms))
	}

	// Finalize must be idempotent.
	nl.Finalize()
	if len(in.Gates) != 2 || len(out.Terms) != 3 {
		t.Error("Finalize is not idempotent")
	}
}

func TestSameNodeBothTerminals(t *testing.T) {
	nl := New("t")
	a := nl.Node("a")
	tr := nl.AddTransistor(Enh, nl.Node("g"), a, a, 4, 4)
	nl.Finalize()
	if len(a.Terms) != 1 {
		t.Errorf("degenerate device listed %d times on node, want 1", len(a.Terms))
	}
	issues := nl.Validate()
	if !containsIssue(issues, "warning", "same node") {
		t.Errorf("expected same-node warning, got %v", issues)
	}
	_ = tr
}

func TestConductsTowardAndOther(t *testing.T) {
	nl := New("t")
	a, b, g := nl.Node("a"), nl.Node("b"), nl.Node("g")
	tr := nl.AddTransistor(Enh, g, a, b, 4, 4)

	if tr.Other(a) != b || tr.Other(b) != a {
		t.Error("Other must return the opposite channel terminal")
	}
	if tr.Other(g) != nil {
		t.Error("Other(gate) must be nil")
	}

	tr.Flow = FlowBoth
	if !tr.ConductsToward(a) || !tr.ConductsToward(b) {
		t.Error("FlowBoth conducts toward both terminals")
	}
	tr.Flow = FlowAB
	if tr.ConductsToward(a) || !tr.ConductsToward(b) {
		t.Error("FlowAB conducts toward B only")
	}
	tr.Flow = FlowBA
	if !tr.ConductsToward(a) || tr.ConductsToward(b) {
		t.Error("FlowBA conducts toward A only")
	}
	if tr.ConductsToward(g) {
		t.Error("never conducts toward the gate")
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("shorted supplies", func(t *testing.T) {
		nl := New("t")
		nl.AddTransistor(Enh, nl.Node("g"), nl.VDD, nl.GND, 4, 4)
		nl.Finalize()
		if !containsIssue(nl.Validate(), "error", "shorts the supplies") {
			t.Error("missing shorted-supplies error")
		}
	})
	t.Run("non-positive size", func(t *testing.T) {
		nl := New("t")
		nl.AddTransistor(Enh, nl.Node("g"), nl.Node("a"), nl.GND, 0, 4)
		nl.Finalize()
		if !containsIssue(nl.Validate(), "error", "non-positive size") {
			t.Error("missing size error")
		}
	})
	t.Run("negative cap", func(t *testing.T) {
		nl := New("t")
		nl.Node("a").Cap = -1
		nl.Finalize()
		if !containsIssue(nl.Validate(), "error", "negative capacitance") {
			t.Error("missing negative-cap error")
		}
	})
	t.Run("bad clock phase", func(t *testing.T) {
		nl := New("t")
		c := nl.Node("clk")
		c.Flags |= FlagClock
		c.Phase = 3
		nl.Finalize()
		if !containsIssue(nl.Validate(), "error", "phase") {
			t.Error("missing clock-phase error")
		}
	})
	t.Run("undriven driver", func(t *testing.T) {
		nl := New("t")
		ghost := nl.Node("ghost")
		nl.AddTransistor(Enh, ghost, nl.Node("x"), nl.GND, 4, 4)
		nl.Finalize()
		if !containsIssue(nl.Validate(), "error", "never driven") {
			t.Error("missing undriven-driver error")
		}
	})
	t.Run("gnd-gated enhancement", func(t *testing.T) {
		nl := New("t")
		nl.AddTransistor(Enh, nl.GND, nl.Node("a"), nl.GND, 4, 4)
		nl.Finalize()
		if !containsIssue(nl.Validate(), "warning", "never conduct") {
			t.Error("missing gnd-gated warning")
		}
	})
	t.Run("clean inverter has no errors", func(t *testing.T) {
		nl := New("t")
		in, out := nl.Node("in"), nl.Node("out")
		in.Flags |= FlagInput
		out.Flags |= FlagOutput
		nl.AddTransistor(Dep, out, nl.VDD, out, 4, 8)
		nl.AddTransistor(Enh, in, out, nl.GND, 8, 4)
		nl.Finalize()
		if HasErrors(nl.Validate()) {
			t.Errorf("clean inverter reported errors: %v", nl.Validate())
		}
	})
}

func TestStatsAndListings(t *testing.T) {
	nl := New("t")
	in := nl.Node("in")
	in.Flags |= FlagInput
	out := nl.Node("out")
	out.Flags |= FlagOutput
	clk := nl.Node("phi1")
	clk.Flags |= FlagClock
	clk.Phase = 1
	dyn := nl.Node("dyn")
	dyn.Flags |= FlagPrecharged
	dyn.Cap = 0.5
	nl.AddTransistor(Dep, out, nl.VDD, out, 4, 8)
	nl.AddTransistor(Enh, in, out, nl.GND, 8, 4)
	nl.AddTransistor(Enh, clk, out, dyn, 4, 4)
	nl.Finalize()

	s := nl.ComputeStats()
	if s.Transistors != 3 || s.Enh != 2 || s.Dep != 1 {
		t.Errorf("device counts wrong: %+v", s)
	}
	if s.Pullups != 1 || s.Pulldowns != 1 || s.Passes != 1 {
		t.Errorf("role counts wrong: %+v", s)
	}
	if s.Clocks != 1 || s.Inputs != 1 || s.Outputs != 1 || s.Precharged != 1 {
		t.Errorf("annotation counts wrong: %+v", s)
	}
	if s.TotalCap != 0.5 {
		t.Errorf("TotalCap = %g, want 0.5", s.TotalCap)
	}

	if got := nl.Clocks(); len(got) != 1 || got[0] != clk {
		t.Error("Clocks() wrong")
	}
	if got := nl.Inputs(); len(got) != 1 || got[0] != in {
		t.Error("Inputs() wrong")
	}
	if got := nl.Outputs(); len(got) != 1 || got[0] != out {
		t.Error("Outputs() wrong")
	}
	names := nl.NodeNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Error("NodeNames must be sorted")
		}
	}
}

func TestStringers(t *testing.T) {
	if Enh.String() != "e" || Dep.String() != "d" {
		t.Error("Kind mnemonics wrong")
	}
	f := FlagInput | FlagClock
	if s := f.String(); !strings.Contains(s, "input") || !strings.Contains(s, "clock") {
		t.Errorf("Flag.String() = %q", s)
	}
	if Flag(0).String() != "none" {
		t.Error("zero flags must print none")
	}
	for _, d := range []FlowDir{FlowBoth, FlowAB, FlowBA} {
		if d.String() == "" {
			t.Error("FlowDir must stringify")
		}
	}
	for _, r := range []Role{RoleUnknown, RolePullup, RolePulldown, RolePass} {
		if r.String() == "" {
			t.Error("Role must stringify")
		}
	}
}

func containsIssue(issues []Issue, severity, substr string) bool {
	for _, is := range issues {
		if is.Severity == severity && strings.Contains(is.Msg, substr) {
			return true
		}
	}
	return false
}

func TestRestoreTransistorRoundTrip(t *testing.T) {
	nl := New("t")
	g := nl.Node("g")
	var devs []*Transistor
	for i := 0; i < 5; i++ {
		devs = append(devs, nl.AddTransistor(Enh, g, nl.Node("a"), nl.GND, 4, 2))
	}
	victim := devs[2]
	at := victim.Index
	if !nl.RemoveTransistor(victim) {
		t.Fatal("RemoveTransistor failed")
	}
	nl.RestoreTransistor(victim, at)
	if len(nl.Trans) != 5 {
		t.Fatalf("device count %d, want 5", len(nl.Trans))
	}
	for i, want := range devs {
		got := nl.Trans[i]
		if got != want || got.Index != i {
			t.Fatalf("slot %d holds %v (index %d), want original order", i, got, got.Index)
		}
	}
	if victim.ID != devs[2].ID {
		t.Fatal("stable ID changed across remove/restore")
	}
}

func TestTruncateNodes(t *testing.T) {
	nl := New("t")
	a := nl.Node("a")
	before := len(nl.Nodes)
	nl.Node("tmp1")
	nl.Node("tmp2")
	nl.TruncateNodes(before)
	if len(nl.Nodes) != before {
		t.Fatalf("node count %d, want %d", len(nl.Nodes), before)
	}
	if nl.Lookup("tmp1") != nil || nl.Lookup("tmp2") != nil {
		t.Fatal("truncated nodes still resolvable by name")
	}
	if nl.Lookup("a") != a || nl.VDD == nil || nl.GND == nil {
		t.Fatal("surviving nodes damaged by truncation")
	}
	// A new node after truncation reuses the freed index range cleanly.
	n := nl.Node("fresh")
	if n.Index != before {
		t.Fatalf("fresh node index %d, want %d", n.Index, before)
	}
	// Out-of-range truncation points are no-ops.
	nl.TruncateNodes(len(nl.Nodes))
	nl.TruncateNodes(-1)
	if nl.Lookup("fresh") != n {
		t.Fatal("no-op truncation damaged the netlist")
	}
}

// TestTransByIDAfterEdits drives seeded adds, removals and restores and
// checks TransByID against a map of the live devices: the ordered-ID
// lookup must find every live device wherever removals shifted it, and
// nothing else.
func TestTransByIDAfterEdits(t *testing.T) {
	nl := New("t")
	g := nl.Node("g")
	live := map[int64]*Transistor{}
	add := func() {
		tr := nl.AddTransistor(Enh, g, nl.Node("a"), nl.GND, 4, 2)
		live[tr.ID] = tr
	}
	for i := 0; i < 200; i++ {
		add()
	}
	rng := rand.New(rand.NewSource(5))
	check := func(step int) {
		t.Helper()
		for id := int64(-1); id <= nl.NextID()+2; id++ {
			if got, want := nl.TransByID(id), live[id]; got != want {
				t.Fatalf("step %d: TransByID(%d) = %v, want %v", step, id, got, want)
			}
		}
		for i := 1; i < len(nl.Trans); i++ {
			if nl.Trans[i-1].ID >= nl.Trans[i].ID {
				t.Fatalf("step %d: IDs out of order at index %d", step, i)
			}
		}
	}
	check(-1)
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(nl.Trans) == 0:
			add()
		case op == 1:
			// Remove and restore, as a rolled-back delta does.
			tr := nl.Trans[rng.Intn(len(nl.Trans))]
			at := tr.Index
			nl.RemoveTransistor(tr)
			nl.RestoreTransistor(tr, at)
		default:
			tr := nl.Trans[rng.Intn(len(nl.Trans))]
			nl.RemoveTransistor(tr)
			delete(live, tr.ID)
		}
		check(step)
	}
	if nl.TransByID(1<<62) != nil {
		t.Error("TransByID of a huge ID must be nil")
	}
}

// TestAddTransistorWithIDOrder: restore's explicit IDs must keep IDs
// strictly increasing along Trans, and later adds continue above them.
func TestAddTransistorWithIDOrder(t *testing.T) {
	nl := New("t")
	g := nl.Node("g")
	for _, id := range []int64{0, -3} {
		if nl.AddTransistorWithID(id, Enh, g, g, nl.GND, 4, 2) != nil {
			t.Errorf("ID %d accepted", id)
		}
	}
	if nl.AddTransistorWithID(4, Enh, g, g, nl.GND, 4, 2) == nil {
		t.Fatal("ID 4 refused")
	}
	for _, id := range []int64{4, 2} {
		if nl.AddTransistorWithID(id, Enh, g, g, nl.GND, 4, 2) != nil {
			t.Errorf("ID %d accepted after ID 4", id)
		}
	}
	if nl.AddTransistorWithID(9, Enh, g, g, nl.GND, 4, 2) == nil {
		t.Fatal("ID 9 refused")
	}
	nl.SetNextID(12)
	if tr := nl.AddTransistor(Enh, g, g, nl.GND, 4, 2); tr.ID != 13 {
		t.Errorf("next added ID %d, want 13", tr.ID)
	}
	for _, id := range []int64{4, 9, 13} {
		if tr := nl.TransByID(id); tr == nil || tr.ID != id {
			t.Errorf("TransByID(%d) = %v", id, tr)
		}
	}
}

// TestNameIndex grows the name index through many nodes and checks that
// both entry points agree, supply case variants fold, a lookup by bytes
// allocates nothing, and a truncation forgets exactly the dropped nodes.
func TestNameIndex(t *testing.T) {
	nl := New("t")
	nl.Grow(10, 0)
	var nodes []*Node
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("n%d_%x", i, i*7919)
		var n *Node
		if i%2 == 0 {
			n = nl.Node(name)
		} else {
			n = nl.NodeBytes([]byte(name))
		}
		if n.Name != name || n.Index != len(nl.Nodes)-1 {
			t.Fatalf("node %q created as %q at %d", name, n.Name, n.Index)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if nl.Lookup(n.Name) != n || nl.Node(n.Name) != n || nl.NodeBytes([]byte(n.Name)) != n {
			t.Fatalf("node %q not found again", n.Name)
		}
	}
	if nl.NodeBytes([]byte("VsS")) != nl.GND || nl.Lookup("VsS") != nl.GND || nl.NodeBytes([]byte("vDd")) != nl.VDD {
		t.Fatal("supply case variants must fold onto the supplies")
	}
	if nl.NodeBytes([]byte("vd")) == nl.VDD || nl.Lookup("missing") != nil {
		t.Fatal("unbound names must not resolve")
	}
	key := []byte(nodes[123].Name)
	if a := testing.AllocsPerRun(100, func() { nl.NodeBytes(key) }); a != 0 {
		t.Errorf("NodeBytes of an existing name allocates %v times", a)
	}

	keep := 2 + 1000
	nl.TruncateNodes(keep)
	for i, n := range nodes {
		if want := i < 1000; (nl.Lookup(n.Name) == n) != want {
			t.Fatalf("after truncation, Lookup(%q) found = %v, want %v", n.Name, !want, want)
		}
	}
	if nl.Lookup("VsS") != nl.GND {
		t.Fatal("truncation dropped a supply alias")
	}
	if n := nl.Node(nodes[1500].Name); n.Index != keep {
		t.Fatalf("recreated node at %d, want %d", n.Index, keep)
	}
}

// TestFinalizeAfterEdits: a re-finalize after adds and removals lists
// each node's devices in device order, exactly as a netlist built with
// the surviving devices from scratch.
func TestFinalizeAfterEdits(t *testing.T) {
	nl := New("t")
	a, b, c := nl.Node("a"), nl.Node("b"), nl.Node("c")
	nl.AddTransistor(Enh, a, b, nl.GND, 4, 2)
	x := nl.AddTransistor(Enh, b, c, c, 4, 2)
	nl.AddTransistor(Dep, c, nl.VDD, c, 4, 2)
	nl.Finalize()
	nl.AddTransistor(Enh, a, c, b, 4, 2)
	nl.AddTransistor(Enh, c, a, nl.GND, 4, 2)
	nl.Finalize()
	nl.RemoveTransistor(x)
	nl.Finalize()

	want := New("t")
	wa, wb, wc := want.Node("a"), want.Node("b"), want.Node("c")
	want.AddTransistor(Enh, wa, wb, want.GND, 4, 2)
	want.AddTransistor(Dep, wc, want.VDD, wc, 4, 2)
	want.AddTransistor(Enh, wa, wc, wb, 4, 2)
	want.AddTransistor(Enh, wc, wa, want.GND, 4, 2)
	want.Finalize()
	indices := func(ts []*Transistor) (out []int) {
		for _, t := range ts {
			out = append(out, t.Index)
		}
		return out
	}
	for i, n := range nl.Nodes {
		w := want.Nodes[i]
		if !reflect.DeepEqual(indices(n.Gates), indices(w.Gates)) || !reflect.DeepEqual(indices(n.Terms), indices(w.Terms)) {
			t.Errorf("node %s: gates %v terms %v, want %v %v", n.Name,
				indices(n.Gates), indices(n.Terms), indices(w.Gates), indices(w.Terms))
		}
		if cap(n.Gates) != len(n.Gates) || cap(n.Terms) != len(n.Terms) {
			t.Errorf("node %s: lists carry spare capacity into a neighbour's", n.Name)
		}
	}
}

// TestNameIndexAgainstMap drives seeded node creations, lookups, alias
// bindings and truncations through the name index and through a plain
// map with the supply folding written as strings.ToLower, and requires
// every name to resolve to the same node in both after every step.
func TestNameIndexAgainstMap(t *testing.T) {
	names := []string{"vdd", "VDD", "Vdd", "vDd", "gnd", "GND", "Gnd", "vss", "VSS", "vSs",
		"vd", "vddd", "gnd2", "ĸvdd", "a", "b", "A", "B", "n1", "N1", "x y", ""}
	for i := 0; i < 300; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := New("t")
		model := map[string]int{"vdd": 0, "gnd": 1} // name -> node index
		modelNode := func(name string) int {
			if i, ok := model[name]; ok {
				return i
			}
			switch strings.ToLower(name) {
			case "vdd":
				model[name] = 0
				return 0
			case "gnd", "vss":
				model[name] = 1
				return 1
			}
			model[name] = len(nl.Nodes) // the node the netlist is about to create
			return model[name]
		}
		for step := 0; step < 2000; step++ {
			name := names[rng.Intn(len(names))]
			switch op := rng.Intn(10); {
			case op < 5:
				want := modelNode(name)
				var got *Node
				if op%2 == 0 {
					got = nl.Node(name)
				} else {
					got = nl.NodeBytes([]byte(name))
				}
				if got.Index != want {
					t.Fatalf("seed %d step %d: Node(%q) at %d, want %d", seed, step, name, got.Index, want)
				}
			case op < 7:
				target := nl.Nodes[rng.Intn(len(nl.Nodes))]
				_, bound := model[name]
				if got := nl.AddAlias(name, target); got != (!bound && name != "") {
					t.Fatalf("seed %d step %d: AddAlias(%q) = %v with bound = %v", seed, step, name, got, bound)
				}
				if !bound && name != "" {
					model[name] = target.Index
				}
			case op < 8 && len(nl.Nodes) > 2:
				keep := 2 + rng.Intn(len(nl.Nodes)-2)
				nl.TruncateNodes(keep)
				for k, i := range model {
					if i >= keep {
						delete(model, k)
					}
				}
			}
			for _, n := range names {
				want, ok := model[n]
				got := nl.Lookup(n)
				if ok != (got != nil) || (ok && got.Index != want) {
					t.Fatalf("seed %d step %d: Lookup(%q) = %v, want index %d (bound %v)", seed, step, n, got, want, ok)
				}
			}
		}
		for i, n := range nl.Nodes {
			if n.Index != i || nl.Lookup(n.Name) != n {
				t.Fatalf("seed %d: node %d (%q) is not indexed under its name", seed, i, n.Name)
			}
		}
	}
}
