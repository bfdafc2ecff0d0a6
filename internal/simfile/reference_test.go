package simfile

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"nmostv/internal/netlist"
)

// referenceRead is the string-based parser Read replaced: one string per
// line, strings.Fields per record, a map probe per name. It stays as the
// oracle FuzzParse holds Read to: the same accept/reject decision, the
// same error line and message, and the same netlist.
func referenceRead(r io.Reader, name string) (*netlist.Netlist, error) {
	nl := netlist.New(name)
	alias := make(map[string]string) // alias -> canonical

	resolve := func(n string) string {
		seen := 0
		for {
			c, ok := alias[n]
			if !ok {
				return n
			}
			n = c
			if seen++; seen > len(alias)+1 {
				return n // defensive: alias cycle
			}
		}
	}
	node := func(n string) *netlist.Node { return nl.Node(resolve(n)) }

	addCap := func(n *netlist.Node, pF float64) bool {
		n.Cap += pF
		return n.Cap <= math.MaxFloat64/1000
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	fail := func(format string, args ...any) error {
		return &ParseError{Line: lineNo, Msg: fmt.Sprintf(format, args...)}
	}

	unitsPerMicron := 1.0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "|") {
			if u, ok := referenceParseUnits(line); ok {
				if !(u > 0) || math.IsInf(u, 1) {
					return nil, fail("units must be positive and finite, got %g", u)
				}
				unitsPerMicron = u
			}
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "e", "d":
			if len(f) < 6 || len(f) > 7 {
				return nil, fail("transistor record needs 5 fields, got %d", len(f)-1)
			}
			l, err := strconv.ParseFloat(f[4], 64)
			if err != nil {
				return nil, fail("bad length %q: %v", f[4], err)
			}
			w, err := strconv.ParseFloat(f[5], 64)
			if err != nil {
				return nil, fail("bad width %q: %v", f[5], err)
			}
			l, w = l/unitsPerMicron, w/unitsPerMicron
			if !(l > 0) || !(w > 0) || math.IsInf(l, 1) || math.IsInf(w, 1) {
				return nil, fail("device size must be positive and finite, got l=%g w=%g (after units scaling)", l, w)
			}
			k := netlist.Enh
			if f[0] == "d" {
				k = netlist.Dep
			}
			tr := nl.AddTransistor(k, node(f[1]), node(f[2]), node(f[3]), w, l)
			if len(f) == 7 {
				switch f[6] {
				case ">":
					tr.ForceFlow = netlist.FlowAB
				case "<":
					tr.ForceFlow = netlist.FlowBA
				default:
					return nil, fail("bad direction token %q (want > or <)", f[6])
				}
			}
		case "C":
			if len(f) != 4 {
				return nil, fail("C record needs 3 fields, got %d", len(f)-1)
			}
			fF, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return nil, fail("bad capacitance %q: %v", f[3], err)
			}
			if !(fF >= 0) || math.IsInf(fF, 1) {
				return nil, fail("capacitance must be non-negative and finite, got %g", fF)
			}
			pF := fF / 1000
			n1, n2 := node(f[1]), node(f[2])
			ok := true
			switch {
			case n1.IsSupply() && n2.IsSupply():
			case n1.IsSupply():
				ok = addCap(n2, pF)
			case n2.IsSupply():
				ok = addCap(n1, pF)
			default:
				ok = addCap(n1, pF/2) && addCap(n2, pF/2)
			}
			if !ok {
				return nil, fail("accumulated capacitance overflows")
			}
		case "N":
			if len(f) != 3 {
				return nil, fail("N record needs 2 fields, got %d", len(f)-1)
			}
			fF, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fail("bad capacitance %q: %v", f[2], err)
			}
			if !(fF >= 0) || math.IsInf(fF, 1) {
				return nil, fail("capacitance must be non-negative and finite, got %g", fF)
			}
			if !addCap(node(f[1]), fF/1000) {
				return nil, fail("accumulated capacitance overflows")
			}
		case "=":
			if len(f) != 3 {
				return nil, fail("= record needs 2 fields, got %d", len(f)-1)
			}
			canon, al := resolve(f[1]), f[2]
			if canon == resolve(al) {
				break
			}
			if old := nl.Lookup(al); old != nil {
				return nil, fail("alias %q appears after the node was already used", al)
			}
			alias[al] = canon
		case "A":
			if len(f) < 3 {
				return nil, fail("A record needs a node and at least one attribute")
			}
			n := node(f[1])
			for _, attr := range f[2:] {
				if err := referenceApplyAttr(n, attr); err != nil {
					return nil, fail("%v", err)
				}
			}
		default:
			return nil, fail("unknown record type %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: lineNo + 1, Msg: fmt.Sprintf("reading input: %v", err), Err: err}
	}
	nl.Finalize()
	return nl, nil
}

func referenceParseUnits(line string) (float64, bool) {
	fields := strings.Fields(strings.TrimPrefix(line, "|"))
	for i, f := range fields {
		if f == "units:" && i+1 < len(fields) {
			u, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return 0, false
			}
			return u, true
		}
		if v, ok := strings.CutPrefix(f, "units:"); ok && v != "" {
			u, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, false
			}
			return u, true
		}
	}
	return 0, false
}

func referenceApplyAttr(n *netlist.Node, attr string) error {
	key, val, hasVal := strings.Cut(attr, "=")
	phase := 0
	if hasVal {
		p, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("attribute %q: bad phase %q", key, val)
		}
		phase = p
	}
	switch key {
	case "input":
		n.Flags |= netlist.FlagInput
	case "output":
		n.Flags |= netlist.FlagOutput
	case "clock":
		if !hasVal {
			return fmt.Errorf("attribute clock requires a phase, e.g. clock=1")
		}
		if phase != 1 && phase != 2 {
			return fmt.Errorf("attribute clock: phase must be 1 or 2, got %d", phase)
		}
		n.Flags |= netlist.FlagClock
		n.Phase = phase
	case "precharged":
		if hasVal && phase != 1 && phase != 2 {
			return fmt.Errorf("attribute precharged: phase must be 1 or 2, got %d", phase)
		}
		n.Flags |= netlist.FlagPrecharged
		if hasVal {
			n.Phase = phase
		}
	case "storage":
		if hasVal && phase != 1 && phase != 2 {
			return fmt.Errorf("attribute storage: phase must be 1 or 2, got %d", phase)
		}
		n.Flags |= netlist.FlagStorage
		if hasVal {
			n.Phase = phase
		}
	case "flowin":
		n.Flags |= netlist.FlagFlowIn
	case "flowout":
		n.Flags |= netlist.FlagFlowOut
	case "exclusive":
		if !hasVal {
			return fmt.Errorf("attribute exclusive requires a group id, e.g. exclusive=3")
		}
		n.Exclusive = phase
	default:
		return fmt.Errorf("unknown attribute %q", key)
	}
	return nil
}

// sameNetlist reports the first difference between two netlists: node
// names and order, bitwise caps, flags, phases, exclusive groups, device
// order, IDs, kinds, terminals, bitwise sizes, forced flow, roles, and
// every alias entry with what Lookup resolves it to.
func sameNetlist(got, want *netlist.Netlist) error {
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Name != w.Name || g.Index != i ||
			math.Float64bits(g.Cap) != math.Float64bits(w.Cap) ||
			g.Flags != w.Flags || g.Phase != w.Phase || g.Exclusive != w.Exclusive ||
			len(g.Gates) != len(w.Gates) || len(g.Terms) != len(w.Terms) {
			return fmt.Errorf("node %d: got %q cap %v flags %v phase %d excl %d gates %d terms %d (index %d), want %q cap %v flags %v phase %d excl %d gates %d terms %d",
				i, g.Name, g.Cap, g.Flags, g.Phase, g.Exclusive, len(g.Gates), len(g.Terms), g.Index,
				w.Name, w.Cap, w.Flags, w.Phase, w.Exclusive, len(w.Gates), len(w.Terms))
		}
		if got.Lookup(g.Name) != g {
			return fmt.Errorf("node %d: Lookup(%q) does not return it", i, g.Name)
		}
		for j := range g.Gates {
			if g.Gates[j].Index != w.Gates[j].Index {
				return fmt.Errorf("node %q: gate %d is device %d, want %d", g.Name, j, g.Gates[j].Index, w.Gates[j].Index)
			}
		}
		for j := range g.Terms {
			if g.Terms[j].Index != w.Terms[j].Index {
				return fmt.Errorf("node %q: term %d is device %d, want %d", g.Name, j, g.Terms[j].Index, w.Terms[j].Index)
			}
		}
	}
	if len(got.Trans) != len(want.Trans) {
		return fmt.Errorf("%d devices, want %d", len(got.Trans), len(want.Trans))
	}
	for i, g := range got.Trans {
		w := want.Trans[i]
		if g.Index != i || g.ID != w.ID || g.Kind != w.Kind ||
			g.Gate.Index != w.Gate.Index || g.A.Index != w.A.Index || g.B.Index != w.B.Index ||
			math.Float64bits(g.W) != math.Float64bits(w.W) || math.Float64bits(g.L) != math.Float64bits(w.L) ||
			g.ForceFlow != w.ForceFlow || g.Role != w.Role {
			return fmt.Errorf("device %d: got %v id %d flow %v role %v, want %v id %d flow %v role %v",
				i, g, g.ID, g.ForceFlow, g.Role, w, w.ID, w.ForceFlow, w.Role)
		}
		if got.TransByID(g.ID) != g {
			return fmt.Errorf("device %d: TransByID(%d) does not return it", i, g.ID)
		}
	}
	ga, wa := got.Aliases(), want.Aliases()
	if len(ga) != len(wa) {
		return fmt.Errorf("%d aliases, want %d", len(ga), len(wa))
	}
	for i := range ga {
		if ga[i].Name != wa[i].Name || ga[i].Node.Index != wa[i].Node.Index {
			return fmt.Errorf("alias %d: got %q -> %q, want %q -> %q",
				i, ga[i].Name, ga[i].Node.Name, wa[i].Name, wa[i].Node.Name)
		}
		if got.Lookup(ga[i].Name) != ga[i].Node {
			return fmt.Errorf("alias %q: Lookup does not resolve it", ga[i].Name)
		}
	}
	return nil
}

// checkAgainstReference parses data with both Read and referenceRead and
// fails t on any difference.
func checkAgainstReference(t *testing.T, data string) {
	t.Helper()
	nl, err := Read(strings.NewReader(data), "fuzz")
	ref, refErr := referenceRead(strings.NewReader(data), "fuzz")
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Read error %v, reference error %v", err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			t.Fatalf("Read error %q, reference error %q", err, refErr)
		}
		return
	}
	if d := sameNetlist(nl, ref); d != nil {
		t.Fatalf("netlist differs from the reference parser's: %v", d)
	}
}
