package simfile

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/tech"
)

func parse(t *testing.T, text string) *netlist.Netlist {
	t.Helper()
	nl, err := Read(strings.NewReader(text), "test")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return nl
}

func TestParseTransistors(t *testing.T) {
	nl := parse(t, `
| comment line
e in out gnd 4 8
d out vdd out 8 4
`)
	if len(nl.Trans) != 2 {
		t.Fatalf("got %d transistors, want 2", len(nl.Trans))
	}
	e := nl.Trans[0]
	if e.Kind != netlist.Enh || e.Gate.Name != "in" || e.L != 4 || e.W != 8 {
		t.Errorf("enh record parsed wrong: %v", e)
	}
	d := nl.Trans[1]
	if d.Kind != netlist.Dep || d.A != nl.VDD {
		t.Errorf("dep record parsed wrong: %v", d)
	}
	// Roles must already be assigned (Read finalizes).
	if e.Role != netlist.RolePulldown || d.Role != netlist.RolePullup {
		t.Error("Read must finalize the netlist")
	}
}

func TestParseCapacitances(t *testing.T) {
	nl := parse(t, `
N a 1000
C a b 500
C a gnd 2000
C vdd gnd 99999
`)
	a, b := nl.Lookup("a"), nl.Lookup("b")
	// N: 1000 fF = 1 pF; C a b splits 0.25/0.25; C a gnd adds 2.
	if math.Abs(a.Cap-(1+0.25+2)) > 1e-12 {
		t.Errorf("a.Cap = %g, want 3.25", a.Cap)
	}
	if math.Abs(b.Cap-0.25) > 1e-12 {
		t.Errorf("b.Cap = %g, want 0.25", b.Cap)
	}
	if nl.VDD.Cap != 0 || nl.GND.Cap != 0 {
		t.Error("supply caps must be ignored")
	}
}

func TestParseAliases(t *testing.T) {
	nl := parse(t, `
= a a_alias
= a_alias deep
e g a gnd 4 4
e g2 deep gnd 4 4
`)
	if nl.Lookup("a") == nil {
		t.Fatal("canonical node missing")
	}
	if got := len(nl.Nodes); got != 5 { // vdd, gnd, a, g, g2
		t.Errorf("node count after aliasing = %d, want 5", got)
	}
	// Both transistors must land on the same canonical node.
	if nl.Trans[0].A != nl.Trans[1].A {
		t.Error("alias chain not resolved to one node")
	}
}

func TestParseAttributes(t *testing.T) {
	nl := parse(t, `
e phi1 d q 4 4
A phi1 clock=1
A d input
A q storage=1 output
A bus precharged=2 flowout
A src flowin
`)
	phi := nl.Lookup("phi1")
	if !phi.IsClock() || phi.Phase != 1 {
		t.Error("clock attribute not applied")
	}
	if !nl.Lookup("d").Flags.Has(netlist.FlagInput) {
		t.Error("input attribute not applied")
	}
	q := nl.Lookup("q")
	if !q.Flags.Has(netlist.FlagStorage|netlist.FlagOutput) || q.Phase != 1 {
		t.Error("storage/output attributes not applied")
	}
	bus := nl.Lookup("bus")
	if !bus.Flags.Has(netlist.FlagPrecharged|netlist.FlagFlowOut) || bus.Phase != 2 {
		t.Error("precharged/flowout attributes not applied")
	}
	if !nl.Lookup("src").Flags.Has(netlist.FlagFlowIn) {
		t.Error("flowin attribute not applied")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, wantSub string
	}{
		{"short transistor", "e a b\n", "5 fields"},
		{"bad length", "e g a b xx 4\n", "bad length"},
		{"bad width", "e g a b 4 xx\n", "bad width"},
		{"bad C fields", "C a b\n", "3 fields"},
		{"bad C value", "C a b xx\n", "bad capacitance"},
		{"bad N fields", "N a\n", "2 fields"},
		{"bad N value", "N a xx\n", "bad capacitance"},
		{"bad alias fields", "= a\n", "2 fields"},
		{"alias after use", "e g used gnd 4 4\n= canon used\n", "already used"},
		{"unknown record", "Z whatever\n", "unknown record"},
		{"A needs attrs", "A node\n", "at least one"},
		{"unknown attr", "A node sparkly\n", "unknown attribute"},
		{"clock needs phase", "A node clock\n", "requires a phase"},
		{"bad phase", "A node clock=x\n", "bad phase"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.text), "t")
			if err == nil {
				t.Fatalf("Read(%q) succeeded, want error containing %q", c.text, c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err, c.wantSub)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *ParseError", err)
			}
			if pe.Line <= 0 {
				t.Error("ParseError must carry a line number")
			}
		})
	}
}

func TestRoundTripDatapath(t *testing.T) {
	p := tech.Default()
	orig := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), orig.Name)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(back.Trans) != len(orig.Trans) {
		t.Fatalf("transistors: got %d, want %d", len(back.Trans), len(orig.Trans))
	}
	if len(back.Nodes) != len(orig.Nodes) {
		t.Fatalf("nodes: got %d, want %d", len(back.Nodes), len(orig.Nodes))
	}
	for _, n := range orig.Nodes {
		m := back.Lookup(n.Name)
		if m == nil {
			t.Fatalf("node %s lost in round trip", n.Name)
		}
		if m.Flags != n.Flags {
			t.Errorf("node %s flags: got %v, want %v", n.Name, m.Flags, n.Flags)
		}
		if m.Phase != n.Phase {
			t.Errorf("node %s phase: got %d, want %d", n.Name, m.Phase, n.Phase)
		}
		if math.Abs(m.Cap-n.Cap) > 1e-9 {
			t.Errorf("node %s cap: got %g, want %g", n.Name, m.Cap, n.Cap)
		}
	}
	for i, tr := range orig.Trans {
		bt := back.Trans[i]
		if bt.Kind != tr.Kind || bt.Gate.Name != tr.Gate.Name ||
			bt.A.Name != tr.A.Name || bt.B.Name != tr.B.Name ||
			bt.W != tr.W || bt.L != tr.L {
			t.Fatalf("transistor %d differs: got %v, want %v", i, bt, tr)
		}
	}
}

func TestRoundTripPropertyCaps(t *testing.T) {
	// Arbitrary positive caps survive the fF↔pF conversion.
	f := func(raw uint32) bool {
		cap := float64(raw%1_000_000)/1000 + 0.001 // 0.001..1000 pF
		nl := netlist.New("t")
		n := nl.Node("n")
		n.Cap = cap
		nl.Node("g")
		nl.AddTransistor(netlist.Enh, nl.Node("g"), n, nl.GND, 4, 4)
		nl.Finalize()
		var buf bytes.Buffer
		if err := Write(&buf, nl); err != nil {
			return false
		}
		back, err := Read(&buf, "t")
		if err != nil {
			return false
		}
		return math.Abs(back.Lookup("n").Cap-cap) < 1e-9*cap+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteDeterministic(t *testing.T) {
	p := tech.Default()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 2, Words: 2, ShiftAmounts: 2})
	var a, b bytes.Buffer
	if err := Write(&a, nl); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, nl); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Write output must be deterministic")
	}
}

func TestDirectionTokenRoundTrip(t *testing.T) {
	nl := parse(t, `
e g a b 4 4 >
e g c d 4 4 <
e g e2 f 4 4
`)
	if nl.Trans[0].ForceFlow != netlist.FlowAB {
		t.Errorf("'>' must force a→b, got %v", nl.Trans[0].ForceFlow)
	}
	if nl.Trans[1].ForceFlow != netlist.FlowBA {
		t.Errorf("'<' must force b→a, got %v", nl.Trans[1].ForceFlow)
	}
	if nl.Trans[2].ForceFlow != netlist.FlowBoth {
		t.Errorf("no token must leave flow unforced, got %v", nl.Trans[2].ForceFlow)
	}
	var buf bytes.Buffer
	if err := Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := range nl.Trans {
		if back.Trans[i].ForceFlow != nl.Trans[i].ForceFlow {
			t.Errorf("transistor %d direction lost in round trip", i)
		}
	}

	if _, err := Read(strings.NewReader("e g a b 4 4 ?\n"), "t"); err == nil {
		t.Error("bad direction token must fail")
	}
}

func TestExclusiveAttrRoundTrip(t *testing.T) {
	nl := parse(t, `
e w a b 4 4
A w exclusive=7
`)
	if nl.Lookup("w").Exclusive != 7 {
		t.Fatalf("exclusive attr not applied: %d", nl.Lookup("w").Exclusive)
	}
	var buf bytes.Buffer
	if err := Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), "t")
	if err != nil {
		t.Fatal(err)
	}
	if back.Lookup("w").Exclusive != 7 {
		t.Error("exclusive group lost in round trip")
	}
	if _, err := Read(strings.NewReader("A n exclusive\n"), "t"); err == nil {
		t.Error("exclusive without id must fail")
	}
}

func TestUnitsScaling(t *testing.T) {
	// MEXTRA-style centimicron file: units: 100 → 400 file units = 4 µm.
	nl := parse(t, `
| units: 100 tech: nmos
e g a gnd 400 800
`)
	tr := nl.Trans[0]
	if tr.L != 4 || tr.W != 8 {
		t.Fatalf("scaled sizes l=%g w=%g, want 4, 8", tr.L, tr.W)
	}
	// The colon-adjacent form also parses.
	nl2 := parse(t, "| units:100\ne g a gnd 400 800\n")
	if nl2.Trans[0].L != 4 {
		t.Fatalf("units:100 form not recognized")
	}
	// Later units lines take effect from there on.
	nl3 := parse(t, "e g a gnd 4 8\n| units: 100\ne g2 b gnd 400 800\n")
	if nl3.Trans[0].L != 4 || nl3.Trans[1].L != 4 {
		t.Fatalf("mixed-units file parsed wrong: %g %g", nl3.Trans[0].L, nl3.Trans[1].L)
	}
	// Zero or negative units rejected.
	if _, err := Read(strings.NewReader("| units: 0\n"), "t"); err == nil {
		t.Error("units: 0 must fail")
	}
}

// TestParseLayout pins what the parser ignores: CRLF line endings, tabs,
// leading and trailing blanks, blank and comment-only lines, a missing
// final newline, and whether the reader knows its length. Every variant
// parses to the same netlist as the plain text.
func TestParseLayout(t *testing.T) {
	plain := "e in out gnd 4 8\nd out vdd out 8 4 >\nC out a 12.5\nN a 3\n= out o2\nA o2 output\nA in input\ne a VDD o2 2 4 <\n"
	want := parse(t, plain)
	cases := []struct {
		name string
		r    io.Reader
	}{
		{"crlf", strings.NewReader(strings.ReplaceAll(plain, "\n", "\r\n"))},
		{"tabs", strings.NewReader(strings.ReplaceAll(plain, " ", "\t"))},
		{"runs of blanks", strings.NewReader(strings.ReplaceAll(plain, " ", " \t  "))},
		{"leading and trailing blanks", strings.NewReader("  " + strings.ReplaceAll(plain, "\n", " \t\n\t "))},
		{"blank and comment lines", strings.NewReader("\n| header\n\n \t \n" + strings.ReplaceAll(plain, "\n", "\n\n  | note: x\n|\n"))},
		{"no final newline", strings.NewReader(strings.TrimSuffix(plain, "\n"))},
		{"crlf, no final newline", strings.NewReader(strings.TrimSuffix(strings.ReplaceAll(plain, "\n", "\r\n"), "\r\n"))},
		{"unsized reader", struct{ io.Reader }{strings.NewReader(plain)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Read(c.r, "test")
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if d := sameNetlist(got, want); d != nil {
				t.Fatal(d)
			}
		})
	}
}

// TestUnitsDeclarations pins both spellings of the units comment, where
// it may sit on its line, and that a later declaration takes effect from
// its own line on.
func TestUnitsDeclarations(t *testing.T) {
	cases := []struct {
		name, text string
		l          []float64 // each device's length, in order
	}{
		{"spaced", "| units: 100\ne g a gnd 400 800\n", []float64{4}},
		{"colon-adjacent", "| units:100\ne g a gnd 400 800\n", []float64{4}},
		{"no blank after the bar", "|units: 100\ne g a gnd 400 800\n", []float64{4}},
		{"bar-adjacent token", "|units:100\ne g a gnd 400 800\n", []float64{4}},
		{"after other words", "| tech: nmos\tunits: 50 scale\ne g a gnd 400 800\n", []float64{8}},
		{"tab-separated", "|\tunits:\t100\r\ne g a gnd 400 800\n", []float64{4}},
		{"mid-file", "e g a gnd 4 8\n| units: 100\ne g2 b gnd 400 800\n", []float64{4, 4}},
		{"redeclared", "| units: 2\ne g a gnd 4 8\n|units:4\ne g b gnd 4 8\n", []float64{2, 1}},
		{"no value", "| units:\ne g a gnd 4 8\n", []float64{4}},
		{"unparsable value", "| units: many\ne g a gnd 4 8\n", []float64{4}},
		{"first declaration on the line wins", "| units: 2 units: 4\ne g a gnd 4 8\n", []float64{2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nl := parse(t, c.text)
			if len(nl.Trans) != len(c.l) {
				t.Fatalf("%d devices, want %d", len(nl.Trans), len(c.l))
			}
			for i, l := range c.l {
				if nl.Trans[i].L != l {
					t.Errorf("device %d: l = %g, want %g", i, nl.Trans[i].L, l)
				}
			}
		})
	}
	for _, text := range []string{"| units: 0\n", "e g a gnd 4 8\n|  units: -1\n", "\n\n| units:+Inf\n"} {
		_, err := Read(strings.NewReader(text), "t")
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "units must be positive") {
			t.Errorf("Read(%q) = %v, want a units ParseError", text, err)
			continue
		}
		if want := strings.Count(text, "\n"); pe.Line != want {
			t.Errorf("Read(%q): error on line %d, want %d", text, pe.Line, want)
		}
	}
}

// TestFieldCountErrors pins each record kind's field-count error: its
// message and the line it names, counting blank and comment lines.
func TestFieldCountErrors(t *testing.T) {
	cases := []struct {
		text string
		line int
		msg  string
	}{
		{"| header\n\ne a b\n", 3, "transistor record needs 5 fields, got 2"},
		{"e g a b 4 4 > x\n", 1, "transistor record needs 5 fields, got 7"},
		{"e g a gnd 4 8\r\nd g a b 4\r\n", 2, "transistor record needs 5 fields, got 4"},
		{"N a 1\n\tC a b\n", 2, "C record needs 3 fields, got 2"},
		{"C a b 1 2\n", 1, "C record needs 3 fields, got 4"},
		{"| x\n| y\n| z\nN a\n", 4, "N record needs 2 fields, got 1"},
		{"N a 1 2\n", 1, "N record needs 2 fields, got 3"},
		{"= a\n", 1, "= record needs 2 fields, got 1"},
		{"\n\n= a b c\n", 3, "= record needs 2 fields, got 3"},
		{"A n input\nA n\n", 2, "A record needs a node and at least one attribute"},
		{"e g a gnd 4 8\nZ 1 2\n", 2, `unknown record type "Z"`},
		{"ee g a gnd 4 8\n", 1, `unknown record type "ee"`},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.text), "t")
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Read(%q) = %v, want a ParseError", c.text, err)
			continue
		}
		if pe.Line != c.line || pe.Msg != c.msg {
			t.Errorf("Read(%q): line %d %q, want line %d %q", c.text, pe.Line, pe.Msg, c.line, c.msg)
		}
	}
}

// TestOverlongLine: a line past the scanner's 16 MiB cap is a ParseError
// naming that line and wrapping the scanner's error; a long line under
// the cap is read.
func TestOverlongLine(t *testing.T) {
	long := "| " + strings.Repeat("x", 8<<20) + "\n"
	nl := parse(t, "e g a gnd 4 8\n"+long+"e g b gnd 4 8\n")
	if len(nl.Trans) != 2 {
		t.Fatalf("%d devices around an 8 MiB comment, want 2", len(nl.Trans))
	}

	text := "e g a gnd 4 8\n\n" + "| " + strings.Repeat("x", 16<<20) + "\ne g b gnd 4 8\n"
	_, err := Read(strings.NewReader(text), "t")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("Read = %v, want a ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error on line %d, want 3", pe.Line)
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("error %v does not wrap bufio.ErrTooLong", err)
	}
}

// TestReadCappedBody: a request body cut off by http.MaxBytesReader is a
// ParseError through which errors.As finds the *http.MaxBytesError, so
// tvd answers 413, wherever the cap falls. A cut mid-line leaves a
// fragment that must not be parsed as a (malformed) record.
func TestReadCappedBody(t *testing.T) {
	text := strings.Repeat("e g a gnd 4 8\n", 100) // 14-byte lines
	for _, limit := range []int64{56, 64, 69} {
		body := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(text)), limit)
		_, err := Read(body, "t")
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("limit %d: Read = %v, want a ParseError", limit, err)
		}
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) || mbe.Limit != limit {
			t.Errorf("limit %d: Read = %v, want it to wrap an *http.MaxBytesError", limit, err)
		}
	}
}

// TestReadAllocs bounds the parse's allocations by the design: a parse
// allocates per node and per device, never per token or per line.
func TestReadAllocs(t *testing.T) {
	orig := gen.TiledChip(tech.Default(), gen.DefaultTiledChip(100_000))
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Read(bytes.NewReader(data), orig.Name); err != nil {
			t.Fatal(err)
		}
	})
	perDevice := allocs / float64(len(orig.Trans))
	t.Logf("%.0f allocations for %d devices, %d nodes: %.2f per device",
		allocs, len(orig.Trans), len(orig.Nodes), perDevice)
	if perDevice > 1.5 {
		t.Errorf("%.2f allocations per device, want at most 1.5", perDevice)
	}
}
