// Package simfile reads and writes transistor netlists in the Berkeley
// ".sim" interchange dialect produced by 1980s layout extractors (MEXTRA)
// and consumed by esim/RSIM-class tools.
//
// The dialect accepted here:
//
//	| units: N ...       comment; a "units:" token declares that N file
//	                     units equal one micron (MEXTRA wrote centimicrons
//	                     as "units: 100") — device l/w are scaled by 1/N
//	| text...            any other comment is ignored
//	e gate a b l w [dir] enhancement transistor, l/w in µm; the optional
//	                     dir token ">" or "<" forces signal flow a→b or
//	                     b→a (designer annotation for pass chains the
//	                     flow heuristic cannot orient)
//	d gate a b l w [dir] depletion transistor, l/w in µm
//	C n1 n2 cap          capacitance in fF between two nodes; when one
//	                     side is a supply the full value lumps onto the
//	                     other node, otherwise half lumps onto each
//	N node cap           capacitance in fF from node to ground
//	= canonical alias    node aliasing (extractor merge records)
//	A node attrs...      annotation record (this repository's extension,
//	                     replacing the side files designers used):
//	                     input output clock=1|2 precharged[=1|2]
//	                     storage[=1|2] flowin flowout exclusive=group
//
// Fields are separated by blanks as strings.Fields separates them (ASCII
// white space, including the CR of a CRLF line end, and every other
// unicode.IsSpace rune); blank lines are ignored.
//
// Read splits each line into fields in place and looks node names up by
// their bytes, so a parse allocates per node and per device, never per
// line or field, and a node's name is copied once.
//
// Read returns *ParseError for any malformed input — it never panics. A
// line over 16 MiB or a failing reader is a ParseError wrapping the
// stream's error. FuzzParse in this package enforces that contract and
// holds Read to referenceRead, the string-based parser it replaced.
//
// Node names "vdd", "gnd" and "vss" in any ASCII case denote the supplies.
package simfile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"nmostv/internal/netlist"
)

// ParseError describes a syntax error with its line number. For
// stream-level failures Err retains the underlying reader error (an
// *http.MaxBytesError from a capped request body, an I/O error), so
// callers can classify with errors.As through the wrapper.
type ParseError struct {
	Line int
	Msg  string
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("simfile: line %d: %s", e.Line, e.Msg) }

// Unwrap exposes the underlying stream error, if any.
func (e *ParseError) Unwrap() error { return e.Err }

// Read parses a .sim stream into a netlist named name. The returned netlist
// is finalized.
//
// When the reader can tell its length without being read — a regular
// file, or anything with a Len method, such as a bytes.Reader — the
// netlist's tables are sized from it up front.
func Read(r io.Reader, name string) (*netlist.Netlist, error) {
	p := &parser{nl: netlist.New(name), unitsPerMicron: 1}
	if size := inputSize(r); size > 0 {
		p.nl.Grow(int(size/bytesPerNode), int(size/bytesPerDevice))
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	// A read error ends the stream in a fragment of a line, which the
	// scanner still returns; terminated tells it apart from a line.
	terminated := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		terminated = adv > 0 && data[adv-1] == '\n'
		return adv, tok, err
	})
	for sc.Scan() {
		if !terminated && sc.Err() != nil {
			break // report the read error, not the fragment it left
		}
		p.line++
		if err := p.record(sc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		// Surface stream-level failures (oversized line, I/O error) as
		// ParseError too: callers get one error type, never a panic.
		return nil, &ParseError{Line: p.line + 1, Msg: fmt.Sprintf("reading input: %v", err), Err: err}
	}
	p.nl.Finalize()
	return p.nl, nil
}

// bytesPerDevice and bytesPerNode turn an input's length into the device
// and node counts Read sizes the netlist for. A device record is three
// node names and two sizes, some 40 bytes at a few bytes a name, and a
// node takes its own records (capacitance, annotations) besides its
// share of the devices'. The reservation is well under a byte per input
// byte, a small fraction of what a netlist of that length costs once
// read, so an input padded with comments cannot make it large.
const (
	bytesPerDevice = 40
	bytesPerNode   = 64
)

// inputSize returns the input's length in bytes when the reader can tell
// without being read, else 0.
func inputSize(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// parser is Read's state between lines.
type parser struct {
	nl             *netlist.Netlist
	alias          map[string]string // alias -> canonical, from = records
	unitsPerMicron float64
	line           int
	fields         [][]byte // the current line's fields, reused
}

func (p *parser) fail(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// resolve follows = records from a name to its canonical name.
func (p *parser) resolve(n string) string {
	seen := 0
	for {
		c, ok := p.alias[n]
		if !ok {
			return n
		}
		n = c
		if seen++; seen > len(p.alias)+1 {
			return n // defensive: alias cycle
		}
	}
}

// node returns the node a name field denotes, creating it on first use.
func (p *parser) node(name []byte) *netlist.Node {
	if _, ok := p.alias[string(name)]; ok {
		return p.nl.Node(p.resolve(string(name)))
	}
	return p.nl.NodeBytes(name)
}

// addCap guards the running sum: Write re-emits node caps in fF
// (pF × 1000), so a sum past MaxFloat64/1000 would print as +Inf and
// break the read/write round trip.
func addCap(n *netlist.Node, pF float64) bool {
	n.Cap += pF
	return n.Cap <= math.MaxFloat64/1000
}

// record parses one line. Its fields are slices of the scanner's buffer,
// valid until the next line: only a new node's name is copied out.
func (p *parser) record(line []byte) error {
	f := splitFields(p.fields[:0], line)
	p.fields = f
	if len(f) == 0 {
		return nil
	}
	if f[0][0] == '|' {
		if u, ok := parseUnits(f); ok {
			if !(u > 0) || math.IsInf(u, 1) {
				return p.fail("units must be positive and finite, got %g", u)
			}
			p.unitsPerMicron = u
		}
		return nil
	}
	kind := byte(0)
	if len(f[0]) == 1 {
		kind = f[0][0]
	}
	switch kind {
	case 'e', 'd':
		if len(f) < 6 || len(f) > 7 {
			return p.fail("transistor record needs 5 fields, got %d", len(f)-1)
		}
		l, err := parseNumber(f[4])
		if err != nil {
			return p.fail("bad length %q: %v", f[4], err)
		}
		w, err := parseNumber(f[5])
		if err != nil {
			return p.fail("bad width %q: %v", f[5], err)
		}
		// Validate after units scaling: a huge units divisor can
		// underflow a positive raw size to zero, a tiny one can
		// overflow it to +Inf.
		l, w = l/p.unitsPerMicron, w/p.unitsPerMicron
		if !(l > 0) || !(w > 0) || math.IsInf(l, 1) || math.IsInf(w, 1) {
			return p.fail("device size must be positive and finite, got l=%g w=%g (after units scaling)", l, w)
		}
		k := netlist.Enh
		if kind == 'd' {
			k = netlist.Dep
		}
		tr := p.nl.AddTransistor(k, p.node(f[1]), p.node(f[2]), p.node(f[3]), w, l)
		if len(f) == 7 {
			switch string(f[6]) {
			case ">":
				tr.ForceFlow = netlist.FlowAB
			case "<":
				tr.ForceFlow = netlist.FlowBA
			default:
				return p.fail("bad direction token %q (want > or <)", f[6])
			}
		}
	case 'C':
		if len(f) != 4 {
			return p.fail("C record needs 3 fields, got %d", len(f)-1)
		}
		fF, err := parseNumber(f[3])
		if err != nil {
			return p.fail("bad capacitance %q: %v", f[3], err)
		}
		if !(fF >= 0) || math.IsInf(fF, 1) {
			return p.fail("capacitance must be non-negative and finite, got %g", fF)
		}
		pF := fF / 1000
		n1, n2 := p.node(f[1]), p.node(f[2])
		ok := true
		switch {
		case n1.IsSupply() && n2.IsSupply():
			// Cap between supplies is irrelevant to timing.
		case n1.IsSupply():
			ok = addCap(n2, pF)
		case n2.IsSupply():
			ok = addCap(n1, pF)
		default:
			ok = addCap(n1, pF/2) && addCap(n2, pF/2)
		}
		if !ok {
			return p.fail("accumulated capacitance overflows")
		}
	case 'N':
		if len(f) != 3 {
			return p.fail("N record needs 2 fields, got %d", len(f)-1)
		}
		fF, err := parseNumber(f[2])
		if err != nil {
			return p.fail("bad capacitance %q: %v", f[2], err)
		}
		if !(fF >= 0) || math.IsInf(fF, 1) {
			return p.fail("capacitance must be non-negative and finite, got %g", fF)
		}
		if !addCap(p.node(f[1]), fF/1000) {
			return p.fail("accumulated capacitance overflows")
		}
	case '=':
		if len(f) != 3 {
			return p.fail("= record needs 2 fields, got %d", len(f)-1)
		}
		canon, al := p.resolve(string(f[1])), string(f[2])
		if canon == p.resolve(al) {
			break // already merged
		}
		if old := p.nl.Lookup(al); old != nil {
			return p.fail("alias %q appears after the node was already used", al)
		}
		if p.alias == nil {
			p.alias = make(map[string]string)
		}
		p.alias[al] = canon
	case 'A':
		if len(f) < 3 {
			return p.fail("A record needs a node and at least one attribute")
		}
		n := p.node(f[1])
		for _, attr := range f[2:] {
			if err := applyAttr(n, attr); err != nil {
				return p.fail("%v", err)
			}
		}
	default:
		return p.fail("unknown record type %q", f[0])
	}
	return nil
}

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends line's whitespace-separated fields to dst as
// slices of line, splitting exactly where strings.Fields would: at ASCII
// blanks, and at every other unicode.IsSpace rune (U+0085, U+00A0, ...).
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		c, size := line[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, line[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// parseNumber converts a numeric field: sizes, capacitances and units.
// Up to 15 decimal digits make an integer below 2^53, which a float64
// holds exactly, so such a field converts without strconv; any other goes
// through strconv.ParseFloat, which would give the same bits.
func parseNumber(b []byte) (float64, error) {
	if len(b) > 0 && len(b) <= 15 {
		v := 0
		for _, c := range b {
			if c < '0' || c > '9' {
				return strconv.ParseFloat(string(b), 64)
			}
			v = v*10 + int(c-'0')
		}
		return float64(v), nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseUnits extracts the "units:" declaration from a comment line's
// fields, the first of which starts with the comment bar.
func parseUnits(f [][]byte) (float64, bool) {
	// Drop the bar, whether it stands alone or leads the first word.
	if len(f[0]) == 1 {
		f = f[1:]
	} else {
		f[0] = f[0][1:]
	}
	for i, w := range f {
		if string(w) == "units:" && i+1 < len(f) {
			u, err := parseNumber(f[i+1])
			return u, err == nil
		}
		if v, ok := bytes.CutPrefix(w, []byte("units:")); ok && len(v) > 0 {
			u, err := parseNumber(v)
			return u, err == nil
		}
	}
	return 0, false
}

// ApplyAttr applies one A-record attribute token (e.g. "input",
// "clock=1", "exclusive=3") to a node — the same vocabulary the parser
// accepts. Incremental tools use it to annotate nodes of a live design.
func ApplyAttr(n *netlist.Node, attr string) error { return applyAttr(n, []byte(attr)) }

func applyAttr(n *netlist.Node, attr []byte) error {
	key, val, hasVal := bytes.Cut(attr, []byte("="))
	phase := 0
	if hasVal {
		p, err := strconv.Atoi(string(val))
		if err != nil {
			return fmt.Errorf("attribute %q: bad phase %q", key, val)
		}
		phase = p
	}
	switch string(key) {
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

// Write emits the netlist in the dialect accepted by Read. Records are
// ordered deterministically: a comment header, transistors in index order,
// node capacitances in name order, then annotations in name order.
func Write(w io.Writer, nl *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "| nmostv .sim dialect; circuit %s; l/w in microns, C in fF\n", nl.Name)
	for _, t := range nl.Trans {
		dir := ""
		switch t.ForceFlow {
		case netlist.FlowAB:
			dir = " >"
		case netlist.FlowBA:
			dir = " <"
		}
		fmt.Fprintf(bw, "%s %s %s %s %s %s%s\n",
			t.Kind, t.Gate.Name, t.A.Name, t.B.Name,
			formatFloat(t.L), formatFloat(t.W), dir)
	}

	nodes := make([]*netlist.Node, len(nl.Nodes))
	copy(nodes, nl.Nodes)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	for _, n := range nodes {
		if n.Cap > 0 {
			fmt.Fprintf(bw, "N %s %s\n", n.Name, formatFloat(n.Cap*1000))
		}
	}
	for _, n := range nodes {
		attrs := attrList(n)
		if len(attrs) > 0 {
			fmt.Fprintf(bw, "A %s %s\n", n.Name, strings.Join(attrs, " "))
		}
	}
	return bw.Flush()
}

func attrList(n *netlist.Node) []string {
	var attrs []string
	if n.Flags.Has(netlist.FlagInput) {
		attrs = append(attrs, "input")
	}
	if n.Flags.Has(netlist.FlagOutput) {
		attrs = append(attrs, "output")
	}
	if n.Flags.Has(netlist.FlagClock) {
		attrs = append(attrs, fmt.Sprintf("clock=%d", n.Phase))
	}
	if n.Flags.Has(netlist.FlagPrecharged) {
		if n.Phase != 0 && !n.Flags.Has(netlist.FlagClock) {
			attrs = append(attrs, fmt.Sprintf("precharged=%d", n.Phase))
		} else {
			attrs = append(attrs, "precharged")
		}
	}
	if n.Flags.Has(netlist.FlagStorage) {
		if n.Phase != 0 && !n.Flags.Has(netlist.FlagClock) && !n.Flags.Has(netlist.FlagPrecharged) {
			attrs = append(attrs, fmt.Sprintf("storage=%d", n.Phase))
		} else {
			attrs = append(attrs, "storage")
		}
	}
	if n.Flags.Has(netlist.FlagFlowIn) {
		attrs = append(attrs, "flowin")
	}
	if n.Flags.Has(netlist.FlagFlowOut) {
		attrs = append(attrs, "flowout")
	}
	if n.Exclusive != 0 {
		attrs = append(attrs, fmt.Sprintf("exclusive=%d", n.Exclusive))
	}
	return attrs
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
