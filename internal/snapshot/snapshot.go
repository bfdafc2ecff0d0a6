package snapshot

import (
	"bytes"
	"hash/crc32"
	"io"

	"nmostv/internal/faultpoint"
)

// State is the complete persisted form of one incremental session. It is
// deliberately a value type of names, indices, and raw numbers — no
// netlist pointers, no analysis types — so the snapshot package stays at
// the bottom of the dependency graph and internal/incr converts in both
// directions.
//
// What it carries is the session's source of truth (the netlist, exactly
// as edited) plus the evidence needed to prove a restore reproduced the
// session bit for bit: the per-stage content fingerprints and every
// published arrival array, base and per-corner. What it deliberately does
// NOT carry: shard-cache edge contents, required-time caches, older
// version-ring entries, arenas — all are re-derivable, and the engine's
// determinism (results identical at any worker count) makes re-analysis
// the restore path, with the persisted arrays as the cross-check.
type State struct {
	Meta

	// Nodes is the node table in index order; Nodes[0] and Nodes[1] are
	// the supplies ("vdd", "gnd") by construction.
	Nodes []NodeRec
	// Aliases are name-table entries whose key differs from the node's
	// canonical name (case variants of vdd/gnd/vss): journaled deltas may
	// address nodes through them.
	Aliases []AliasRec
	// Trans is the device table in index order, with stable IDs.
	Trans []TransRec
	// NextID is the netlist's device-ID allocator position; it can exceed
	// the largest live ID when the most recently added devices were
	// removed.
	NextID int64

	// StageFPs are the stage partition's content fingerprints in stage
	// order — a compact proof that restore re-derived the same partition
	// and shard-cache keyspace.
	StageFPs []uint64

	// Base is the published base-process result; Corners are the
	// per-corner results in configuration order.
	Base    ResultRec
	Corners []CornerRec
}

// Meta is the snapshot's self-description, decodable without reading the
// rest of the file (DecodeMeta) so warm restart can register designs
// cheaply and hydrate them lazily.
type Meta struct {
	// Name is the design name (the registry key, untouched by the
	// store's directory-name sanitization).
	Name string
	// Seq is the session's publish sequence at snapshot time; journal
	// records with seq ≤ Seq are already folded in and replay skips them.
	Seq int64
	// Applied is the session's lifetime applied-delta count.
	Applied int64
	// ConfigFP fingerprints the analysis configuration (process, clocks,
	// corners, case constants). A restore under a different configuration
	// would silently produce different timing, so it must refuse instead.
	ConfigFP uint64
	// CreatedUnix is the snapshot's write time (informational).
	CreatedUnix int64
}

// NodeRec is one persisted node: name plus every scalar the analysis
// reads. Gates/Terms/Role are derived by Finalize and not persisted.
type NodeRec struct {
	Name      string
	Cap       float64
	Flags     uint16
	Phase     int32
	Exclusive int32
}

// AliasRec maps an alias name to its node index.
type AliasRec struct {
	Name string
	Node int32
}

// TransRec is one persisted device. Flow and Role are derived (flow
// analysis, Finalize) and not persisted; ForceFlow is a designer
// annotation and is.
type TransRec struct {
	ID        int64
	Kind      uint8
	Gate      int32
	A         int32
	B         int32
	W, L      float64
	ForceFlow uint8
}

// ResultRec is one analysis's published arrival arrays, stored as raw
// IEEE-754 bits (±Inf included) for bitwise restore verification.
type ResultRec struct {
	RiseAt, FallAt       []float64
	EarlyRise, EarlyFall []float64
}

// CornerRec is one corner's identity and published result.
type CornerRec struct {
	Name           string
	RScale, CScale float64
	Res            ResultRec
}

// FaultSection is the fault point armed once per section write in Encode;
// chaos tests inject errors here to simulate torn snapshot writes.
const FaultSection = "snapshot.write.section"

// Encode writes the snapshot: an 8-byte magic/version header followed by
// checksummed sections, END-terminated. The writer is typically a
// buffered temp file; the store's atomic-rename discipline makes the
// on-disk snapshot all-or-nothing.
func Encode(w io.Writer, st *State) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	var payload bytes.Buffer
	emit := func(t sectionTag, fill func(e *enc)) error {
		if err := faultpoint.Hit(FaultSection); err != nil {
			return err
		}
		payload.Reset()
		pe := &enc{w: &payload}
		fill(pe)
		if pe.err != nil {
			return pe.err
		}
		he := &enc{w: w}
		he.write(t[:])
		he.u64(uint64(payload.Len()))
		he.write(payload.Bytes())
		he.u32(crc32.Checksum(payload.Bytes(), castagnoli))
		return he.err
	}
	if err := emit(tagMeta, func(e *enc) { encodeMeta(e, &st.Meta) }); err != nil {
		return err
	}
	if err := emit(tagNetlist, func(e *enc) { encodeNetlist(e, st) }); err != nil {
		return err
	}
	if err := emit(tagPrints, func(e *enc) { e.u64s(st.StageFPs) }); err != nil {
		return err
	}
	if err := emit(tagResult, func(e *enc) { encodeResults(e, st) }); err != nil {
		return err
	}
	return emit(tagEnd, func(e *enc) {})
}

func encodeMeta(e *enc, m *Meta) {
	e.str(m.Name)
	e.i64(m.Seq)
	e.i64(m.Applied)
	e.u64(m.ConfigFP)
	e.i64(m.CreatedUnix)
}

func encodeNetlist(e *enc, st *State) {
	e.u32(uint32(len(st.Nodes)))
	for i := range st.Nodes {
		n := &st.Nodes[i]
		e.str(n.Name)
		e.f64(n.Cap)
		e.u32(uint32(n.Flags))
		e.u32(uint32(n.Phase))
		e.u32(uint32(n.Exclusive))
	}
	e.u32(uint32(len(st.Aliases)))
	for i := range st.Aliases {
		e.str(st.Aliases[i].Name)
		e.u32(uint32(st.Aliases[i].Node))
	}
	e.u32(uint32(len(st.Trans)))
	for i := range st.Trans {
		t := &st.Trans[i]
		e.i64(t.ID)
		e.u32(uint32(t.Kind))
		e.u32(uint32(t.Gate))
		e.u32(uint32(t.A))
		e.u32(uint32(t.B))
		e.f64(t.W)
		e.f64(t.L)
		e.u32(uint32(t.ForceFlow))
	}
	e.i64(st.NextID)
}

func encodeResults(e *enc, st *State) {
	encodeResult(e, &st.Base)
	e.u32(uint32(len(st.Corners)))
	for i := range st.Corners {
		c := &st.Corners[i]
		e.str(c.Name)
		e.f64(c.RScale)
		e.f64(c.CScale)
		encodeResult(e, &c.Res)
	}
}

func encodeResult(e *enc, r *ResultRec) {
	e.f64s(r.RiseAt)
	e.f64s(r.FallAt)
	e.f64s(r.EarlyRise)
	e.f64s(r.EarlyFall)
}

// section reads one [tag][len][payload][crc] frame from d, verifying the
// checksum. Returns the payload as a sub-decoder.
func section(d *dec) (sectionTag, *dec) {
	var t sectionTag
	b := d.take(4)
	if b == nil {
		return t, nil
	}
	copy(t[:], b)
	n := d.u64()
	if d.err != nil {
		return t, nil
	}
	if n > uint64(d.rest()) {
		d.fail("section %s: length %d exceeds remaining %d bytes", t, n, d.rest())
		return t, nil
	}
	payload := d.take(int(n))
	sum := d.u32()
	if d.err != nil {
		return t, nil
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		d.fail("section %s: checksum mismatch (%08x, want %08x)", t, got, sum)
		return t, nil
	}
	return t, &dec{p: payload}
}

// header validates the snapshot magic/version prefix.
func header(d *dec) {
	b := d.take(len(snapMagic))
	if d.err != nil {
		return
	}
	if string(b) == snapMagic {
		return
	}
	if string(b[:6]) == snapMagic[:6] {
		d.fail("unsupported snapshot version %d.%d (this build reads %d)",
			b[6], b[7], FormatVersion)
		return
	}
	d.fail("not a snapshot file (bad magic)")
}

// DecodeMeta reads only the header and META section — enough to register
// a persisted design without paying for its arrays.
func DecodeMeta(data []byte) (Meta, error) {
	d := &dec{p: data}
	header(d)
	t, sd := section(d)
	if d.err != nil {
		return Meta{}, d.err
	}
	if t != tagMeta {
		return Meta{}, errf("first section is %s, want %s", t, tagMeta)
	}
	m := decodeMeta(sd)
	if sd.err != nil {
		return Meta{}, sd.err
	}
	return m, nil
}

func decodeMeta(d *dec) Meta {
	m := Meta{
		Name:        d.str(),
		Seq:         d.i64(),
		Applied:     d.i64(),
		ConfigFP:    d.u64(),
		CreatedUnix: d.i64(),
	}
	if d.err == nil && d.rest() != 0 {
		d.fail("META: %d trailing bytes", d.rest())
	}
	return m
}

// Decode parses a complete snapshot. Any corruption — truncation, a
// flipped bit under a checksum, an out-of-range index, a missing
// section — yields a typed tverr.Invalid error; Decode never panics on
// arbitrary input and never returns a partially valid State.
func Decode(data []byte) (*State, error) {
	d := &dec{p: data}
	header(d)
	st := &State{}
	seen := map[sectionTag]bool{}
	done := false
	for !done {
		t, sd := section(d)
		if d.err != nil {
			return nil, d.err
		}
		if seen[t] {
			return nil, errf("duplicate section %s", t)
		}
		seen[t] = true
		switch t {
		case tagMeta:
			st.Meta = decodeMeta(sd)
		case tagNetlist:
			decodeNetlist(sd, st)
		case tagPrints:
			st.StageFPs = sd.u64s()
			if sd.err == nil && sd.rest() != 0 {
				sd.fail("FPRT: %d trailing bytes", sd.rest())
			}
		case tagResult:
			decodeResults(sd, st)
		case tagEnd:
			if sd.rest() != 0 {
				return nil, errf("END section carries %d bytes", sd.rest())
			}
			done = true
		default:
			return nil, errf("unknown section %s", t)
		}
		if sd.err != nil {
			return nil, sd.err
		}
	}
	if d.rest() != 0 {
		return nil, errf("%d bytes after END section", d.rest())
	}
	for _, t := range []sectionTag{tagMeta, tagNetlist, tagPrints, tagResult} {
		if !seen[t] {
			return nil, errf("missing section %s", t)
		}
	}
	return st, validate(st)
}

func decodeNetlist(d *dec, st *State) {
	n := d.length(24) // min node record: 4-byte name len + 8 + 4 + 4 + 4
	if d.err != nil {
		return
	}
	st.Nodes = make([]NodeRec, n)
	for i := range st.Nodes {
		st.Nodes[i] = NodeRec{
			Name:      d.str(),
			Cap:       d.f64(),
			Flags:     uint16(d.u32()),
			Phase:     int32(d.u32()),
			Exclusive: int32(d.u32()),
		}
		if d.err != nil {
			return
		}
	}
	na := d.length(8)
	if d.err != nil {
		return
	}
	st.Aliases = make([]AliasRec, na)
	for i := range st.Aliases {
		st.Aliases[i] = AliasRec{Name: d.str(), Node: int32(d.u32())}
		if d.err != nil {
			return
		}
	}
	nt := d.length(44) // 8 + 4*4 + 8 + 8 + 4
	if d.err != nil {
		return
	}
	st.Trans = make([]TransRec, nt)
	for i := range st.Trans {
		st.Trans[i] = TransRec{
			ID:        d.i64(),
			Kind:      uint8(d.u32()),
			Gate:      int32(d.u32()),
			A:         int32(d.u32()),
			B:         int32(d.u32()),
			W:         d.f64(),
			L:         d.f64(),
			ForceFlow: uint8(d.u32()),
		}
		if d.err != nil {
			return
		}
	}
	st.NextID = d.i64()
	if d.err == nil && d.rest() != 0 {
		d.fail("NETL: %d trailing bytes", d.rest())
	}
}

func decodeResults(d *dec, st *State) {
	decodeResult(d, &st.Base)
	n := d.length(28) // min corner: name len + 2 f64 + 4 array lens
	if d.err != nil {
		return
	}
	st.Corners = make([]CornerRec, n)
	for i := range st.Corners {
		c := &st.Corners[i]
		c.Name = d.str()
		c.RScale = d.f64()
		c.CScale = d.f64()
		decodeResult(d, &c.Res)
		if d.err != nil {
			return
		}
	}
	if d.err == nil && d.rest() != 0 {
		d.fail("RESL: %d trailing bytes", d.rest())
	}
}

func decodeResult(d *dec, r *ResultRec) {
	r.RiseAt = d.f64s()
	r.FallAt = d.f64s()
	r.EarlyRise = d.f64s()
	r.EarlyFall = d.f64s()
}

// validate enforces the structural invariants cross-section decoding
// cannot: in-range node indices, positive device IDs strictly increasing
// in device order, alias targets, and arrival arrays sized to the node
// table. Semantic checks (does re-analysis reproduce these arrays?)
// belong to incr.Restore.
func validate(st *State) error {
	nn := len(st.Nodes)
	if nn < 2 {
		return errf("%d nodes; a netlist has at least its two supplies", nn)
	}
	names := make(map[string]bool, nn)
	for i := range st.Nodes {
		name := st.Nodes[i].Name
		if name == "" {
			return errf("node %d: empty name", i)
		}
		if names[name] {
			return errf("node %d: duplicate name %q", i, name)
		}
		names[name] = true
	}
	for i := range st.Aliases {
		a := &st.Aliases[i]
		if a.Node < 0 || int(a.Node) >= nn {
			return errf("alias %q: node index %d out of range", a.Name, a.Node)
		}
		if a.Name == "" || names[a.Name] {
			return errf("alias %q: empty or shadows a node name", a.Name)
		}
		names[a.Name] = true
	}
	// Device IDs strictly increase in device order, as the netlist keeps
	// them (its ID lookup relies on it), which also makes them unique.
	prevID := int64(0)
	for i := range st.Trans {
		t := &st.Trans[i]
		if t.ID <= prevID || t.ID > st.NextID {
			return errf("device %d: id %d out of order or range (previous id %d, next id %d)", i, t.ID, prevID, st.NextID)
		}
		prevID = t.ID
		for _, idx := range [3]int32{t.Gate, t.A, t.B} {
			if idx < 0 || int(idx) >= nn {
				return errf("device %d: terminal index %d out of range", i, idx)
			}
		}
		if t.Kind > 1 {
			return errf("device %d: bad kind %d", i, t.Kind)
		}
		if t.ForceFlow > 2 {
			return errf("device %d: bad force-flow %d", i, t.ForceFlow)
		}
	}
	if err := checkResult(&st.Base, "base", nn); err != nil {
		return err
	}
	for i := range st.Corners {
		if err := checkResult(&st.Corners[i].Res, st.Corners[i].Name, nn); err != nil {
			return err
		}
	}
	return nil
}

func checkResult(r *ResultRec, name string, nodes int) error {
	for _, a := range [4][]float64{r.RiseAt, r.FallAt, r.EarlyRise, r.EarlyFall} {
		if len(a) != nodes {
			return errf("result %s: arrival array length %d, want %d nodes", name, len(a), nodes)
		}
	}
	return nil
}
