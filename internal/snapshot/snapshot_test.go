package snapshot

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"nmostv/internal/tverr"
)

// sampleState builds a small but fully featured state: aliases, both
// device kinds, forced flow, infinities in the arrays, and two corners.
func sampleState() *State {
	inf := math.Inf(1)
	return &State{
		Meta: Meta{Name: "adder", Seq: 7, Applied: 12, ConfigFP: 0xdeadbeefcafe, CreatedUnix: 1754600000},
		Nodes: []NodeRec{
			{Name: "vdd", Flags: 1 << 4},
			{Name: "gnd", Flags: 1 << 4},
			{Name: "a", Cap: 0.125, Flags: 1, Phase: 1, Exclusive: 3},
			{Name: "out", Cap: 0.5, Flags: 2},
		},
		Aliases: []AliasRec{{Name: "VDD", Node: 0}, {Name: "Vss", Node: 1}},
		Trans: []TransRec{
			{ID: 1, Kind: 1, Gate: 0, A: 0, B: 3, W: 8, L: 2},
			{ID: 3, Kind: 0, Gate: 2, A: 3, B: 1, W: 4, L: 2, ForceFlow: 1},
		},
		NextID:   5,
		StageFPs: []uint64{0x1111, 0x2222222222222222},
		Base: ResultRec{
			RiseAt:    []float64{-inf, -inf, 10, 25.5},
			FallAt:    []float64{-inf, -inf, 11, 30.25},
			EarlyRise: []float64{inf, inf, 5, 20},
			EarlyFall: []float64{inf, inf, 6, 21},
		},
		Corners: []CornerRec{
			{Name: "slow", RScale: 1.5, CScale: 1.2, Res: ResultRec{
				RiseAt:    []float64{-inf, -inf, 18, 45.9},
				FallAt:    []float64{-inf, -inf, 19.8, 54.45},
				EarlyRise: []float64{inf, inf, 9, 36},
				EarlyFall: []float64{inf, inf, 10.8, 37.8},
			}},
			{Name: "typ", RScale: 1, CScale: 1, Res: ResultRec{
				RiseAt:    []float64{-inf, -inf, 10, 25.5},
				FallAt:    []float64{-inf, -inf, 11, 30.25},
				EarlyRise: []float64{inf, inf, 5, 20},
				EarlyFall: []float64{inf, inf, 6, 21},
			}},
		},
	}
}

func encodeState(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	st := sampleState()
	data := encodeState(t, st)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip diverged:\n in  %+v\n out %+v", st, got)
	}
	m, err := DecodeMeta(data)
	if err != nil {
		t.Fatalf("DecodeMeta: %v", err)
	}
	if m != st.Meta {
		t.Fatalf("DecodeMeta = %+v, want %+v", m, st.Meta)
	}
}

// TestDecodeCorruption flips every byte of a valid snapshot in turn: each
// mutation must either decode to the identical state (a byte the format
// genuinely does not depend on would be a bug — there are none) or fail
// with a typed Invalid error. Nothing may panic.
func TestDecodeCorruption(t *testing.T) {
	orig := sampleState()
	data := encodeState(t, orig)
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0xff
		st, err := Decode(mut)
		if err == nil {
			t.Fatalf("byte %d flipped: decode succeeded (%+v)", i, st)
		}
		if tverr.KindOf(err) != tverr.Invalid {
			t.Fatalf("byte %d flipped: error kind %v, want Invalid: %v", i, tverr.KindOf(err), err)
		}
	}
}

func TestDecodeTruncation(t *testing.T) {
	data := encodeState(t, sampleState())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncated to %d bytes: decode succeeded", n)
		} else if tverr.KindOf(err) != tverr.Invalid {
			t.Fatalf("truncated to %d bytes: error kind %v, want Invalid", n, tverr.KindOf(err))
		}
	}
	if _, err := Decode(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing byte after END accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*State)
	}{
		{"dup node name", func(st *State) { st.Nodes[3].Name = "a" }},
		{"empty node name", func(st *State) { st.Nodes[2].Name = "" }},
		{"alias out of range", func(st *State) { st.Aliases[0].Node = 99 }},
		{"alias shadows node", func(st *State) { st.Aliases[0].Name = "out" }},
		{"dup device id", func(st *State) { st.Trans[1].ID = 1 }},
		{"ids out of order", func(st *State) { st.Trans[0].ID, st.Trans[1].ID = 3, 1 }},
		{"id beyond next", func(st *State) { st.Trans[1].ID = 50 }},
		{"terminal out of range", func(st *State) { st.Trans[0].Gate = -1 }},
		{"bad kind", func(st *State) { st.Trans[0].Kind = 9 }},
		{"short arrays", func(st *State) { st.Base.RiseAt = st.Base.RiseAt[:2] }},
		{"short corner arrays", func(st *State) { st.Corners[0].Res.FallAt = nil }},
	}
	for _, tc := range cases {
		st := sampleState()
		tc.mut(st)
		data := encodeState(t, st)
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if tverr.KindOf(err) != tverr.Invalid {
			t.Errorf("%s: error kind %v, want Invalid", tc.name, tverr.KindOf(err))
		}
	}
}

func TestStoreSaveLoadList(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := sampleState()
	if err := s.Save(st); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load("adder")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("store round trip diverged")
	}
	// Overwrite is atomic-replace: the new seq wins.
	st.Seq = 9
	if err := s.Save(st); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	metas, err := s.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(metas) != 1 || metas[0].Name != "adder" || metas[0].Seq != 9 {
		t.Fatalf("List = %+v", metas)
	}
	if _, err := s.Load("missing"); tverr.KindOf(err) != tverr.NotFound {
		t.Fatalf("missing design: %v", err)
	}
	if err := s.Remove("adder"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if metas, _ := s.List(); len(metas) != 0 {
		t.Fatalf("List after Remove = %+v", metas)
	}
}

// TestStoreHostileNames exercises the directory-name sanitizer: path
// separators, traversal attempts, dot-led and empty names must all stay
// inside the store root and never collide.
func TestStoreHostileNames(t *testing.T) {
	root := t.TempDir()
	s, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a/b", "a_b", "../escape", ".hidden", "", "design", "design "}
	for i, name := range names {
		st := sampleState()
		st.Name = name
		st.Seq = int64(100 + i)
		dir := s.designDir(name)
		if rel, err := filepath.Rel(root, dir); err != nil || rel == ".." || filepath.IsAbs(rel) ||
			len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator) {
			t.Fatalf("name %q maps outside the store: %s", name, dir)
		}
		if err := s.Save(st); err != nil {
			t.Fatalf("Save %q: %v", name, err)
		}
		got, err := s.Load(name)
		if err != nil || got.Seq != int64(100+i) {
			t.Fatalf("Load %q: %+v, %v", name, got, err)
		}
	}
	metas, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != len(names) {
		t.Fatalf("%d designs listed, want %d: %+v", len(metas), len(names), metas)
	}
}
