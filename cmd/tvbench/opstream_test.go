package main

import (
	"bytes"
	"reflect"
	"testing"

	"nmostv/internal/gen"
	"nmostv/internal/simfile"
	"nmostv/internal/tech"
)

// toyDesign is a small tiled chip, written and parsed as tvd would.
func toyDesign(t *testing.T) *design {
	t.Helper()
	var buf bytes.Buffer
	if err := simfile.Write(&buf, gen.TiledChip(tech.Default(), gen.DefaultTiledChip(3000))); err != nil {
		t.Fatal(err)
	}
	d, err := parseDesign("toy", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStreamDeterministic(t *testing.T) {
	d := toyDesign(t)
	ops := func(seed int64) []op {
		s := newStream(d, seed)
		var out []op
		for i := 0; i < 300; i++ {
			out = append(out, s.eco(), s.read())
		}
		return out
	}
	a, b := ops(1), ops(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different op streams")
	}
	if reflect.DeepEqual(a, ops(2)) {
		t.Fatal("seeds 1 and 2 gave the same op stream")
	}
}

// TestStreamMix checks that every round of a stream's deck holds the
// workload's mix exactly, whatever the seed: 7 resizes, 2 setcaps and 1
// topology edit per 10 batches, and 5/4/3/3/3/1/1 routes per round of 20
// reads.
func TestStreamMix(t *testing.T) {
	d := toyDesign(t)
	for seed := int64(1); seed <= 3; seed++ {
		s := newStream(d, seed)
		for round := 0; round < 3; round++ {
			ecos := make(map[string]int)
			for range 10 {
				ecos[s.eco().deltas[0].Op]++
			}
			// Topology edits alternate add and remove.
			if ecos["resize"] != 7 || ecos["setcap"] != 2 || ecos["add"]+ecos["remove"] != 1 {
				t.Fatalf("seed %d round %d: batches %v, want 7 resize, 2 setcap, 1 topology", seed, round, ecos)
			}
			reads := make(map[string]int)
			for range roundReads {
				reads[s.read().route]++
			}
			want := map[string]int{"node": 5, "slack": 4, "critical": 3, "paths": 3, "why": 3, "diff": 1, "corners": 1}
			if !reflect.DeepEqual(reads, want) {
				t.Fatalf("seed %d round %d: reads %v, want %v", seed, round, reads, want)
			}
		}
	}
}

// TestResizeChangesW follows every device's width through a long resize
// stream: no resize may leave a device at the width it already had.
func TestResizeChangesW(t *testing.T) {
	d := toyDesign(t)
	width := make(map[int64]float64)
	for _, dv := range d.devices {
		width[dv.id] = dv.w
	}
	s := newStream(d, 3)
	for i := 0; i < 20000; i++ {
		dl := s.resize().deltas[0]
		if dl.Op != "resize" || dl.W <= 0 {
			t.Fatalf("resize %d: %+v", i, dl)
		}
		if dl.W == width[dl.ID] {
			t.Fatalf("resize %d keeps device %d at W=%v", i, dl.ID, dl.W)
		}
		width[dl.ID] = dl.W
	}
}

// TestTopologyAddsThenRemoves checks that topology edits alternate: an
// add of a device parallel to a pulldown, predicting the ID the session
// will give it, then the remove of exactly that ID.
func TestTopologyAddsThenRemoves(t *testing.T) {
	d := toyDesign(t)
	s := newStream(d, 4)
	want := d.nextID
	for i := 0; i < 10; i++ {
		add := s.topology()
		if add.deltas[0].Op != "add" || add.added != want || add.deltas[0].Gate == "" {
			t.Fatalf("edit %d: %+v, want an add predicted as id %d", 2*i, add, want)
		}
		rm := s.topology()
		if rm.deltas[0].Op != "remove" || rm.deltas[0].ID != want {
			t.Fatalf("edit %d: %+v, want remove of id %d", 2*i+1, rm, want)
		}
		want++
	}
}
