package incr

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/slack"
	"nmostv/internal/tech"
)

// hashSweep hashes, bit for bit, everything a published version holds:
// every corner's arcs, caps and delay scale, its arrivals, predecessor
// records, check blocks, required times and slack ranking prefix, and
// the merged view and its ranking prefix.
func hashSweep(sw *slack.Sweep) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f := func(x float64) { word(math.Float64bits(x)) }
	for _, cr := range sw.Corners {
		m, r, q := cr.Model, cr.Res, cr.Req
		f(m.DelayScale())
		for i := range m.Edges.Len() {
			e := m.Edges.At(i)
			word(uint64(e.From)<<32 | uint64(uint32(e.To)))
			f(e.DRise)
			f(e.DFall)
			word(uint64(e.MaskRise)<<24 | uint64(e.MaskFall)<<16 | b2u(e.Invert)<<8 | b2u(e.GateArc))
			word(uint64(e.Via))
		}
		for i := range m.Caps.Len() {
			f(m.Caps.At(i))
		}
		for i := range r.RiseAt.Len() {
			f(r.RiseAt.At(i))
			f(r.FallAt.At(i))
			f(r.EarlyRise.At(i))
			f(r.EarlyFall.At(i))
			for _, pol := range []core.Polarity{core.Rise, core.Fall} {
				arc, from := r.DominantPred(i, pol)
				word(uint64(uint32(arc))<<8 | uint64(from))
			}
			f(q.RiseRAT.At(i))
			f(q.FallRAT.At(i))
		}
		for b, blk := range r.CheckBlocks() {
			word(uint64(b)<<32 | uint64(len(blk)))
			for _, c := range blk {
				word(uint64(c.Kind)<<40 | uint64(c.Node.Index)<<8 | uint64(c.Pol))
				word(uint64(c.Phase)<<33 | b2u(c.OK)<<32 | uint64(uint32(c.Edge())))
				f(c.Arrival)
				f(c.Deadline)
				f(c.Slack)
			}
		}
		rows, all := q.BuiltRanking()
		word(uint64(len(rows))<<1 | b2u(all))
		for _, e := range rows {
			word(uint64(e.Node.Index)<<8 | uint64(e.Pol))
			f(e.Arrival)
			f(e.Required)
			f(e.Slack)
		}
	}
	for i := range sw.WorstSlack.Len() {
		f(sw.WorstSlack.At(i))
		word(uint64(uint32(sw.WorstCorner.At(i))))
	}
	rows, all := sw.BuiltRanking()
	word(uint64(len(rows))<<1 | b2u(all))
	for _, e := range rows {
		word(uint64(e.Node.Index)<<8 | uint64(e.Pol))
		h.Write([]byte(e.Corner))
		f(e.Arrival)
		f(e.Required)
		f(e.Slack)
	}
	return h.Sum64()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestRetainedVersionsNeverChange: a published version is never written
// again, though the versions after it share every chunk of its arrays
// and every check block that their cones did not write, and derive their
// slack rankings from its prefixes. Its hash (hashSweep) is the same after
// resizes, setcaps, an add and a remove, a batch a fault point rolls back
// and a Full re-analysis, and a path stream opened on it before them
// returns the same paths as one drained before them.
func TestRetainedVersionsNeverChange(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	p := tech.Default()
	s, err := New(ctx, "retained", gen.TiledChip(p, gen.DefaultTiledChip(10_000)), Options{
		Params: p, Sched: testSchedule(), Core: core.Options{Workers: 1}, Corners: tech.Corners(),
	})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := s.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Corners[0].Res.RiseAt.NumChunks() < 2 {
		t.Fatal("the chip fits in one chunk; nothing is shared")
	}
	for _, view := range []string{"", "slow", "typ", "fast"} {
		if _, err := s.Slack(ctx, 10, view); err != nil {
			t.Fatal(err)
		}
	}
	if rows, _ := kept.BuiltRanking(); len(rows) < 10 {
		t.Fatalf("the kept version's merged ranking prefix holds %d rows", len(rows))
	}
	want := hashSweep(kept)
	const npaths = 40
	drain := func(ps *PathStream) []PathInfo {
		var out []PathInfo
		for len(out) < npaths {
			pi, ok := ps.Next()
			if !ok {
				break
			}
			out = append(out, pi)
		}
		return out
	}
	ref, err := s.PathStream("slow")
	if err != nil {
		t.Fatal(err)
	}
	wantPaths := drain(ref)
	stream, err := s.PathStream("slow")
	if err != nil {
		t.Fatal(err)
	}

	devs := s.Devices()
	tr := s.nl.Trans[len(s.nl.Trans)/2]
	node := s.nl.Nodes[len(s.nl.Nodes)/3].Name
	batches := [][]Delta{
		{{Op: "resize", ID: devs[len(devs)/5].ID, W: devs[len(devs)/5].W * 1.5}},
		{{Op: "resize", ID: devs[len(devs)/2].ID, L: devs[len(devs)/2].L * 2}},
		{{Op: "setcap", Node: node, Cap: 0.2}},
		{{Op: "add", Kind: "e", Gate: node, A: tr.A.Name, B: "gnd", W: 4, L: 2}},
		{{Op: "remove", ID: tr.ID}},
		{{Op: "resize", ID: devs[4*len(devs)/5].ID, W: devs[4*len(devs)/5].W * 0.5}},
	}
	for i, b := range batches {
		if _, err := s.Apply(ctx, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, view := range []string{"", "slow", "typ", "fast"} {
			if _, err := s.Slack(ctx, 10*(i+1), view); err != nil {
				t.Fatal(err)
			}
		}
	}
	faultpoint.Arm("incr.apply.corner", faultpoint.Action{Err: faultpoint.ErrInjected})
	if _, err := s.Apply(ctx, []Delta{{Op: "setcap", Node: node, Cap: 0.4}}); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("rolled-back batch: Apply = %v, want injected fault", err)
	}
	faultpoint.Reset()
	if _, err := s.Full(ctx); err != nil {
		t.Fatal(err)
	}

	if got := hashSweep(kept); got != want {
		t.Fatal("a retained version changed after later batches")
	}
	now, err := s.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hashSweep(now) == want {
		t.Fatal("the batches changed nothing, so the test proves nothing")
	}
	if got := drain(stream); !reflect.DeepEqual(got, wantPaths) {
		t.Fatalf("a path stream opened before the batches returned %d other paths", len(got))
	}
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatal(err)
	}
}
