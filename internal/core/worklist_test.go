package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"nmostv/internal/cow"
	"nmostv/internal/delay"
	"nmostv/internal/flow"
	"nmostv/internal/gen"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// TestIncrementalWorkFollowsCone pins that an incremental pass pays for
// its cone, not the design: resizing the pulldown of an inverter chain's
// last stage schedules as many components (core_wave_comps_total, over
// AnalyzeIncremental and the Required pass after it) at chain 32 as at
// chain 512. Nothing constrains the chain, so no required time moves and
// the backward pass relaxes its seed alone.
func TestIncrementalWorkFollowsCone(t *testing.T) {
	scheduled := func(chain int) int64 {
		ctx := context.Background()
		p := tech.Default()
		b := gen.New("cone", p)
		last := b.InvChain(b.Input("in"), chain)
		nl := b.Finish()
		st := stage.Extract(nl)
		flow.Analyze(nl)
		dopt := delay.Options{Workers: 1}
		cache := delay.NewCache()
		m, _, err := delay.BuildWithCache(ctx, nl, st, p, dopt, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(ctx, nl, m, sched(), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Required(ctx, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		var pd *netlist.Transistor
		for _, tr := range last.Terms {
			if tr.Kind == netlist.Enh {
				pd = tr
			}
		}
		pd.W *= 2
		m, bs, err := delay.BuildWithCache(ctx, nl, st, p, dopt, cache, []int{pd.Gate.Index, pd.A.Index, pd.B.Index})
		if err != nil {
			t.Fatal(err)
		}
		var seed []int32
		for _, stg := range bs.Rebuilt {
			for _, nd := range stg.Nodes {
				seed = append(seed, int32(nd.Index))
			}
		}
		o := obs.NewObs()
		opt := Options{Workers: 1, Obs: o}
		next, ds, err := AnalyzeIncremental(ctx, nl, m, sched(), opt, res, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ds.CompsRelaxed == 0 {
			t.Fatalf("chain %d: the resize relaxed nothing", chain)
		}
		if _, err := next.Required(ctx, opt); err != nil {
			t.Fatal(err)
		}
		return o.Counter("core_wave_comps_total", "").Value()
	}
	if short, long := scheduled(32), scheduled(512); short != long || short == 0 {
		t.Fatalf("a last-stage resize scheduled %d components at chain 32 and %d at chain 512, want the same", short, long)
	}
}

// TestIncrementalRequiredBytesFollowCone pins that an incremental
// Required allocates for its cone, not the plan: after a warm-up resize,
// the backward pass after a second last-stage resize allocates the same
// bytes at chain 32 as at chain 512. A pass that allocated its own
// worklist, with a mark per component and a bucket per level, or copied
// whole required-time arrays, allocates more at 512.
func TestIncrementalRequiredBytesFollowCone(t *testing.T) {
	bytes := func(chain int) uint64 {
		ctx := context.Background()
		p := tech.Default()
		b := gen.New("cone", p)
		last := b.InvChain(b.Input("in"), chain)
		nl := b.Finish()
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
		if _, err := res.Required(ctx, opt); err != nil {
			t.Fatal(err)
		}
		var pd *netlist.Transistor
		for _, tr := range last.Terms {
			if tr.Kind == netlist.Enh {
				pd = tr
			}
		}
		var used uint64
		for range 2 {
			pd.W *= 2
			m, bs, err := delay.BuildWithCache(ctx, nl, st, p, dopt, cache, []int{pd.Gate.Index, pd.A.Index, pd.B.Index})
			if err != nil {
				t.Fatal(err)
			}
			var seed []int32
			for _, stg := range bs.Rebuilt {
				for _, nd := range stg.Nodes {
					seed = append(seed, int32(nd.Index))
				}
			}
			if res, _, err = AnalyzeIncremental(ctx, nl, m, sched(), opt, res, seed); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := res.Required(ctx, opt); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			used = after.TotalAlloc - before.TotalAlloc
		}
		return used
	}
	if short, long := bytes(32), bytes(512); short != long {
		t.Fatalf("an incremental Required after a last-stage resize allocated %d bytes at chain 32 and %d at chain 512, want the same", short, long)
	}
}

// TestChecksFollowCone pins that an incremental analysis pays for the
// check blocks its cone touches, not for every check: the chip's first
// block holds a chain with an output check on every stage, the second a
// four-stage chain ending in an output, and the analysis after a second
// resize of that short chain's last pulldown allocates the same bytes
// with a checked chain of 32 stages as of 512. Splicing every check into
// a new list (64 bytes a check) allocates about 30 KiB more at 512.
func TestChecksFollowCone(t *testing.T) {
	bytes := func(chain int) uint64 {
		ctx := context.Background()
		p := tech.Default()
		b := gen.New("cone", p)
		cur := b.Input("in")
		for range chain {
			cur = b.Output(b.Inverter(cur))
		}
		pad := b.Input("pad")
		for len(b.NL.Nodes) < cow.ChunkLen {
			b.Inverter(pad)
		}
		last := b.Output(b.InvChain(b.Input("edit"), 4))
		nl := b.Finish()
		st := stage.Extract(nl)
		flow.Analyze(nl)
		dopt := delay.Options{Workers: 1}
		opt := Options{Workers: 1, Arena: &Arena{}} // a warm arena's worklists allocate nothing
		cache := delay.NewCache()
		m, _, err := delay.BuildWithCache(ctx, nl, st, p, dopt, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(ctx, nl, m, sched(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.CheckList()); n < chain {
			t.Fatalf("chain %d: only %d checks", chain, n)
		}
		var pd *netlist.Transistor
		for _, tr := range last.Terms {
			if tr.Kind == netlist.Enh {
				pd = tr
			}
		}
		var used uint64
		for range 2 {
			pd.W *= 2
			m, bs, err := delay.BuildWithCache(ctx, nl, st, p, dopt, cache, []int{pd.Gate.Index, pd.A.Index, pd.B.Index})
			if err != nil {
				t.Fatal(err)
			}
			var seed []int32
			for _, stg := range bs.Rebuilt {
				for _, nd := range stg.Nodes {
					seed = append(seed, int32(nd.Index))
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			next, ds, err := AnalyzeIncremental(ctx, nl, m, sched(), opt, res, seed)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if ds.NodesRelaxed == 0 || int(ds.Relaxed[0]) < cow.ChunkLen {
				t.Fatalf("chain %d: the resize relaxed %v, want nodes of the second block only", chain, ds.Relaxed)
			}
			res, used = next, after.TotalAlloc-before.TotalAlloc
		}
		return used
	}
	if short, long := bytes(32), bytes(512); short != long {
		t.Fatalf("an incremental analysis after a resize in the second block allocated %d bytes with 32 checked stages in the first and %d with 512, want the same", short, long)
	}
}

// TestWorklistFanOutRace drives the incremental walk's fan-out: a fan of
// inverter chains whose first and last stages slow down, so the seed
// fills levels with at least minParallelLevel components and the forward
// and backward passes wake the next level from concurrent workers. The
// fan spans several chunks of the copy-on-write arrays, and the settle,
// early and required passes each extend the previous result's arrays,
// every chunk of which is shared when the pass starts, so concurrent
// workers write into chunks the walk must own before it fans out. The
// result and its Required must equal a from-scratch analysis bit for bit
// and leave the previous result as it was (run under -race -count=10 in
// CI).
func TestWorklistFanOutRace(t *testing.T) {
	const depth = 5
	const chains = 3 * cow.ChunkLen / depth
	ctx := context.Background()
	b := gen.New("fan", tech.Default())
	in := b.Input("in")
	var first, ends []*netlist.Node
	for i := 0; i < chains; i++ {
		n := b.Inverter(in)
		first = append(first, n)
		ends = append(ends, b.Output(b.InvChain(n, depth-1)))
	}
	nl, m := pipeline(b)
	opt := Options{Workers: runtime.GOMAXPROCS(0) + 1}
	res, err := Analyze(ctx, nl, m, sched(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Required(ctx, opt); err != nil {
		t.Fatal(err)
	}
	if res.RiseAt.NumChunks() < 3 {
		t.Fatalf("the fan spans %d chunks, want at least 3", res.RiseAt.NumChunks())
	}
	prevArrays := [][]float64{res.RiseAt.Slice(), res.FallAt.Slice(), res.EarlyRise.Slice(),
		res.EarlyFall.Slice(), res.req.RiseRAT.Slice(), res.req.FallRAT.Slice()}
	for _, set := range [][]*netlist.Node{first, ends} {
		lvl := res.wave.level[res.wave.compOf[set[0].Index]]
		for _, n := range set {
			if res.wave.level[res.wave.compOf[n.Index]] != lvl {
				t.Fatalf("node %s is not at level %d with %s", n, lvl, set[0])
			}
		}
	}

	slow := *m
	slow.Edges = m.Edges.Clone()
	var seed []int32
	for _, n := range append(first, ends...) {
		seed = append(seed, int32(n.Index))
		for _, ei := range res.wave.in(int32(n.Index)) {
			e := slow.Edges.Mut(int(ei))
			e.DRise *= 1.5
			e.DFall *= 1.5
		}
	}
	next, _, err := AnalyzeIncremental(ctx, nl, &slow, sched(), opt, res, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := next.Required(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(ctx, nl, &slow, sched(), opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Required(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotRise, gotFall := slackArrays(got)
	wantRise, wantFall := slackArrays(want)
	for _, arr := range []struct {
		name       string
		have, want []float64
	}{
		{"RiseAt", next.RiseAt.Slice(), ref.RiseAt.Slice()}, {"FallAt", next.FallAt.Slice(), ref.FallAt.Slice()},
		{"EarlyRise", next.EarlyRise.Slice(), ref.EarlyRise.Slice()}, {"EarlyFall", next.EarlyFall.Slice(), ref.EarlyFall.Slice()},
		{"RiseRAT", got.RiseRAT.Slice(), want.RiseRAT.Slice()}, {"FallRAT", got.FallRAT.Slice(), want.FallRAT.Slice()},
		{"SlackRise", gotRise, wantRise}, {"SlackFall", gotFall, wantFall},
	} {
		for i := range arr.want {
			if math.Float64bits(arr.have[i]) != math.Float64bits(arr.want[i]) {
				t.Fatalf("%s[%d] (%s) = %v, from scratch %v", arr.name, i, nl.Nodes[i], arr.have[i], arr.want[i])
			}
		}
	}
	for i := range nl.Nodes {
		for _, pol := range bothPols {
			if next.predOf(i, pol) != ref.predOf(i, pol) {
				t.Fatalf("node %s %s predecessor %+v, from scratch %+v", nl.Nodes[i], pol, next.predOf(i, pol), ref.predOf(i, pol))
			}
		}
	}
	if !slices.Equal(next.CheckList(), ref.Checks) {
		t.Fatalf("checks differ from a from-scratch analysis")
	}
	if ref.RiseAt.At(ends[0].Index) == res.RiseAt.At(ends[0].Index) || want.RiseRAT.At(in.Index) == res.req.RiseRAT.At(in.Index) {
		t.Fatal("the slower arcs moved neither the chains' arrivals nor the input's required time")
	}
	for k, arr := range [][]float64{res.RiseAt.Slice(), res.FallAt.Slice(), res.EarlyRise.Slice(),
		res.EarlyFall.Slice(), res.req.RiseRAT.Slice(), res.req.FallRAT.Slice()} {
		if !slices.EqualFunc(arr, prevArrays[k], sameBits) {
			t.Fatalf("array %d of the previous result changed", k)
		}
	}
}
