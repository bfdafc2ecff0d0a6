package incr

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/obs"
	"nmostv/internal/slack"
	"nmostv/internal/tech"
)

// tiledSession loads a 3-corner tiled chip of about target transistors at
// one worker.
func tiledSession(t *testing.T, target int, reg *obs.Registry) *Session {
	t.Helper()
	p := tech.Default()
	opt := Options{Params: p, Sched: testSchedule(), Core: core.Options{Workers: 1}, Corners: tech.Corners()}
	if reg != nil {
		opt.Obs = &obs.Obs{Reg: reg}
	}
	s, err := New(context.Background(), "tiled", gen.TiledChip(p, gen.DefaultTiledChip(target)), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scanSlack is what Slack(k, view) must return: every row of the view
// built from the published arrays, the k smallest selected by a full
// core.TopK scan, in Slack's serializable form.
func scanSlack(t *testing.T, s *Session, k int, view string) []SlackInfo {
	t.Helper()
	ctx := context.Background()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []SlackInfo
	if view != "" {
		res, err := s.cornerResult(view, "test")
		if err != nil {
			t.Fatal(err)
		}
		q, err := s.required(ctx, res)
		if err != nil {
			t.Fatal(err)
		}
		top := core.NewTopK(k, func(a, b core.SlackEntry) int {
			if a.Slack != b.Slack {
				if a.Slack < b.Slack {
					return -1
				}
				return 1
			}
			if a.Node.Index != b.Node.Index {
				return a.Node.Index - b.Node.Index
			}
			return int(a.Pol) - int(b.Pol)
		}, nil)
		for _, nd := range s.nl.Nodes {
			if nd.IsSupply() || nd.IsClock() {
				continue
			}
			for _, pol := range []core.Polarity{core.Rise, core.Fall} {
				if sl := q.Slack(nd.Index, pol); !math.IsInf(sl, 1) {
					at := res.RiseAt.At(nd.Index)
					if pol == core.Fall {
						at = res.FallAt.At(nd.Index)
					}
					top.Offer(core.SlackEntry{Node: nd, Pol: pol, Arrival: at, Required: q.RAT(nd.Index, pol), Slack: sl})
				}
			}
		}
		for _, e := range top.Sorted() {
			out = append(out, SlackInfo{Node: e.Node.Name, Corner: view, Pol: e.Pol.String(),
				Arrival: e.Arrival, Required: e.Required, Slack: e.Slack})
		}
		return out
	}
	sw, err := s.mergedSweep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	top := core.NewTopK(k, func(a, b slack.Entry) int {
		if a.Slack != b.Slack {
			if a.Slack < b.Slack {
				return -1
			}
			return 1
		}
		return a.Node.Index - b.Node.Index
	}, nil)
	for _, nd := range s.nl.Nodes {
		ci := sw.WorstCorner.At(nd.Index)
		if nd.IsSupply() || nd.IsClock() || ci < 0 {
			continue
		}
		cr := &sw.Corners[ci]
		pol, at := core.Rise, cr.Res.RiseAt.At(nd.Index)
		if cr.Req.Slack(nd.Index, core.Fall) < cr.Req.Slack(nd.Index, core.Rise) {
			pol, at = core.Fall, cr.Res.FallAt.At(nd.Index)
		}
		top.Offer(slack.Entry{Node: nd, Corner: cr.Corner.Name, Pol: pol, Arrival: at,
			Required: cr.Req.RAT(nd.Index, pol), Slack: sw.WorstSlack.At(nd.Index)})
	}
	for _, e := range top.Sorted() {
		out = append(out, SlackInfo{Node: e.Node.Name, Corner: e.Corner, Pol: e.Pol.String(),
			Arrival: e.Arrival, Required: e.Required, Slack: e.Slack})
	}
	return out
}

// sameSlackRows reports the first difference between got and want,
// comparing times by their bits.
func sameSlackRows(got, want []SlackInfo) (int, bool) {
	bits := math.Float64bits
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.Corner != w.Corner || g.Pol != w.Pol || bits(g.Arrival) != bits(w.Arrival) ||
			bits(g.Required) != bits(w.Required) || bits(g.Slack) != bits(w.Slack) {
			return i, false
		}
	}
	return min(len(got), len(want)), len(got) == len(want)
}

var views = []string{"", "slow", "typ", "fast"}

// TestSlackPrefixesMatchScans: after every batch of a random script —
// resizes, setcaps, an add and a remove, an annotation and a rolled-back
// batch — Slack(k, view) for every view and k of 1, 10, 50 and 0 (all),
// in a shuffled order, returns exactly a full TopK scan's rows, bit for
// bit. Every other round swaps the whole-ranking read for k of 100 and
// 300, so a version derives from a short base and the next reads land
// past its last row. Each round skips a random view, so the next
// version's first read of it has no previous prefix. The script runs on
// a 10k chip and on a small PLA whose whole rankings (27 merged rows, 54
// per corner) fit a derivation's base, so its versions derive from whole
// rankings too.
func TestSlackPrefixesMatchScans(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	p := tech.Default()
	pla := testWorkloads()[2]
	plaSession, err := New(ctx, pla.name, pla.build(p), Options{Params: p, Sched: testSchedule(),
		Core: core.Options{Workers: 1}, Corners: tech.Corners()})
	if err != nil {
		t.Fatal(err)
	}
	for target, s := range map[string]*Session{"10k": tiledSession(t, 10_000, nil), pla.name: plaSession} {
		rng := rand.New(rand.NewSource(int64(len(s.nl.Nodes))))
		devs := s.Devices()
		node := func() string {
			for {
				if n := s.nl.Nodes[rng.Intn(len(s.nl.Nodes))]; !n.IsSupply() && !n.IsClock() {
					return n.Name
				}
			}
		}
		var added int64
		batch := func(round int) []Delta {
			d := devs[rng.Intn(len(devs))]
			switch round % 8 {
			case 2, 6:
				return []Delta{{Op: "setcap", Node: node(), Cap: 0.02 + 0.2*rng.Float64()}}
			case 3:
				return []Delta{{Op: "add", Kind: "e", Gate: node(), A: node(), B: "gnd", W: 4, L: 2}}
			case 5:
				return []Delta{{Op: "annotate", Node: node(), Attrs: []string{"output"}}}
			case 7:
				if added != 0 {
					id := added
					added = 0
					return []Delta{{Op: "remove", ID: id}}
				}
			}
			return []Delta{{Op: "resize", ID: d.ID, W: d.W * (0.5 + 1.5*rng.Float64())}}
		}
		for round := 0; round < 24; round++ {
			if round == 9 {
				faultpoint.Arm("incr.apply.corner", faultpoint.Action{Err: faultpoint.ErrInjected})
				if _, err := s.Apply(ctx, batch(round)); !errors.Is(err, faultpoint.ErrInjected) {
					t.Fatalf("rolled-back batch: Apply = %v, want injected fault", err)
				}
				faultpoint.Reset()
			} else {
				st, err := s.Apply(ctx, batch(round))
				if err != nil {
					t.Fatalf("%s: round %d: %v", target, round, err)
				}
				if len(st.AddedIDs) == 1 {
					added = st.AddedIDs[0]
				}
			}
			skip := views[rng.Intn(len(views))]
			ks := []int{1, 10, 50, 0}
			if round%2 == 1 {
				ks = []int{1, 10, 100, 300}
			}
			rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
			for _, view := range views {
				if view == skip && round%3 != 0 {
					continue
				}
				for _, k := range ks {
					got, err := s.Slack(ctx, k, view)
					if err != nil {
						t.Fatal(err)
					}
					want := scanSlack(t, s, k, view)
					if i, ok := sameSlackRows(got, want); !ok {
						t.Fatalf("%s: round %d: Slack(%d, %q) holds %d rows, a full scan %d; first difference at row %d",
							target, round, k, view, len(got), len(want), i+1)
					}
				}
			}
		}
		if err := s.SelfCheck(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlackRankScansCounted: incr_slack_rank_scans_total counts the
// ranked slack reads that scan every node, exactly, over one fixed
// script on a 10k 3-corner chip. A version's first merged read scans
// (nothing to derive from); a repeat and a shorter read do not; the
// next version derives its k=10 read; a read past the derived prefix
// scans; a version whose merged ranking was never read leaves the next
// one to scan; the typical corner reads the base's ranking.
func TestSlackRankScansCounted(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	s := tiledSession(t, 10_000, reg)
	scans := reg.Counter("incr_slack_rank_scans_total", "", obs.Label{Key: "design", Val: "tiled"})
	devs := s.Devices()
	resize := func(i int) {
		t.Helper()
		d := devs[i*len(devs)/16]
		if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: d.ID, W: d.W * 1.25}}); err != nil {
			t.Fatal(err)
		}
	}
	read := func(k int, view string, want int64) {
		t.Helper()
		n := scans.Value()
		if _, err := s.Slack(ctx, k, view); err != nil {
			t.Fatal(err)
		}
		if got := scans.Value() - n; got != want {
			t.Fatalf("Slack(%d, %q) ran %d scans, want %d", k, view, got, want)
		}
	}
	read(10, "", 1) // the loaded version has no previous prefix
	read(10, "", 0)
	read(5, "", 0)
	resize(1)
	read(10, "", 0) // derived from the previous version's prefix
	read(3000, "", 1)
	read(2000, "", 0)
	resize(5)
	resize(9) // the merged ranking of the version between was never read
	read(10, "", 1)
	read(10, "slow", 1)
	read(10, "typ", 1)
	read(10, "fast", 1)
	resize(13)
	read(10, "slow", 0)
	read(10, "typ", 0)
	read(10, "", 0)
	resize(3)
	read(10, "typ", 0) // the base's ranking, read through "typ" in the version before
	read(10, "", 0)
	read(0, "fast", 1) // the fast corner's ranking of the version before was never read
	if got := scans.Value(); got != 7 {
		t.Fatalf("the script ran %d scans, want 7", got)
	}
}

// TestSlackPrefixConcurrentFirstReads: concurrent first reads of one
// version's rankings, merged and per corner, share one derivation or
// scan per view and return the same rows as a full scan. Run it under
// -race.
func TestSlackPrefixConcurrentFirstReads(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	s := cornerSession(t, reg)
	scans := reg.Counter("incr_slack_rank_scans_total", "", obs.Label{Key: "design", Val: "datapath4x4"})
	for round := 0; round < 3; round++ {
		n := scans.Value()
		var wg sync.WaitGroup
		got := make([][]SlackInfo, 4*len(views))
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, err := s.Slack(ctx, 10, views[i%len(views)])
				if err != nil {
					t.Error(err)
				}
				got[i] = rows
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, rows := range got {
			if j, ok := sameSlackRows(rows, scanSlack(t, s, 10, views[i%len(views)])); !ok {
				t.Fatalf("round %d: a concurrent read of view %q differs from a full scan at row %d", round, views[i%len(views)], j+1)
			}
		}
		// The loaded version has nothing to derive from, so each view
		// scans once; every later version derives each view.
		want := int64(0)
		if round == 0 {
			want = int64(len(views))
		}
		if moved := scans.Value() - n; moved != want {
			t.Fatalf("round %d: %d concurrent readers of four views ran %d scans, want %d", round, len(got), moved, want)
		}
		if err := s.SelfCheck(ctx); err != nil {
			t.Fatal(err)
		}
		tr := s.nl.Trans[len(s.nl.Trans)*(round+1)/4]
		if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: tr.ID, W: tr.W * 1.5}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelfCheckCoversSlackPrefixes: SelfCheck compares every slack
// ranking prefix the published version's reads built, merged and per
// corner, with a fresh scan, and reports a prefix with one altered row.
func TestSelfCheckCoversSlackPrefixes(t *testing.T) {
	ctx := context.Background()
	for _, view := range views {
		s := cornerSession(t, nil)
		tr := s.nl.Trans[len(s.nl.Trans)/2]
		for _, v := range views {
			if _, err := s.Slack(ctx, 10, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: tr.ID, W: tr.W * 2}}); err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if _, err := s.Slack(ctx, 10, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SelfCheck(ctx); err != nil {
			t.Fatal(err)
		}
		if view == "" {
			sw, err := s.Sweep(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rows, _ := sw.BuiltRanking()
			rows[len(rows)/2].Arrival = math.Nextafter(rows[len(rows)/2].Arrival, math.Inf(1))
		} else {
			res, err := s.cornerResult(view, "test")
			if err != nil {
				t.Fatal(err)
			}
			q, err := s.required(ctx, res)
			if err != nil {
				t.Fatal(err)
			}
			rows, _ := q.BuiltRanking()
			rows[len(rows)/2].Required = math.Nextafter(rows[len(rows)/2].Required, math.Inf(1))
		}
		if err := s.SelfCheck(ctx); err == nil {
			t.Fatalf("SelfCheck passed view %q's ranking prefix with an altered row", view)
		}
	}
}
