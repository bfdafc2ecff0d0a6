package nmostv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"nmostv"
	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/incr"
	"nmostv/internal/obs"
	"nmostv/internal/slack"
)

// TestTvRunsEachBackwardPassOnce: tv ranks the base result's slack, then
// sweeps slow/typ/fast from that base; the typical corner is the base
// result, so the sweep reuses the pass tv already ran, and the whole
// flow runs three backward passes, one per distinct result.
func TestTvRunsEachBackwardPassOnce(t *testing.T) {
	tr := obs.NewTracer()
	o := &obs.Obs{Tr: tr}
	p := nmostv.DefaultParams()
	nl := gen.MIPSDatapath(p, gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	d := nmostv.Prepare(nl, p, nmostv.PrepareOptions{Workers: 1, Obs: o})
	opt := nmostv.AnalyzeOptions{Workers: 1, Obs: o}
	res, err := d.Analyze(nmostv.TwoPhase(900, 0.8), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Required(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	corners, err := nmostv.ParseCorners("slow,typ,fast")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AnalyzeCorners(res, corners, opt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Name string }
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range events {
		if ev.Name == "required" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("tv's slack ranking plus a slow,typ,fast sweep opened %d required spans, want 3", n)
	}
}

// The references below are the full-sort rankings the selector replaced:
// build every row, sort, truncate. The selector must match them exactly.

func refSlackRanking(r *core.Result, q *core.Required, k int) []core.SlackEntry {
	var out []core.SlackEntry
	for _, nd := range r.NL.Nodes {
		if nd.IsSupply() || nd.IsClock() {
			continue
		}
		i := nd.Index
		if s := q.Slack(i, core.Rise); !math.IsInf(s, 1) {
			out = append(out, core.SlackEntry{Node: nd, Pol: core.Rise,
				Arrival: r.RiseAt.At(i), Required: q.RiseRAT.At(i), Slack: s})
		}
		if s := q.Slack(i, core.Fall); !math.IsInf(s, 1) {
			out = append(out, core.SlackEntry{Node: nd, Pol: core.Fall,
				Arrival: r.FallAt.At(i), Required: q.FallRAT.At(i), Slack: s})
		}
	}
	slices.SortFunc(out, func(a, c core.SlackEntry) int {
		if a.Slack != c.Slack {
			if a.Slack < c.Slack {
				return -1
			}
			return 1
		}
		if a.Node.Index != c.Node.Index {
			return a.Node.Index - c.Node.Index
		}
		return int(a.Pol) - int(c.Pol)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func refMergedRanking(sw *slack.Sweep, k int) []slack.Entry {
	var out []slack.Entry
	for _, nd := range sw.Corners[0].Res.NL.Nodes {
		if nd.IsSupply() || nd.IsClock() {
			continue
		}
		ci := sw.WorstCorner.At(nd.Index)
		if ci < 0 {
			continue
		}
		cr := &sw.Corners[ci]
		pol := core.Rise
		if cr.Req.Slack(nd.Index, core.Fall) < cr.Req.Slack(nd.Index, core.Rise) {
			pol = core.Fall
		}
		at := cr.Res.RiseAt.At(nd.Index)
		if pol == core.Fall {
			at = cr.Res.FallAt.At(nd.Index)
		}
		out = append(out, slack.Entry{
			Node: nd, Corner: cr.Corner.Name, Pol: pol,
			Arrival: at, Required: cr.Req.RAT(nd.Index, pol),
			Slack: sw.WorstSlack.At(nd.Index),
		})
	}
	slices.SortFunc(out, func(a, b slack.Entry) int {
		if a.Slack != b.Slack {
			if a.Slack < b.Slack {
				return -1
			}
			return 1
		}
		return a.Node.Index - b.Node.Index
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func refTopPaths(r *core.Result, k int) []core.RankedPath {
	if k <= 0 {
		return nil
	}
	worst := make(map[int]core.Check)
	for _, c := range r.CheckList() {
		if c.Kind != core.CheckLatch && c.Kind != core.CheckOutput {
			continue
		}
		if old, ok := worst[c.Node.Index]; !ok || c.Slack < old.Slack {
			worst[c.Node.Index] = c
		}
	}
	var picks []core.Check
	for _, c := range worst {
		picks = append(picks, c)
	}
	sort.Slice(picks, func(i, j int) bool {
		if picks[i].Slack != picks[j].Slack {
			return picks[i].Slack < picks[j].Slack
		}
		return picks[i].Node.Index < picks[j].Node.Index
	})
	if len(picks) > k {
		picks = picks[:k]
	}
	out := make([]core.RankedPath, len(picks))
	for i, c := range picks {
		out[i] = core.RankedPath{Check: c, Steps: r.CheckPath(c)}
	}
	return out
}

// rankKs returns the k values a ranking of n rows is checked at.
func rankKs(n int, zero bool) []int {
	ks := []int{1, 10, n - 1, n, n + 5}
	if zero {
		ks = append(ks, 0)
	}
	return ks
}

// TestRankingsMatchFullSort: on a generated ~14k-transistor tiled design,
// whose repeated tiles tie on slack everywhere, edited by a few resizes
// through a three-corner session, every ranked read the selector serves
// returns exactly the full-sort reference's rows: SlackRanking of the
// base and of each corner, the merged Sweep.Ranking, and TopPaths, at
// k = 1, 10, n−1, n, n+5 and, where it means "all", 0.
func TestRankingsMatchFullSort(t *testing.T) {
	ctx := context.Background()
	p := nmostv.DefaultParams()
	nl := gen.TiledChip(p, gen.DefaultTiledChip(10_000))
	opt := core.Options{Workers: 1}
	s, err := incr.New(ctx, "tiled", nl, incr.Options{
		Params: p, Sched: nmostv.TwoPhase(200, 0.8), Core: opt, Corners: nmostv.Corners(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []int64{3, 1500, 7001, 12000} {
		w := []float64{2, 16, 3.5, 9}[i]
		if _, err := s.Apply(ctx, []incr.Delta{{Op: "resize", ID: id, W: w}}); err != nil {
			t.Fatalf("resize %d: %v", id, err)
		}
	}
	sw, err := s.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Result()
	baseReq, err := base.Required(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	type view struct {
		name string
		res  *core.Result
		req  *core.Required
	}
	views := []view{{"base", base, baseReq}}
	for _, cr := range sw.Corners {
		views = append(views, view{cr.Corner.Name, cr.Res, cr.Req})
	}
	ties := 0
	for _, v := range views {
		all := refSlackRanking(v.res, v.req, 0)
		if len(all) < 100 {
			t.Fatalf("%s: only %d constrained transitions", v.name, len(all))
		}
		for i := 1; i < len(all); i++ {
			if all[i].Slack == all[i-1].Slack {
				ties++
			}
		}
		for _, k := range rankKs(len(all), true) {
			if got, want := v.res.SlackRanking(v.req, k), refSlackRanking(v.res, v.req, k); !slices.Equal(got, want) {
				t.Fatalf("%s SlackRanking(k=%d): %d rows differ from the full sort's %d", v.name, k, len(got), len(want))
			}
		}
		ends := len(refTopPaths(v.res, math.MaxInt))
		if ends < 10 {
			t.Fatalf("%s: only %d endpoints", v.name, ends)
		}
		for _, k := range append(rankKs(ends, false), 0, -3) {
			got, want := v.res.TopPaths(k), refTopPaths(v.res, k)
			if err := sameRankedPaths(got, want); err != nil {
				t.Fatalf("%s TopPaths(k=%d): %v", v.name, k, err)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal slacks: the tiebreak is untested")
	}
	merged := refMergedRanking(sw, 0)
	for _, k := range rankKs(len(merged), true) {
		if got, want := sw.Ranking(k), refMergedRanking(sw, k); !slices.Equal(got, want) {
			t.Fatalf("merged Ranking(k=%d): %d rows differ from the full sort's %d", k, len(got), len(want))
		}
	}
}

func sameRankedPaths(got, want []core.RankedPath) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("%d paths (nil %v), full sort %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if got[i].Check != want[i].Check || !slices.Equal(got[i].Steps, want[i].Steps) {
			return fmt.Errorf("rank %d: %+v, full sort %+v", i+1, got[i].Check, want[i].Check)
		}
	}
	return nil
}
