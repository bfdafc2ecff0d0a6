package incr

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/snapshot"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

func persistOptions(workers int) Options {
	return Options{
		Params:  tech.Default(),
		Sched:   testSchedule(),
		Core:    core.Options{Workers: workers},
		Corners: tech.Corners(),
	}
}

// TestExportRestoreBitIdentical is the tentpole invariant: edit a
// session, push its export through the real wire format, restore, and
// the restored session must be bit-identical under SelfCheck at every
// corner — and must stay aligned with the original through further
// edits.
func TestExportRestoreBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, w := range testWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			opt := persistOptions(4)
			s, err := New(ctx, w.name, w.build(opt.Params), opt)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for batch := 0; batch < 3; batch++ {
				deltas := []Delta{randomDelta(rng, s), randomDelta(rng, s)}
				if _, err := s.Apply(ctx, deltas); err != nil {
					t.Fatalf("apply batch %d: %v", batch, err)
				}
			}
			before := s.LastStats()

			// Through the wire format, not just the in-memory State.
			var buf bytes.Buffer
			if err := snapshot.Encode(&buf, s.Export()); err != nil {
				t.Fatal(err)
			}
			st, err := snapshot.Decode(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			// Restore under a different worker count: determinism across
			// machine shapes is part of the contract.
			opt2 := persistOptions(1)
			r, err := Restore(ctx, st, opt2)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.SelfCheck(ctx); err != nil {
				t.Fatalf("restored session fails self-check: %v", err)
			}
			if got := r.LastStats().Version; got != before.Version {
				t.Fatalf("restored version %d, want %d", got, before.Version)
			}
			// Cache counters and last-batch shape are session-lifetime
			// observability, deliberately not persisted; compare the
			// durable facts.
			ri, oi := r.Info(), s.Info()
			if ri.Applied != oi.Applied || ri.Nodes != oi.Nodes || ri.Devices != oi.Devices ||
				ri.Stages != oi.Stages || ri.Arcs != oi.Arcs || ri.Violations != oi.Violations {
				t.Fatalf("restored info diverges:\n got %+v\nwant %+v", ri, oi)
			}
			if (ri.MinSlack == nil) != (oi.MinSlack == nil) ||
				ri.MinSlack != nil && *ri.MinSlack != *oi.MinSlack {
				t.Fatalf("restored min slack diverges: %v vs %v", ri.MinSlack, oi.MinSlack)
			}

			// The restored session must evolve identically: same deltas,
			// same published arrays, same version numbers.
			rng2 := rand.New(rand.NewSource(23))
			deltas := []Delta{randomDelta(rng2, s), randomDelta(rng2, s)}
			so, err := s.Apply(ctx, deltas)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := r.Apply(ctx, deltas)
			if err != nil {
				t.Fatal(err)
			}
			if so.Version != sr.Version || so.ChangedNodes != sr.ChangedNodes {
				t.Fatalf("post-restore apply diverged: %+v vs %+v", so, sr)
			}
			a, b := s.Result(), r.Result()
			for i := range a.RiseAt.Len() {
				if math.Float64bits(a.RiseAt.At(i)) != math.Float64bits(b.RiseAt.At(i)) ||
					math.Float64bits(a.FallAt.At(i)) != math.Float64bits(b.FallAt.At(i)) {
					t.Fatalf("post-restore arrivals diverge at node %d", i)
				}
			}
			if err := r.SelfCheck(ctx); err != nil {
				t.Fatalf("restored session fails self-check after edit: %v", err)
			}
		})
	}
}

func TestRestoreRefusesConfigMismatch(t *testing.T) {
	ctx := context.Background()
	opt := persistOptions(2)
	s, err := New(ctx, "cfg", testWorkloads()[3].build(opt.Params), opt)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Export()
	cases := map[string]func(*Options){
		"process":  func(o *Options) { o.Params.REnh *= 1.01 },
		"schedule": func(o *Options) { o.Sched.Period += 100 },
		"corners":  func(o *Options) { o.Corners = o.Corners[:1] },
		"case":     func(o *Options) { o.Core.SetHigh = []string{"in"} },
		"inputs":   func(o *Options) { o.Core.InputTime = map[string]float64{"in": 3} },
	}
	for name, mut := range cases {
		bad := persistOptions(2)
		mut(&bad)
		if _, err := Restore(ctx, st, bad); tverr.KindOf(err) != tverr.Invalid {
			t.Errorf("%s mismatch: error %v, want Invalid", name, err)
		}
	}
	// Worker count and history depth are runtime shape, not configuration.
	ok := persistOptions(7)
	ok.HistoryDepth = 9
	if _, err := Restore(ctx, st, ok); err != nil {
		t.Errorf("workers/history change refused: %v", err)
	}
}

// TestRestoreRefusesTamper: a snapshot whose checksums pass but whose
// content no longer matches what re-analysis produces must be refused —
// this is the determinism cross-check, the last line behind CRCs.
func TestRestoreRefusesTamper(t *testing.T) {
	ctx := context.Background()
	opt := persistOptions(2)
	s, err := New(ctx, "tamper", testWorkloads()[1].build(opt.Params), opt)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*snapshot.State){
		"base arrival":   func(st *snapshot.State) { st.Base.RiseAt[len(st.Base.RiseAt)-1] += 1 },
		"corner arrival": func(st *snapshot.State) { st.Corners[0].Res.FallAt[2] = 1e9 },
		"stage fp":       func(st *snapshot.State) { st.StageFPs[0] ^= 1 },
		"device size":    func(st *snapshot.State) { st.Trans[0].W *= 2 },
		"node cap":       func(st *snapshot.State) { st.Nodes[len(st.Nodes)-1].Cap += 0.5 },
		"seq zero":       func(st *snapshot.State) { st.Seq = 0 },
	}
	for name, mut := range cases {
		st := s.Export()
		mut(st)
		if _, err := Restore(ctx, st, opt); tverr.KindOf(err) != tverr.Invalid {
			t.Errorf("%s tamper: error %v, want Invalid", name, err)
		}
	}
}

// TestRestoreRefusesAliasCollision: a node record whose name would fold
// onto the supplies cannot reproduce the original index layout.
func TestRestoreRefusesAliasCollision(t *testing.T) {
	ctx := context.Background()
	opt := persistOptions(2)
	s, err := New(ctx, "alias", testWorkloads()[3].build(opt.Params), opt)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Export()
	st.Nodes[2].Name = "VDD" // passes uniqueness, collides in Node()
	if _, err := Restore(ctx, st, opt); tverr.KindOf(err) != tverr.Invalid {
		t.Fatalf("alias collision: error %v, want Invalid", err)
	}
	st = s.Export()
	st.Nodes[0].Name = "notvdd"
	if _, err := Restore(ctx, st, opt); tverr.KindOf(err) != tverr.Invalid {
		t.Fatalf("renamed supply: error %v, want Invalid", err)
	}
}

// TestExportAliasesSurvive: deltas addressed through a case-variant
// supply alias must still resolve after restore.
func TestExportAliasesSurvive(t *testing.T) {
	ctx := context.Background()
	opt := persistOptions(2)
	nl := testWorkloads()[3].build(opt.Params)
	nl.Node("VSS") // create the alias entry pre-session
	s, err := New(ctx, "aliases", nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Export()
	found := false
	for _, a := range st.Aliases {
		if a.Name == "VSS" && a.Node == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("VSS alias not exported: %+v", st.Aliases)
	}
	r, err := Restore(ctx, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(ctx, []Delta{{Op: "add", Gate: "in", A: "VSS", B: "zz9", W: 4, L: 2}}); err != nil {
		t.Fatalf("delta through restored alias: %v", err)
	}
	if err := r.SelfCheck(ctx); err != nil {
		t.Fatal(err)
	}
}
