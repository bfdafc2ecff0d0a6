package incr

import (
	"context"
	"errors"
	"testing"
	"time"

	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

// structuralBatch exercises every delta op in one batch: device resize,
// node cap, annotation, a new device on a brand-new node, and a removal.
func structuralBatch(s *Session) []Delta {
	t0 := s.nl.Trans[0]
	tLast := s.nl.Trans[len(s.nl.Trans)-1]
	var n string
	for _, nd := range s.nl.Nodes {
		if !nd.IsSupply() && !nd.IsClock() {
			n = nd.Name
			break
		}
	}
	return []Delta{
		{Op: "resize", ID: t0.ID, W: t0.W * 2},
		{Op: "setcap", Node: n, Cap: 0.33},
		{Op: "annotate", Node: n, Attrs: []string{"output"}},
		{Op: "add", Kind: "e", Gate: n, A: "rollback_new_node", B: "gnd", W: 4, L: 2},
		{Op: "remove", ID: tLast.ID},
	}
}

// netlistSnapshot captures the observable pre-batch state a rollback must
// restore exactly.
type netlistSnapshot struct {
	devs  int
	nodes int
	ids   []int64
	w0    float64
}

func captureNetlist(s *Session) netlistSnapshot {
	snap := netlistSnapshot{devs: len(s.nl.Trans), nodes: len(s.nl.Nodes), w0: s.nl.Trans[0].W}
	for _, tr := range s.nl.Trans {
		snap.ids = append(snap.ids, tr.ID)
	}
	return snap
}

func checkRestored(t *testing.T, s *Session, snap netlistSnapshot) {
	t.Helper()
	if len(s.nl.Trans) != snap.devs {
		t.Fatalf("device count %d, want %d", len(s.nl.Trans), snap.devs)
	}
	if len(s.nl.Nodes) != snap.nodes {
		t.Fatalf("node count %d, want %d (created nodes not truncated?)", len(s.nl.Nodes), snap.nodes)
	}
	for i, tr := range s.nl.Trans {
		if tr.ID != snap.ids[i] {
			t.Fatalf("device order changed at %d: id %d, want %d", i, tr.ID, snap.ids[i])
		}
	}
	if s.nl.Trans[0].W != snap.w0 {
		t.Fatalf("resize not rolled back: W=%v, want %v", s.nl.Trans[0].W, snap.w0)
	}
	if s.nl.Lookup("rollback_new_node") != nil {
		t.Fatal("node created by aborted add still resolvable")
	}
}

// TestApplyAbortRollsBack: an injected failure between mutation and
// publish rolls the netlist back; the previously published result still
// passes the bit-identical SelfCheck, and the session keeps working.
func TestApplyAbortRollsBack(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 24))
	s := newTestSession(t, "chain", b.Finish(), 1)
	resBefore := s.Result()
	snap := captureNetlist(s)
	batch := structuralBatch(s)

	faultpoint.Arm("incr.apply.analyze", faultpoint.Action{Err: faultpoint.ErrInjected})
	if _, err := s.Apply(ctx, batch); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Apply = %v, want injected fault", err)
	}
	faultpoint.Reset()

	if s.Result() != resBefore {
		t.Fatal("aborted Apply republished a result")
	}
	checkRestored(t, s, snap)
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck after rollback: %v", err)
	}

	// The same batch must succeed once the fault clears, and the session
	// must stay bit-identical to a from-scratch analysis.
	if _, err := s.Apply(ctx, batch); err != nil {
		t.Fatalf("Apply after rollback: %v", err)
	}
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck after recovered Apply: %v", err)
	}
}

// TestApplyCancellationRollsBack: the same invariant when the abort comes
// from the request context during the wavefront walk rather than an
// injected error.
func TestApplyCancellationRollsBack(t *testing.T) {
	defer faultpoint.Reset()
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 48))
	s := newTestSession(t, "chain", b.Finish(), 1)
	snap := captureNetlist(s)

	faultpoint.Arm("core.propagate.level", faultpoint.Action{Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	_, err := s.Apply(ctx, structuralBatch(s))
	cancel()
	faultpoint.Reset()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Apply = %v, want DeadlineExceeded", err)
	}
	checkRestored(t, s, snap)
	if err := s.SelfCheck(context.Background()); err != nil {
		t.Fatalf("SelfCheck after canceled Apply: %v", err)
	}
}

// TestApplyPanicRollsBack: a panic between mutation and publish unwinds
// the batch before propagating (the daemon's recovery middleware turns it
// into a 500; the session must stay coherent afterwards).
func TestApplyPanicRollsBack(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 24))
	s := newTestSession(t, "chain", b.Finish(), 1)
	snap := captureNetlist(s)

	faultpoint.Arm("incr.apply.analyze", faultpoint.Action{Panic: true})
	func() {
		defer func() {
			if rec := recover(); rec == nil {
				t.Fatal("Apply did not propagate the panic")
			}
		}()
		s.Apply(ctx, structuralBatch(s))
	}()
	faultpoint.Reset()

	checkRestored(t, s, snap)
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck after panic rollback: %v", err)
	}
}

// TestInvalidDeltaIsTyped: resolve failures carry tverr.Invalid so the
// HTTP layer maps them to 400, not 500.
func TestInvalidDeltaIsTyped(t *testing.T) {
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 4))
	s := newTestSession(t, "chain", b.Finish(), 1)
	_, err := s.Apply(context.Background(), []Delta{{Op: "resize", ID: 99999, W: 4}})
	if err == nil {
		t.Fatal("Apply accepted a bogus device ID")
	}
	if k := tverr.KindOf(err); k != tverr.Invalid {
		t.Fatalf("KindOf = %v, want Invalid", k)
	}
}

// TestAbortedDoubleRemoveRollsBack: a batch naming one device in two
// removes must roll back to the pre-batch device list, holding the device
// once and at its place, so IDs still increase along the list.
func TestAbortedDoubleRemoveRollsBack(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), 8))
	s := newTestSession(t, "chain", b.Finish(), 1)
	snap := captureNetlist(s)
	id := s.nl.Trans[3].ID
	batch := []Delta{{Op: "remove", ID: id}, {Op: "remove", ID: id}}

	faultpoint.Arm("incr.apply.analyze", faultpoint.Action{Err: faultpoint.ErrInjected})
	if _, err := s.Apply(ctx, batch); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Apply = %v, want injected fault", err)
	}
	faultpoint.Reset()
	checkRestored(t, s, snap)
	if err := s.SelfCheck(ctx); err != nil {
		t.Fatalf("SelfCheck after rollback: %v", err)
	}
}
