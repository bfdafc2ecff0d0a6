package incr

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"nmostv/internal/core"
	"nmostv/internal/gen"
	"nmostv/internal/obs"
	"nmostv/internal/tech"
)

// countSpans counts the recorded spans with the given name.
func countSpans(t *testing.T, tr *obs.Tracer, name string) int {
	t.Helper()
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
		if ev.Name == name {
			n++
		}
	}
	return n
}

// TestRequiredComputedOncePerResult: the backward pass is cached per
// published result, so the base analysis, the typical corner that
// aliases it and the latest version share one computation. A merged
// slack query runs one backward pass per corner; a diff of the last
// batch after it runs only the previous version's.
func TestRequiredComputedOncePerResult(t *testing.T) {
	ctx := context.Background()
	tr := obs.NewTracer()
	nl := gen.MIPSDatapath(tech.Default(), gen.DatapathConfig{Bits: 4, Words: 4, ShiftAmounts: 2})
	s, err := New(ctx, "mc", nl, Options{
		Params:  tech.Default(),
		Sched:   testSchedule(),
		Core:    core.Options{Workers: 1},
		Corners: tech.Corners(),
		Obs:     &obs.Obs{Tr: tr},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t0 := s.nl.Trans[0]
	if _, err := s.Apply(ctx, []Delta{{Op: "resize", ID: t0.ID, W: t0.W * 2}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	before := countSpans(t, tr, "required")
	if _, err := s.Slack(ctx, 10, ""); err != nil {
		t.Fatalf("Slack: %v", err)
	}
	if got := countSpans(t, tr, "required") - before; got != len(tech.Corners()) {
		t.Fatalf("merged Slack ran %d backward passes, want %d", got, len(tech.Corners()))
	}

	before = countSpans(t, tr, "required")
	if _, err := s.Diff(ctx, 0, 0, 0, 10, 100); err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if got := countSpans(t, tr, "required") - before; got != 1 {
		t.Fatalf("Diff after merged Slack ran %d backward passes, want 1 (the previous version's)", got)
	}
}
