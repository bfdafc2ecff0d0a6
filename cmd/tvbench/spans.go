package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// span is one complete Chrome trace event, in integer nanoseconds.
type span struct {
	name       string
	tid        int64
	start, end int64
}

// readTrace parses a Chrome trace-event JSON array, as obs.Tracer writes
// it, keeping the complete ("X") events.
func readTrace(r io.Reader) ([]span, error) {
	dec := json.NewDecoder(r)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return nil, fmt.Errorf("trace: not a JSON array of events (%v)", err)
	}
	var out []span
	for dec.More() {
		var ev struct {
			Name    string
			Ph      string
			Ts, Dur float64
			Tid     int64
		}
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if ev.Ph != "X" {
			continue
		}
		// The tracer writes ns/1e3; rounding recovers the exact ns.
		start := int64(math.Round(ev.Ts * 1e3))
		out = append(out, span{name: ev.Name, tid: ev.Tid, start: start, end: start + int64(math.Round(ev.Dur*1e3))})
	}
	return out, nil
}

func readTraceFile(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readTrace(f)
}

// layerOf names the layer a span's self time counts toward: the module,
// then the phase. The program's own phase spans keep their names;
// tvbench's spans around the layers' public calls are named after their
// layer. A span not listed here — a per-level span, a whole-analysis
// wrapper, incr.load — counts toward its nearest listed ancestor, or
// toward no layer when it has none.
var layerOf = map[string]string{
	"parse":               "simfile.parse",
	"simfile.parse":       "simfile.parse",
	"finalize":            "netlist.finalize",
	"stage-partition":     "stage.partition",
	"flow":                "flow.infer",
	"delay-build":         "delay.build",
	"delay-build-cached":  "delay.build",
	"fingerprint+probe":   "delay.fingerprint_probe",
	"shard-build":         "delay.shard_build",
	"merge+sort":          "delay.merge_sort",
	"analyze":             "core.analyze",
	"analyze-incremental": "core.analyze",
	"wave-plan":           "core.wave_plan",
	"sources+storage":     "core.sources_storage",
	"propagate":           "core.propagate",
	"propagate-early":     "core.propagate_early",
	"cone-re-relax":       "core.cone_relax",
	"cone-re-relax-early": "core.cone_relax",
	"checks":              "core.checks",
	"required":            "core.required",
	"required-seeds":      "core.required",
	"required-propagate":  "core.required",
	"corner-sweep":        "slack.sweep",
	"corner-analyses":     "incr.corner_analyses",
	"incr.apply":          "incr.apply_self",
	"apply-batch":         "incr.apply_self",
	"delta-resolve":       "incr.delta_resolve",
	"delta-apply":         "incr.delta_apply",

	"incr.node":               "incr.node",
	"incr.slack":              "incr.slack",
	"incr.critical":           "incr.critical",
	"incr.corners":            "incr.corners",
	"paths.stream":            "paths.stream",
	"paths.why":               "paths.why",
	"paths.diff":              "paths.diff",
	"snapshot.journal_append": "snapshot.journal_append",
	"incr.export":             "incr.export",
	"snapshot.save":           "snapshot.save",
	"snapshot.load":           "snapshot.load",
	"incr.restore":            "incr.restore",
}

// opaque spans run their children concurrently on one track — slack's
// corner sweep analyzes every corner in its own goroutine — so the
// nesting below them cannot be told apart, and their whole duration
// counts as their own.
var opaque = map[string]bool{"corner-sweep": true}

// layers lists the distinct layers of layerOf, sorted.
func layers() []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range layerOf {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// selfTimes folds track-0 spans into self time per layer: a span's
// duration minus the part its track-0 children cover, counted toward
// layerOf the span or of its nearest listed ancestor. Spans on other
// tracks (per-worker level spans) run inside a track-0 parent whose self
// time already covers them, and so do the descendants of an opaque span.
// Only spans lying inside [from, to] count.
func selfTimes(spans []span, from, to int64) map[string]int64 {
	var main []span
	for _, s := range spans {
		if s.tid == 0 {
			main = append(main, s)
		}
	}
	sort.SliceStable(main, func(i, j int) bool {
		if main[i].start != main[j].start {
			return main[i].start < main[j].start
		}
		return main[i].end > main[j].end
	})
	type frame struct {
		span
		owner string
		child int64
	}
	self := make(map[string]int64)
	var stack []*frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.owner != "" && f.start >= from && f.end <= to {
			self[f.owner] += f.end - f.start - f.child
		}
	}
	for _, s := range main {
		for len(stack) > 0 && (stack[len(stack)-1].end <= s.start || stack[len(stack)-1].end < s.end) {
			pop()
		}
		if len(stack) > 0 && opaque[stack[len(stack)-1].name] {
			continue
		}
		f := &frame{span: s, owner: layerOf[s.name]}
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			parent.child += s.end - s.start
			if f.owner == "" {
				f.owner = parent.owner
			}
		}
		stack = append(stack, f)
	}
	for len(stack) > 0 {
		pop()
	}
	return self
}
