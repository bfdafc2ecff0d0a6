package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// run is the record of one benchmark run: one workload at one seed,
// untraced (end-to-end metrics) or traced (per-layer metrics). -out
// appends it as one JSON line; -compare reads those lines back.
type run struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Detail holds what only this workload measures: client latencies by
	// route or restart step, and a traced set-up's split by layer. It is
	// printed and compared, but BENCHMARK.json does not declare it.
	Detail map[string]value `json:"detail,omitempty"`
	Host   host             `json:"host"`
	Errors []string         `json:"errors,omitempty"`
}

// value is one metric of a run. Samples-backed metrics carry their
// quartiles, sample count, and tail: the highest percentile (TailQ, per
// mille) with at least ten samples beyond it, when there is one. Single
// measurements have N = 1.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
	Tail  float64 `json:"tail,omitempty"`
	TailQ int     `json:"tail_q,omitempty"`
}

type host struct {
	NumCPU    int    `json:"nproc"`
	CPU       string `json:"cpu,omitempty"`
	GoVersion string `json:"go"`
}

func newRun(workload string, seed int64, seconds float64, traced bool) *run {
	return &run{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: make(map[string]value),
		Detail:  make(map[string]value),
		Host:    host{NumCPU: runtime.NumCPU(), CPU: cpuModel(), GoVersion: runtime.Version()},
	}
}

// cpuModel is the first model name in /proc/cpuinfo, or "" off Linux.
func cpuModel() string {
	blob, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// op counts one attempted operation; a non-nil err marks it failed.
// It reports whether the operation succeeded.
func (r *run) op(err error) bool {
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
	return false
}

// set records a single measurement.
func (r *run) set(name string, v float64) {
	r.Metrics[name] = value{Value: v, P25: v, P75: v, N: 1}
}

// sample records a metric as the q-per-mille quantile of xs, with the
// sample's quartiles. An empty sample records nothing, so finish reports
// the metric missing.
func (r *run) sample(name string, xs []float64, q int) {
	if len(xs) > 0 {
		r.Metrics[name] = sampled(xs, q)
	}
}

// detail records a workload's own measurement like sample does, in Detail.
func (r *run) detail(name, unit string, xs []float64, q int) {
	if len(xs) > 0 {
		v := sampled(xs, q)
		v.Unit = unit
		r.Detail[name] = v
	}
}

func sampled(xs []float64, q int) value {
	s := summarize(xs)
	v := value{Value: quantile(xs, q), P25: s.P25, P75: s.P75, N: s.N}
	if tq, ok := tailQuantile(len(xs)); ok {
		v.Tail, v.TailQ = quantile(xs, tq), tq
	}
	return v
}

// finish attaches units to the metrics and settles Correct. The run must
// have produced exactly the metrics BENCHMARK.json declares for its mode
// (a failed run may stop short of some); anything else means the harness
// and the file disagree.
func (r *run) finish(sp *spec) error {
	declared := make(map[string]bool)
	var missing []string
	for _, m := range sp.metrics(r.Traced) {
		declared[m.Name] = true
		v, ok := r.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		v.Unit = m.Unit
		r.Metrics[m.Name] = v
	}
	var extra []string
	for name := range r.Metrics {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	switch {
	case len(extra) > 0:
		sort.Strings(extra)
		return fmt.Errorf("%s: BENCHMARK.json does not declare %s", r.Workload, strings.Join(extra, ", "))
	case len(missing) > 0 && r.Correct:
		return fmt.Errorf("%s: run produced no value for %s", r.Workload, strings.Join(missing, ", "))
	}
	return nil
}

// printTable writes the run's metrics as a table in BENCHMARK.json order:
// value, quartiles, sample count and tail per metric.
func (r *run) printTable(w io.Writer, sp *spec) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	verdict := "correct"
	if !r.Correct {
		verdict = fmt.Sprintf("INCORRECT: %d of %d ops failed", r.Failed, r.Attempted)
	}
	fmt.Fprintf(w, "\n%s  seed %d  %gs  %s  %d ops  %s\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Attempted, verdict)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tvalue\tp25\tp75\tn\ttail")
	row := func(name string, v value) {
		tail := ""
		if v.TailQ > 0 {
			tail = fmt.Sprintf("%s %.6g", pname(v.TailQ), v.Tail)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", name, v.Unit, v.Value, v.P25, v.P75, v.N, tail)
	}
	for _, m := range sp.metrics(r.Traced) {
		if v, ok := r.Metrics[m.Name]; ok {
			row(m.Name, v)
		}
	}
	if len(r.Detail) > 0 {
		fmt.Fprintln(tw, "  detail, this workload only:\t\t\t\t\t\t")
		for _, name := range slices.Sorted(maps.Keys(r.Detail)) {
			row(name, r.Detail[name])
		}
	}
	tw.Flush()
}

// resultLine is the one-line JSON summary printed last on standard
// output: correctness, op counts, and each metric's value and unit.
func (r *run) resultLine() ([]byte, error) {
	type lineValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]lineValue, len(r.Metrics))}
	for name, v := range r.Metrics {
		line.Metrics[name] = lineValue{v.Value, v.Unit}
	}
	return json.Marshal(line)
}

// appendRun appends the run to a JSON-lines file.
func appendRun(path string, r *run) error {
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRuns reads a JSON-lines file of runs.
func readRuns(path string) ([]*run, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []*run
	for i, line := range strings.Split(string(blob), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		r := new(run)
		if err := json.Unmarshal([]byte(line), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}
