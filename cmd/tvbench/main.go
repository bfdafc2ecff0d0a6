// Command tvbench is the repository's end-to-end benchmark. It builds tv,
// tvd and nmosgen from the checkout, generates its inputs, drives the
// real binaries over files, signals and loopback HTTP, checks every
// answer, and prints each metric with its unit, quartiles and sample
// count. BENCHMARK.json at the checkout root declares the workloads, the
// metrics, their units and regression bounds; tvbench reads it, so the
// two cannot drift apart.
//
// Usage:
//
//	bash cmd/tvbench/run.sh [flags]    # from the checkout root
//	cd cmd/tvbench && go run . [flags]
//
//	-workload name  run one workload (default: all four)
//	-seed n         seed of the generated op streams (default 1)
//	-seconds n      measured seconds per run (default: run_seconds in
//	                BENCHMARK.json)
//	-trace 0|1      1 runs the traced variant and reports the per-layer
//	                metrics instead of the end-to-end ones
//	-out f.jsonl    append each run as one JSON line
//	-compare a.jsonl b.jsonl
//	                compare two sets of runs, one row per (workload,
//	                metric); exits 1 if any row is worse
//	-root dir       checkout root (default: the directory above holding
//	                BENCHMARK.json)
//
// run.sh keeps the Go build cache, the binaries, the scratch files and
// the traces under .bench_build at the checkout root. tvbench is a module
// of its own, so the repository's go test ./... does not build it; its
// tests, a toy-scale smoke run of every workload among them, run with
// cd cmd/tvbench && go test.
//
// The last line of standard output of a one-workload run is a JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {"value",
// "unit"}}}. tvbench exits 0 when every op of every run was correct, 1
// when one failed, and 2 when it could not run at all.
//
// # Workloads
//
// tvd runs with -corners slow,typ,fast, a fresh -state-dir and -quiet,
// otherwise at production defaults (fsync every batch, history 4, flight
// recorder 64), and serves one design, loaded through POST /load. All
// load comes from one closed-loop client in the tvbench process, over one
// connection: like an ECO script or a debug agent, it waits for each
// reply before sending the next request.
//
//   - tv-1m: tv -corners slow,typ,fast -paths 10 tiled-1m.sim on a
//     1,003,264-transistor tiled chip; an op is one tv run, exec to exit.
//     The batch user's whole wait. It runs every O(design) layer (simfile,
//     stage, flow, delay, core, slack, paths) at full scale and never
//     touches incr, tvd or snapshot, so a daemon-only change must predict
//     no change here.
//   - edit-100k: the ECO loop on a 103,168-transistor design. One client;
//     an op is POST /delta then GET /slack?k=10. Every ten deltas hold 7
//     single resizes to a different W, 2 setcaps ×[0.5,2] and 1 topology
//     edit (a pulldown added in parallel with an existing one, removed
//     again by the next topology edit). The incremental path does almost
//     all the work; the topology edits keep a topology-keyed plan cache
//     honest.
//   - query-100k: read traffic with writes between it, on the same
//     design. The client sends rounds of twenty reads, each 5 /node,
//     4 /slack, 3 /critical, 3 /paths (drained), 3 /why, 1 /diff and
//     1 /corners, and a single resize every 50th request. The resizes are
//     the same at every seed, since what /paths and /diff cost follows the
//     design states they lead through. An op is a round, timed as the sum
//     of its reads' latencies: single reads differ by a factor of fifty
//     from route to route, so their median would fall between routes and
//     jump from run to run. Paths, the lazy required-time caches, JSON and
//     the server's read path do the work; a change that speeds writes by
//     moving work into the reads after them shows here. A second client
//     would let reads overlap the resizes, but on the two shared CPUs its
//     queueing made the latency swing with the host's load.
//   - durable-100k: an op is one restart cycle: a resize, SIGTERM (drain
//     and snapshot) and a restart to /readyz 200, another resize, kill -9
//     and a restart that replays one journal record. After each restart
//     /stats must report the last acknowledged version and GET
//     /slack?k=20 must return the same bytes as before. It measures save,
//     restore and replay, the durability path. It runs at 100k, not 1M:
//     on the reference host one 1M cycle takes about 23s, longer than a
//     run.
//
// The seed picks the op streams: the targets and the order of each
// batch of ten deltas or round of twenty reads, never the mix, so that
// runs at different seeds measure the same work. The design does not
// depend on it, so tv's output is checked against a golden digest and
// exit status, which tv -j 1 reproduces. Every /delta must publish the
// previous version + 1, and a tvd workload ends with GET /verify, which
// re-derives the design from scratch and must match it bit for bit. Any
// failed check, transport error or non-2xx answer counts as a failed op.
//
// Set-up is not measured as an op: for tv-1m it is writing the design
// with nmosgen, for the tvd workloads exec to the 200 of POST /load. An
// untraced run sets up three times (tv-1m) or five times (tvd) and
// reports the median. Warm-up (10 edit batches, 10 rounds of reads) runs
// before measuring.
//
// # End-to-end metrics
//
// Every workload reports the same four, for its own op:
//
//	setup_s      s      median set-up time
//	op_p50_ms    ms     median op latency
//	ops_per_s    1/s    ops completed per second of the measured phase
//	peak_rss_mb  MiB    highest peak RSS of a tv run, or of a tvd that
//	                    served the measured phase
//
// The table also gives each one's quartiles, sample count, and the
// highest percentile with at least ten samples beyond it. Below them, as
// detail, come the latencies only one workload has: route.*_p50_ms by
// request route (edit-100k's delta and its check, query-100k's reads and
// deltas), and durable-100k's
// restart steps (step.snapshot_exit, SIGTERM to exit; step.restore_ready
// and step.crash_ready, exec to /readyz 200). Detail goes to the table
// and to -out, not to the JSON line, and -compare shows it without a
// verdict.
//
// # Reading -trace 1 output
//
// A traced run reports the per-layer metrics; a layer is a module and
// one of its phases. For tv-1m it runs the workload as above, then tv
// -trace once, and folds that trace. For a tvd workload it first runs the
// workload as above, then replays the ops tvd was sent, in process,
// through the layers' public functions (incr, paths, snapshot) with tvd's
// session options, and folds that trace; the replay must end on the
// slack ranking tvd served, and pass SelfCheck. The daemon's own flight
// recorder cannot serve here: its per-request cap of 256 spans truncates
// a 100k, three-corner /delta. The Chrome trace is left under
// .bench_build/traces (open it in ui.perfetto.dev).
//
// trace.op_ms is the traced op time: tv's traced wall time, or the
// replay's time per measured op. Each name_pct is a layer's share of it:
// the layer's self time, its spans' duration minus what their child
// spans cover, summed over the measured ops. The program's phase spans
// (stage-partition, fingerprint+probe, cone-re-relax, …) count toward
// their module's layer; tvbench's spans around the public calls
// (incr.slack, paths.why, snapshot.save, …) are named after theirs;
// per-level and per-worker spans fold into their parent, and so does
// everything under slack's corner sweep, whose corners run concurrently.
// op.unattributed_pct is the rest: for tv, exec, path printing and report
// output. The shares add up to 100, and share × trace.op_ms is a layer's
// time per op. A layer the workload never reaches reads 0: shares, not
// times, so that a time never reads 0 for want of a measurement.
//
// The rest are the design's counts (stages, arcs, pass devices, checks);
// the per-apply means of the cone counts and the reuse ratios;
// snapshot.bytes_per_transistor, the loaded design's snapshot size;
// server.overhead_ratio, tvd's measured phase over the replay's, which is
// what HTTP, JSON and processes add; and
// obs.trace_overhead_ratio, tv's traced over its untraced wall time. A
// tvd workload's detail adds setup.*_ms, POST /load split by layer, and
// incr.apply_p50_ms, whole Apply calls.
//
// Which end-to-end metric a layer should move, and where:
//
//	simfile, stage, flow, delay.build, core.propagate*,    op_p50_ms, ops_per_s  tv-1m
//	  core.checks, core.required, slack, op.unattributed
//	incr.apply_self, incr.delta_*, incr.corner_analyses,   op_p50_ms, ops_per_s  edit-100k,
//	  delay.fingerprint_probe, delay.shard_build,                                durable-100k
//	  delay.merge_sort, core.wave_plan, core.cone_relax,
//	  core.checks, snapshot.journal_append
//	incr.slack, core.required                              op_p50_ms             edit-100k
//	incr.node, incr.slack, incr.critical, incr.corners,    op_p50_ms, ops_per_s  query-100k
//	  paths.*, core.required, server.overhead
//	setup.* (detail)                                       setup_s               the tvd three
//	incr.export, snapshot.save, snapshot.load,             op_p50_ms, ops_per_s  durable-100k
//	  incr.restore
//
// # Host
//
// The reference host (Intel Xeon, 2.1 GHz) has two vCPUs shared with
// other tenants: tv and tvd run one worker per CPU, and the set-up, the
// client and the daemon compete for the two CPUs. The host's speed drifts
// with its neighbours' load, by up to a third over tens of minutes, and
// all four workloads drift together. Over ten runs at ten seeds, one
// workload after another, the quartile distance of a time metric was
// 7-19% of its median, of a set-up time 6-21%, and of peak RSS 1-7%; the
// medians of two such sets agreed within 10%. The bounds in
// BENCHMARK.json (25% for times, 20% for memory) are set for that, and
// tvbench -compare marks a metric unresolved when either side's
// run-to-run spread is wider than its bound.
//
// The baseline directory holds those two untraced sets (untraced-1.jsonl,
// seeds 11-20; untraced-2.jsonl, seeds 21-30) and a traced set
// (traced.jsonl, seeds 11-12), recorded with Go 1.24.0; compare new runs
// against them with -compare.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config sizes the workloads: main runs fullScale, the smoke test a toy.
type config struct {
	tvTransistors     int
	daemonTransistors int
	// tvSetups and tvdSetups are how often an untraced run sets up;
	// setup_s is the median. Writing the 1M design takes seconds, starting
	// tvd and loading the 100k one well under one.
	tvSetups    int
	tvdSetups   int
	editWarmup  int // edit-100k batches before measuring
	queryWarmup int // query-100k rounds of reads before measuring
	tvGolden    golden
}

var fullScale = config{
	tvTransistors:     1_000_000,
	daemonTransistors: 100_000,
	tvSetups:          3,
	tvdSetups:         5,
	editWarmup:        10,
	queryWarmup:       10,
	tvGolden:          tvGolden,
}

// workloads maps each workload BENCHMARK.json declares to its driver.
var workloads = map[string]func(*env, *run){
	"tv-1m":        (*env).runTV,
	"edit-100k":    (*env).runEdit,
	"query-100k":   (*env).runQuery,
	"durable-100k": (*env).runDurable,
}

// env is one run's settings and places.
type env struct {
	ctx      context.Context
	sp       *spec
	cfg      config
	bin      string // built tv, tvd, nmosgen
	work     string // the run's scratch dir, removed when it ends
	traces   string // where traced runs leave their Chrome trace
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// measure runs op back to back for the run's seconds, at least once, and
// returns how long that took and whether every op succeeded. An op is
// never cut short, so the last one may end past the deadline.
func (e *env) measure(op func() bool) (time.Duration, bool) {
	start := time.Now()
	deadline := start.Add(e.seconds)
	for {
		if !op() {
			return time.Since(start), false
		}
		if !time.Now().Before(deadline) {
			return time.Since(start), true
		}
	}
}

// report records the end-to-end metrics.
func (e *env) report(r *run, setup, ops []float64, elapsed time.Duration, rss []float64) {
	r.sample("setup_s", setup, 500)
	r.sample("op_p50_ms", ops, 500)
	r.set("ops_per_s", float64(len(ops))/elapsed.Seconds())
	r.sample("peak_rss_mb", rss, 1000)
}

// setups is how often the run sets up: n untraced, once traced.
func (e *env) setups(n int) int {
	if e.traced {
		return 1
	}
	return n
}

func (e *env) tracePath() string {
	return filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
}

// setShares records each layer's self time as a share of total, the
// traced op time, and the part no layer covers as op.unattributed_pct.
func setShares(r *run, self map[string]int64, total int64) {
	var covered int64
	for _, layer := range layers() {
		r.set(layer+"_pct", 100*float64(self[layer])/float64(total))
		covered += self[layer]
	}
	r.set("op.unattributed_pct", 100*float64(total-covered)/float64(total))
}

// run runs the workload once.
func (e *env) run() (*run, error) {
	r := newRun(e.workload, e.seed, e.seconds.Seconds(), e.traced)
	if e.traced {
		// A layer the workload never reaches reads 0.
		for _, m := range e.sp.PerLayer {
			r.set(m.Name, 0)
		}
		if err := os.MkdirAll(e.traces, 0o755); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	workloads[e.workload](e, r)
	return r, r.finish(e.sp)
}

// buildTools builds the binaries the workloads drive from the checkout.
func buildTools(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/tv", "./cmd/tvd", "./cmd/nmosgen")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building tv, tvd, nmosgen in %s: %w", root, err)
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all)")
	seed := flag.Int64("seed", 1, "seed of the generated op streams")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", "", "append each run as a JSON line to this file")
	cmp := flag.Bool("compare", false, "compare two -out files: tvbench -compare a.jsonl b.jsonl")
	rootFlag := flag.String("root", "", "checkout root (default: the directory above holding BENCHMARK.json)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tvbench:", err)
		os.Exit(2)
	}
	root := *rootFlag
	if root == "" {
		var err error
		if root, err = findRoot("."); err != nil {
			fail(err)
		}
	}
	sp, err := loadSpec(root)
	if err != nil {
		fail(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fail(errors.New("-compare takes two files"))
		}
		a, err := readRuns(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		b, err := readRuns(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !compare(os.Stdout, sp, a, b) {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var names []string
	for _, w := range sp.Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	secs := *seconds
	if secs <= 0 {
		secs = sp.RunSeconds
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	if err := buildTools(ctx, root, bin); err != nil {
		fail(err)
	}
	ok := true
	var last *run
	for _, name := range names {
		if workloads[name] == nil {
			fail(fmt.Errorf("BENCHMARK.json declares workload %q, which tvbench does not know", name))
		}
		e := &env{
			ctx: ctx, sp: sp, cfg: fullScale, bin: bin,
			work:     filepath.Join(build, fmt.Sprintf("run-%d-%s", os.Getpid(), name)),
			traces:   filepath.Join(build, "traces"),
			workload: name, seed: *seed, seconds: time.Duration(secs) * time.Second,
			traced: *trace == 1,
		}
		r, err := e.run()
		if err != nil {
			fail(err)
		}
		r.printTable(os.Stdout, sp)
		if *out != "" {
			if err := appendRun(*out, r); err != nil {
				fail(err)
			}
		}
		ok = ok && r.Correct
		last = r
	}
	if len(names) == 1 {
		line, err := last.resultLine()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}
