package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// tvGolden is what tv must print for the tv-1m design: the sha256 of its
// standard output and its exit status, 1 because the slow corner has
// violations. tv -j 1 prints the same bytes.
var tvGolden = golden{
	digest: "89c6459d89b49e2b115c8cd009fc3f4d937c118ae1520e9d3605e4a765299ac6",
	exit:   1,
}

type golden struct {
	digest string
	exit   int
}

// tvSim is the design file's name; tv prints it, so the golden digest
// depends on it.
const tvSim = "tiled-1m.sim"

// tvResult is one tv run.
type tvResult struct {
	wall   time.Duration
	rss    float64
	exit   int
	digest string
	stdout []byte
}

// tvRun runs tv with the workload's flags on the design in the work dir
// and checks its output against the golden.
func (e *env) tvRun(extra ...string) (tvResult, error) {
	args := append([]string{"-corners", "slow,typ,fast", "-paths", "10"}, extra...)
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.bin, "tv"), append(args, tvSim)...)
	cmd.Dir = e.work
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	res := tvResult{wall: time.Since(t0), rss: maxRSS(cmd), stdout: out.Bytes()}
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		res.exit = ee.ExitCode()
	case err != nil:
		return res, err
	}
	sum := sha256.Sum256(out.Bytes())
	res.digest = hex.EncodeToString(sum[:])
	g := e.cfg.tvGolden
	if res.exit != g.exit || (g.digest != "" && res.digest != g.digest) {
		return res, fmt.Errorf("tv: exit %d stdout sha256 %s, want exit %d sha256 %s: %s",
			res.exit, res.digest, g.exit, g.digest, tail(errb.Bytes()))
	}
	return res, nil
}

// generate writes the tiled design with nmosgen, returning its wall time.
func (e *env) generate(transistors int, path string) (time.Duration, error) {
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.bin, "nmosgen"),
		"-circuit", "tiled", "-target", strconv.Itoa(transistors), "-o", path)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("nmosgen: %v: %s", err, tail(errb.Bytes()))
	}
	return time.Since(t0), nil
}

// runTV is tv-1m. Set-up writes the design with nmosgen, the stand-in for
// extraction. An op is one whole tv run, exec to exit. The traced run
// then adds one tv -trace run, whose spans give the per-layer split.
func (e *env) runTV(r *run) {
	path := filepath.Join(e.work, tvSim)
	var setups []float64
	for i := 0; i < e.setups(e.cfg.tvSetups); i++ {
		d, err := e.generate(e.cfg.tvTransistors, path)
		if !r.op(err) {
			return
		}
		setups = append(setups, d.Seconds())
	}
	var walls, rss []float64
	elapsed, ok := e.measure(func() bool {
		res, err := e.tvRun()
		if !r.op(err) {
			return false
		}
		walls = append(walls, ms(res.wall))
		rss = append(rss, res.rss)
		return true
	})
	if !ok {
		return
	}
	if !e.traced {
		e.report(r, setups, walls, elapsed, rss)
		return
	}

	tracePath := e.tracePath()
	res, err := e.tvRun("-trace", tracePath)
	if !r.op(err) {
		return
	}
	spans, err := readTraceFile(tracePath)
	if !r.op(err) {
		return
	}
	setShares(r, selfTimes(spans, math.MinInt64, math.MaxInt64), res.wall.Nanoseconds())
	r.set("trace.op_ms", ms(res.wall))
	r.set("obs.trace_overhead_ratio", ms(res.wall)/quantile(walls, 500))
	counts, err := tvCounts(res.stdout)
	if !r.op(err) {
		return
	}
	for name, v := range counts {
		r.set(name, v)
	}
}

// tvCountLines pull the design counts out of tv's report.
var tvCountLines = []struct {
	re      *regexp.Regexp
	metrics []string
}{
	{regexp.MustCompile(`(\d+) stages, (\d+) timing arcs`), []string{"stage.stages", "delay.arcs"}},
	{regexp.MustCompile(`flow: (\d+) pass devices`), []string{"flow.pass_devices"}},
	{regexp.MustCompile(`checks: (\d+) total`), []string{"core.checks"}},
}

func tvCounts(stdout []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, l := range tvCountLines {
		m := l.re.FindSubmatch(stdout)
		if m == nil {
			return nil, fmt.Errorf("tv report has no line matching %q", l.re)
		}
		for i, name := range l.metrics {
			v, err := strconv.ParseFloat(string(m[i+1]), 64)
			if err != nil {
				return nil, err
			}
			out[name] = v
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
