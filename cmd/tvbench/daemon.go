package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"nmostv/internal/incr"
)

// tvdPass is what one end-to-end pass over tvd measured. script holds
// every op the pass sent, in order, so the traced replay can send the
// same ones through the layers in process; script[:warm] is the warm-up.
type tvdPass struct {
	d       *design
	setup   []float64 // s, exec → POST /load 200
	ops     []float64 // ms, the workload's op latencies
	elapsed time.Duration
	rss     []float64 // MiB, peak of each daemon that served the pass
	// routes holds client-side latencies by route and steps the
	// durable-100k restart steps, in ms, over the measured phase.
	routes map[string][]float64
	steps  map[string][]float64
	script []op
	warm   int
	// slack is the final GET /slack?k=20, re-encoded.
	slack []byte
}

// tvdSession is one workload's connection to a live tvd: the daemon, its
// state dir, and the last version it acknowledged.
type tvdSession struct {
	e       *env
	c       *client
	tvd     *daemon
	state   string
	version int64
	p       *tvdPass
}

// runTvd runs one tvd workload: generate the design, set up, drive. The
// untraced run reports the end-to-end metrics; the traced one replays
// the same ops in process for the per-layer split.
func (e *env) runTvd(r *run, drive func(*tvdSession, *run)) {
	path := filepath.Join(e.work, "tiled-100k.sim")
	_, err := e.generate(e.cfg.daemonTransistors, path)
	if !r.op(err) {
		return
	}
	sim, err := os.ReadFile(path)
	if !r.op(err) {
		return
	}
	d, err := parseDesign("tiled-100k", sim)
	if !r.op(err) {
		return
	}
	s, ok := e.startSession(r, d)
	if !ok {
		return
	}
	defer s.close()
	drive(s, r)
	switch {
	case r.Failed > 0:
	case e.traced:
		e.replay(r, s.p)
	default:
		e.report(r, s.p.setup, s.p.ops, s.p.elapsed, s.p.rss)
		s.p.recordDetail(r)
	}
}

// recordDetail keeps the pass's client-side latencies by route and, for
// durable-100k, by restart step. They are the workload's own latencies,
// which BENCHMARK.json cannot declare, since not every workload has them.
func (p *tvdPass) recordDetail(r *run) {
	for route, xs := range p.routes {
		r.detail("route."+route+"_p50_ms", "ms", xs, 500)
	}
	for step, xs := range p.steps {
		r.detail("step."+step+"_p50_ms", "ms", xs, 500)
	}
}

func (e *env) runEdit(r *run)    { e.runTvd(r, (*tvdSession).runEdit) }
func (e *env) runQuery(r *run)   { e.runTvd(r, (*tvdSession).runQuery) }
func (e *env) runDurable(r *run) { e.runTvd(r, (*tvdSession).runDurable) }

// startSession runs the set-ups: each execs a fresh tvd on a fresh state
// dir and loads the design, timed from exec to the 200 of POST /load.
// Every daemon but the last is killed; the last one keeps serving.
func (e *env) startSession(r *run, d *design) (*tvdSession, bool) {
	s := &tvdSession{e: e, c: newClient(e.ctx), version: 1, p: &tvdPass{
		d: d, routes: make(map[string][]float64), steps: make(map[string][]float64)}}
	for i := 0; i < e.setups(e.cfg.tvdSetups); i++ {
		if s.tvd != nil {
			s.tvd.kill()
			s.c.forget()
		}
		s.state = filepath.Join(e.work, "state-"+strconv.Itoa(i))
		t0 := time.Now()
		tvd, err := startDaemon(filepath.Join(e.bin, "tvd"), s.state)
		if !r.op(err) {
			return nil, false
		}
		s.tvd = tvd
		if !r.op(tvd.waitStatus(s.c, "/healthz", time.Minute)) {
			tvd.kill()
			return nil, false
		}
		st, body, err := s.c.do(http.MethodPost, tvd.base+"/load?name="+d.name, d.sim)
		if !r.op(statusErr("POST /load", st, body, err)) {
			tvd.kill()
			return nil, false
		}
		s.p.setup = append(s.p.setup, time.Since(t0).Seconds())
	}
	return s, true
}

// close stops the serving daemon, if any, without waiting for a drain.
func (s *tvdSession) close() {
	if s.tvd != nil {
		s.tvd.kill()
	}
}

func statusErr(what string, status int, body []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", what, status, tail(body))
	}
	return nil
}

// send issues one op and checks the answer: a delta must publish exactly
// the next version (and give an added device the predicted ID); a read
// must answer 200 with a well-formed body of the requested size.
func (s *tvdSession) send(o op) (time.Duration, error) {
	t0 := time.Now()
	var status int
	var body []byte
	var err error
	if o.route == "delta" {
		payload, merr := json.Marshal(o.deltas)
		if merr != nil {
			return 0, merr
		}
		status, body, err = s.c.do(http.MethodPost, s.tvd.base+"/delta", payload)
	} else {
		status, body, err = s.c.get(s.tvd.base + o.path())
	}
	dur := time.Since(t0)
	if err := statusErr(o.route, status, body, err); err != nil {
		return dur, err
	}
	return dur, s.check(o, body)
}

func (s *tvdSession) check(o op, body []byte) error {
	switch o.route {
	case "delta":
		var st incr.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		if st.Version != s.version+1 {
			return fmt.Errorf("delta published version %d after %d", st.Version, s.version)
		}
		s.version = st.Version
		if o.added != 0 && (len(st.AddedIDs) != 1 || st.AddedIDs[0] != o.added) {
			return fmt.Errorf("add gave device ids %v, want [%d]", st.AddedIDs, o.added)
		}
	case "slack":
		var rows []incr.SlackInfo
		if err := json.Unmarshal(body, &rows); err != nil || len(rows) != o.k {
			return fmt.Errorf("%s: %d rows, want %d (%v)", o.path(), len(rows), o.k, err)
		}
	case "paths":
		if n := bytes.Count(body, []byte("\n")); n != o.k {
			return fmt.Errorf("%s: %d paths, want %d", o.path(), n, o.k)
		}
	default:
		if !json.Valid(body) {
			return fmt.Errorf("%s: body is not JSON", o.path())
		}
	}
	return nil
}

// slackBody fetches GET /slack?k=20, the body the restart checks compare.
func (s *tvdSession) slackBody() ([]byte, error) {
	st, body, err := s.c.get(s.tvd.base + "/slack?k=20")
	return body, statusErr("slack", st, body, err)
}

// finish records the final slack ranking, proves the session still
// equals a from-scratch analysis with GET /verify, and stops the daemon
// with SIGTERM, which must exit 0.
func (s *tvdSession) finish(r *run) {
	body, err := s.slackBody()
	if r.op(err) {
		var rows []incr.SlackInfo
		err = json.Unmarshal(body, &rows)
		if r.op(err) {
			s.p.slack, _ = json.Marshal(rows)
		}
	}
	st, body, err := s.c.get(s.tvd.base + "/verify")
	if err = statusErr("verify", st, body, err); err == nil {
		var v struct{ OK bool }
		if json.Unmarshal(body, &v); !v.OK {
			err = fmt.Errorf("verify: %s", tail(body))
		}
	}
	r.op(err)
	s.c.forget()
	r.op(s.tvd.term())
	s.p.rss = append(s.p.rss, s.tvd.maxRSS())
	s.tvd = nil
}

// runEdit is edit-100k: one closed-loop client sends ECO batches, each a
// POST /delta followed by the GET /slack?k=10 a designer checks it with.
// An op is the pair.
func (s *tvdSession) runEdit(r *run) {
	st := newStream(s.p.d, s.e.seed)
	batch := func(measured bool) bool {
		o, check := st.eco(), op{route: "slack", k: 10}
		s.p.script = append(s.p.script, o, check)
		dDelta, err := s.send(o)
		if !r.op(err) {
			return false
		}
		dCheck, err := s.send(check)
		if !r.op(err) {
			return false
		}
		if measured {
			s.p.ops = append(s.p.ops, ms(dDelta+dCheck))
			s.p.routes["delta"] = append(s.p.routes["delta"], ms(dDelta))
			s.p.routes["slack"] = append(s.p.routes["slack"], ms(dCheck))
		}
		return true
	}
	for i := 0; i < s.e.cfg.editWarmup; i++ {
		if !batch(false) {
			return
		}
	}
	if s.measure(func() bool { return batch(true) }) {
		s.finish(r)
	}
}

// measure marks the end of the warm-up and runs the measured phase.
func (s *tvdSession) measure(op func() bool) bool {
	s.p.warm = len(s.p.script)
	var ok bool
	s.p.elapsed, ok = s.e.measure(op)
	return ok
}

// runQuery is query-100k: one closed-loop client sends rounds of
// roundReads reads and a single resize every 50th request. An op is a
// round, timed as the sum of its reads' latencies.
//
// The seed picks the reads; the resizes come from one stream that is the
// same at every seed. What /paths and /diff cost follows the design
// states the resizes lead through: with seed-picked resizes, seed 11's
// /paths median was 14ms and seed 12's 9ms, run after run.
func (s *tvdSession) runQuery(r *run) {
	st, writes := newStream(s.p.d, s.e.seed), newStream(s.p.d, 0)
	// The first request is a resize, since /diff compares against the
	// previous version.
	sent := 0
	round := func(measured bool) bool {
		var sum time.Duration
		for reads := 0; reads < roundReads; sent++ {
			var o op
			if sent%50 == 0 {
				o = writes.resize()
			} else {
				o = st.read()
				reads++
			}
			s.p.script = append(s.p.script, o)
			d, err := s.send(o)
			if !r.op(err) {
				return false
			}
			if o.route != "delta" {
				sum += d
			}
			if measured {
				s.p.routes[o.route] = append(s.p.routes[o.route], ms(d))
			}
		}
		if measured {
			s.p.ops = append(s.p.ops, ms(sum))
		}
		return true
	}
	for i := 0; i < s.e.cfg.queryWarmup; i++ {
		if !round(false) {
			return
		}
	}
	if s.measure(func() bool { return round(true) }) {
		s.finish(r)
	}
}

// runDurable is durable-100k. An op is one restart cycle: a resize, then
// SIGTERM (drain and snapshot) and a restart to /readyz 200, another
// resize, then kill -9 and a restart that replays the one journaled
// batch. After each restart /stats must report the last acknowledged
// version and GET /slack?k=20 must return the bytes it returned before.
func (s *tvdSession) runDurable(r *run) {
	st := newStream(s.p.d, s.e.seed)
	restart := func(graceful bool) bool {
		o := op{route: "crash"}
		if graceful {
			o.route = "restart"
		}
		s.p.script = append(s.p.script, op{route: "slack", k: 20}, o)
		before, err := s.slackBody()
		if !r.op(err) {
			return false
		}
		s.c.forget()
		t0 := time.Now()
		if graceful {
			if !r.op(s.tvd.term()) {
				return false
			}
			s.p.steps["snapshot_exit"] = append(s.p.steps["snapshot_exit"], ms(time.Since(t0)))
		} else {
			s.tvd.kill()
		}
		s.p.rss = append(s.p.rss, s.tvd.maxRSS())
		t0 = time.Now()
		tvd, err := startDaemon(filepath.Join(s.e.bin, "tvd"), s.state)
		if !r.op(err) {
			return false
		}
		s.tvd = tvd
		if !r.op(tvd.waitStatus(s.c, "/readyz", time.Minute)) {
			return false
		}
		step := "crash_ready"
		if graceful {
			step = "restore_ready"
		}
		s.p.steps[step] = append(s.p.steps[step], ms(time.Since(t0)))
		s.p.script = append(s.p.script, op{route: "slack", k: 20})
		return r.op(s.checkRestored(before))
	}
	cycle := func() bool {
		t0 := time.Now()
		for _, graceful := range []bool{true, false} {
			o := st.resize()
			s.p.script = append(s.p.script, o)
			d, err := s.send(o)
			if !r.op(err) {
				return false
			}
			s.p.routes["delta"] = append(s.p.routes["delta"], ms(d))
			if !restart(graceful) {
				return false
			}
		}
		s.p.ops = append(s.p.ops, ms(time.Since(t0)))
		return true
	}
	if s.measure(cycle) {
		s.finish(r)
	}
}

// checkRestored compares a restarted daemon with what it acknowledged.
func (s *tvdSession) checkRestored(before []byte) error {
	st, body, err := s.c.get(s.tvd.base + "/stats")
	if err := statusErr("stats", st, body, err); err != nil {
		return err
	}
	var stats struct {
		PerDesign map[string]incr.Info `json:"per_design"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if v := stats.PerDesign[s.p.d.name].Last.Version; v != s.version {
		return fmt.Errorf("restarted tvd serves version %d, last acknowledged %d", v, s.version)
	}
	after, err := s.slackBody()
	if err != nil {
		return err
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("GET /slack?k=20 changed across the restart")
	}
	return nil
}
