// Package server exposes incremental timing sessions over HTTP/JSON: load
// a design, stream it deltas, query node timing, critical paths, and the
// equivalence verifier. It is the transport layer of the tvd daemon; all
// analysis semantics live in internal/incr.
//
// Endpoints (designs are named; `?design=` selects one, optional while a
// single design is loaded):
//
//	POST /load?name=N      body = .sim text; loads/replaces design N
//	POST /delta?design=N   body = JSON array of deltas; incremental re-analysis
//	POST /full?design=N    from-scratch re-analysis (escape hatch)
//	GET  /node/{name}      per-node settle/early times, slack, checks
//	GET  /critical?k=N     k most constrained endpoints with paths
//	                       (&corner=name resolves them at one PVT corner)
//	GET  /slack?k=N        slack-ordered ranking, worst first; ?corner=
//	                       selects one corner, default is the merged
//	                       worst-slack-per-node view across all corners
//	GET  /paths?k=N        the k worst paths as NDJSON, one path per
//	                       line, streamed lazily from the version's
//	                       shared ranking (k=10000 keeps 10000 paths as
//	                       arc lists, never as built paths); ?corner=
//	                       selects a PVT corner's analysis
//	GET  /why?node=X       "why is X late": the dominant-arrival chain
//	                       from a fixed source with per-hop delay and
//	                       clock-wait contributions; ?pol=rise|fall,
//	                       ?corner= (default: the node's worst corner)
//	GET  /diff?from=&to=   what changed between two published versions
//	                       (?eps= tolerance, default bitwise; ?k= rank
//	                       comparison depth; defaults diff the last
//	                       delta batch)
//	GET  /versions         retained versions with publish sequence
//	                       numbers (the from/to namespace of /diff)
//	GET  /corners          configured PVT corners with per-corner model
//	                       hit rates and signoff summaries
//	GET  /devices          device list with stable IDs (delta targets)
//	GET  /verify           re-derive from scratch, compare bit-for-bit
//	GET  /stats            daemon + per-design counters
//	GET  /healthz          liveness (always 200 while the process serves)
//	GET  /readyz           readiness (503 once draining begins)
//	GET  /metrics          Prometheus text exposition (when Config.Obs set)
//	GET  /debug/requests   flight-recorder summaries: the most recent and
//	                       the pinned (errored/shed/panicked/slow)
//	                       requests with trace IDs, newest first
//	GET  /debug/flightrecorder  the same requests as a Chrome trace-event
//	                       JSON dump with per-phase analysis spans
//
// Tracing: every request gets a W3C trace context — the incoming
// `traceparent` header is honored when valid (same trace ID, fresh span
// ID) and replaced by a fresh root trace otherwise — echoed back in the
// response `traceparent` header, stamped on the structured request log,
// and recorded with the request's analysis phase spans in the always-on
// flight recorder.
//
// Resilience: analysis routes (load, delta, full, verify) run under a
// bounded in-flight semaphore — excess requests are shed with 503 and a
// Retry-After header rather than queued — and a per-request deadline that
// cancels the underlying analysis (the wavefront walk aborts and the
// session rolls back to its published result). Request bodies are capped
// (413 on overrun), handler panics become 500s without killing the
// daemon, and the design registry is bounded with LRU eviction. Failures
// are classified through the tverr taxonomy: bad input 400, unknown
// design/node 404, oversized body 413, shed 503, canceled client 499,
// deadline 504, everything else 500.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/incr"
	"nmostv/internal/obs"
	"nmostv/internal/simfile"
	"nmostv/internal/snapshot"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

// Defaults for the resilience knobs (Config zero values).
const (
	DefaultMaxInflight    = 32
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxDesigns     = 16
	DefaultMaxLoadBytes   = 64 << 20
	DefaultMaxDeltaBytes  = 16 << 20
	// DefaultFlightSize is the flight recorder's ring size: the last N
	// requests, plus separately the last N pinned (errored/shed/panicked/
	// slow) requests.
	DefaultFlightSize = 64
	// DefaultSlowRequest pins requests at least this slow in the flight
	// recorder.
	DefaultSlowRequest = 1 * time.Second
	// DefaultSLOLatency is the per-request latency objective behind the
	// tvd_slo_requests_total good/bad counters.
	DefaultSLOLatency = 500 * time.Millisecond
)

// Config parameterizes the daemon.
type Config struct {
	// Params is the process used for every design.
	Params tech.Params
	// Sched is the clock schedule designs are analyzed against.
	Sched clocks.Schedule
	// Workers bounds analysis parallelism (0 = one per CPU).
	Workers int
	// Corners are the PVT corners every design is analyzed at alongside
	// the base process (incr.Options.Corners). Empty = single-corner.
	Corners []tech.Corner
	// MaxInflight bounds concurrently running analysis requests (load,
	// delta, full, verify); excess requests are shed with 503 +
	// Retry-After instead of queueing behind the session locks. 0 means
	// DefaultMaxInflight; negative disables shedding.
	MaxInflight int
	// RequestTimeout is the per-request deadline on analysis routes; a
	// request over deadline aborts its analysis and returns 504. 0 means
	// DefaultRequestTimeout; negative disables the deadline.
	RequestTimeout time.Duration
	// MaxDesigns caps the designs resident in memory. Every transition
	// that makes a design resident (a load, a rehydration, a touch that
	// cancels a pending eviction) evicts the least-recently-used designs
	// beyond the cap; a design a request still holds goes when released.
	// 0 means DefaultMaxDesigns; negative disables eviction.
	MaxDesigns int
	// MaxLoadBytes and MaxDeltaBytes cap the request bodies of POST
	// /load and POST /delta (413 on overrun). 0 means the defaults.
	MaxLoadBytes, MaxDeltaBytes int64
	// HistoryDepth bounds each session's retained-version ring for GET
	// /diff and /versions (incr.Options.HistoryDepth). 0 means
	// incr.DefaultHistoryDepth; 1 keeps only the latest version.
	HistoryDepth int
	// Log receives one structured line per request (trace ID, route,
	// status) plus lifecycle events (evictions, panics); nil disables
	// logging.
	Log *obs.Logger
	// Obs collects per-route request counters and latency histograms and
	// is threaded into every session's analysis pipeline. When its
	// registry is non-nil the handler also serves GET /metrics. Nil
	// disables all instrumentation.
	Obs *obs.Obs
	// Version identifies the build in the tvd_build_info metric. Empty
	// means "dev".
	Version string
	// FlightSize is the flight recorder's ring size (recent and pinned
	// rings each hold this many completed request traces). 0 means
	// DefaultFlightSize; negative disables the recorder and its
	// /debug/flightrecorder and /debug/requests endpoints.
	FlightSize int
	// SlowRequest pins any request at least this slow in the flight
	// recorder. 0 means DefaultSlowRequest; negative disables the
	// slowness keep-policy (errors, sheds, and panics still pin).
	SlowRequest time.Duration
	// SLOLatency is the latency objective behind the per-route
	// tvd_slo_requests_total{slo="good"|"bad"} counters: a request is
	// good when it finishes within the objective without a 5xx. 0 means
	// DefaultSLOLatency; negative disables SLO accounting.
	SLOLatency time.Duration
	// StateDir enables durable sessions: every design keeps a versioned
	// snapshot plus a delta journal under this directory. Committed
	// batches append to the journal; registry eviction becomes
	// evict-to-snapshot with lazy rehydration on next touch; WarmRestart
	// reloads persisted designs after a restart or crash (last snapshot +
	// journal tail replay). Empty disables durability: eviction drops
	// sessions outright and a restart starts empty.
	StateDir string
	// FsyncEvery batches journal fsync: 1 (or 0, the default) syncs every
	// committed batch — the crash-safe setting; n > 1 syncs every nth
	// batch, trading the tail of the journal for append throughput;
	// negative never syncs (the OS decides).
	FsyncEvery int
}

func (c *Config) withDefaults() {
	if c.Sched.Period == 0 {
		c.Sched = clocks.TwoPhase(1000, 0.8)
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxDesigns == 0 {
		c.MaxDesigns = DefaultMaxDesigns
	}
	if c.MaxLoadBytes == 0 {
		c.MaxLoadBytes = DefaultMaxLoadBytes
	}
	if c.MaxDeltaBytes == 0 {
		c.MaxDeltaBytes = DefaultMaxDeltaBytes
	}
	if c.FlightSize == 0 {
		c.FlightSize = DefaultFlightSize
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = DefaultSlowRequest
	}
	if c.SLOLatency == 0 {
		c.SLOLatency = DefaultSLOLatency
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	if c.FsyncEvery == 0 {
		c.FsyncEvery = 1
	}
}

// regEntry is one registered design. With durability on, an entry is hot
// (session in memory) or cold (state on disk only, rehydrated on the next
// touch); without it, entries are always hot and eviction removes them
// from the registry.
//
// The registry's locking rule, one job per lock:
//   - Server.mu guards the map and each entry's pins, lastUse and evict.
//     It is held only for O(1) work or one pass over the map, and reads
//     take only it, so a query never waits on a commit or a hydration.
//   - e.mu serializes the entry's load, commit plus journal append,
//     hydrate, snapshot and unload, and owns the journal, so the journal's
//     record order is the session's publish order.
//   - e.mu is always taken before Server.mu.
//   - sess and the /stats mirrors are written holding both locks, so
//     either lock alone is enough to read them.
//
// Eviction is a mark, then an unload. The LRU pass marks a victim under
// Server.mu and a touch cancels the mark. finishEvict snapshots under
// e.mu, then unloads only if, under Server.mu, the mark still stands and
// no request holds a pin; a pinned victim stays resident with its mark,
// and its last release finishes the eviction.
type regEntry struct {
	name string

	// Guarded by Server.mu. lastUse is the registry use sequence at the
	// entry's last touch, the smallest being the LRU victim; pins counts
	// the requests holding the session; evict marks an LRU victim.
	lastUse uint64
	pins    int
	evict   bool

	// Written under both locks. sess is nil while the entry is cold.
	// snapSeq, lastSnap and jlag mirror the durable state for /stats: the
	// publish seq the on-disk snapshot covers, its write time, and the
	// journal bytes a recovery would replay.
	sess                    *incr.Session
	snapSeq, lastSnap, jlag int64

	mu      sync.Mutex
	journal *snapshot.Journal
}

// Server is the HTTP facade over a registry of incremental sessions.
type Server struct {
	cfg Config

	// mu guards sessions, useSeq and each entry's registry fields (see
	// regEntry).
	mu       sync.Mutex
	sessions map[string]*regEntry
	useSeq   uint64

	// store is the durable session store; nil when Config.StateDir is
	// empty (durability off). restoring is true while WarmRestart is
	// rehydrating persisted designs; /readyz reports 503 until done.
	store     *snapshot.Store
	restoring atomic.Bool

	// inflight is the admission semaphore for analysis routes; nil when
	// shedding is disabled.
	inflight chan struct{}
	draining atomic.Bool

	// flight is the always-on request flight recorder; nil when disabled
	// (Config.FlightSize < 0).
	flight *obs.FlightRecorder

	start    time.Time
	requests atomic.Int64
}

// New returns an empty server.
func New(cfg Config) *Server {
	cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: make(map[string]*regEntry),
		start:    time.Now(),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.StateDir != "" {
		store, err := snapshot.NewStore(cfg.StateDir)
		if err != nil {
			// A daemon that silently ran without durability would betray
			// the operator at the worst moment; cmd/tvd pre-creates the
			// directory and fails fast, so this path is a last resort.
			cfg.Log.Error("state dir unusable; durability DISABLED",
				obs.F("dir", cfg.StateDir), obs.F("err", err.Error()))
		} else {
			s.store = store
		}
	}
	if cfg.FlightSize > 0 {
		slow := cfg.SlowRequest
		if slow < 0 {
			slow = 0
		}
		s.flight = obs.NewFlightRecorder(cfg.FlightSize, slow)
	}
	if o := cfg.Obs; o != nil {
		// The standard info-gauge pattern: the value is always 1, the
		// payload is the labels. go_version rides along so a fleet scrape
		// can audit toolchain skew without shelling into instances.
		o.Gauge("tvd_build_info", "build identity; the value is always 1",
			obs.Label{Key: "version", Val: cfg.Version},
			obs.Label{Key: "go_version", Val: runtime.Version()}).Set(1)
		o.Gauge("tvd_process_start_time_seconds",
			"unix time the process started").Set(float64(s.start.UnixNano()) / 1e9)
	}
	return s
}

// BeginDrain flips the server to draining: /readyz starts returning 503
// so load balancers stop routing here, while in-flight and already-routed
// requests keep being served. Called by the daemon on SIGTERM before
// http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// sessionOpts is the incr.Options every design is analyzed under — the
// single analysis configuration restore fingerprints against.
func (s *Server) sessionOpts() incr.Options {
	return incr.Options{
		Params:       s.cfg.Params,
		Sched:        s.cfg.Sched,
		Core:         core.Options{Workers: s.cfg.Workers},
		Corners:      s.cfg.Corners,
		Obs:          s.cfg.Obs,
		HistoryDepth: s.cfg.HistoryDepth,
	}
}

// Load parses .sim text and registers (or replaces) the named design,
// evicting the least-recently-used designs beyond Config.MaxDesigns.
// With durability on, the design's journal is emptied and an initial
// snapshot written before Load returns, so a crash at any later point
// recovers the design. The context cancels the initial analysis.
func (s *Server) Load(ctx context.Context, name string, sim io.Reader) (*incr.Session, error) {
	nl, err := simfile.Read(sim, name)
	if err != nil {
		// An oversized body surfaces as the reader's *http.MaxBytesError
		// wrapped in the ParseError; KindOf sees through it (413).
		// Everything else is malformed input.
		if tverr.KindOf(err) == tverr.Internal {
			return nil, tverr.New(tverr.Invalid, "server.load", err)
		}
		return nil, err
	}
	sess, err := incr.New(ctx, name, nl, s.sessionOpts())
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	e, ok := s.sessions[name]
	if !ok {
		e = &regEntry{name: name}
		s.sessions[name] = e
	}
	// Pin through setup so an eviction cannot unload the half-installed
	// entry.
	s.touchLocked(e)
	s.mu.Unlock()

	e.mu.Lock()
	if e.journal != nil {
		e.journal.Close()
		e.journal = nil
	}
	s.mu.Lock()
	e.sess, e.snapSeq, e.jlag = sess, 0, 0
	s.mu.Unlock()
	if s.store != nil {
		// Empty the journal BEFORE writing the snapshot: a crash between
		// the two leaves the old snapshot with an empty journal (stale
		// but consistent), never a new design with the old design's
		// records replayed onto it.
		if j, _, jerr := s.store.OpenJournal(name, s.cfg.FsyncEvery); jerr != nil {
			s.degraded(e, "journal open failed", jerr)
		} else if jerr = j.Reset(0); jerr != nil {
			j.Close()
			s.degraded(e, "journal reset failed", jerr)
		} else {
			e.journal = j
		}
		if serr := s.snapshotLocked(e); serr != nil {
			s.degraded(e, "initial snapshot failed", serr)
		}
	}
	e.mu.Unlock()
	s.admit(e)
	s.releaseEntry(e)
	return sess, nil
}

// touchLocked stamps a use of e and pins it. A touch cancels a pending
// eviction: the LRU chose the entry while it was idle, and it no longer
// is. It reports whether it canceled a mark. Caller holds s.mu.
func (s *Server) touchLocked(e *regEntry) (canceled bool) {
	s.useSeq++
	e.lastUse = s.useSeq
	e.pins++
	canceled, e.evict = e.evict, false
	return canceled
}

// admit is the LRU pass that every transition adding a resident design
// runs: a load, a rehydration, and a touch that cancels a mark. It marks
// the least-recently-used resident entries other than keep until at most
// MaxDesigns stay unmarked, then finishes the evictions no pin defers.
func (s *Server) admit(keep *regEntry) {
	if s.cfg.MaxDesigns <= 0 {
		return
	}
	s.mu.Lock()
	excess := -s.cfg.MaxDesigns
	var lru []*regEntry
	for _, e := range s.sessions {
		if e.sess != nil && !e.evict {
			excess++
			if e != keep {
				lru = append(lru, e)
			}
		}
	}
	slices.SortFunc(lru, func(a, b *regEntry) int { return cmp.Compare(a.lastUse, b.lastUse) })
	var victims []*regEntry
	for _, e := range lru[:max(0, min(excess, len(lru)))] {
		e.evict = true
		if e.pins == 0 {
			victims = append(victims, e)
		}
	}
	s.mu.Unlock()
	for _, e := range victims {
		s.finishEvict(e)
	}
}

// entryLocked resolves a design name (empty = the single loaded design)
// to its registry entry. An unknown design is NotFound (404); an
// ambiguous or empty selection is Invalid (400). Caller holds s.mu.
func (s *Server) entryLocked(name string) (*regEntry, error) {
	if name == "" {
		if len(s.sessions) == 1 {
			for _, e := range s.sessions {
				return e, nil
			}
		}
		return nil, tverr.Errorf(tverr.Invalid, "server.session",
			"%d designs loaded; select one with ?design=name", len(s.sessions))
	}
	e, ok := s.sessions[name]
	if !ok {
		return nil, tverr.Errorf(tverr.NotFound, "server.session", "no design %q loaded", name)
	}
	return e, nil
}

// acquire resolves the `design` query parameter to a pinned session. The
// caller MUST call release when done with the session — including after
// a long streaming response — at which point a deferred eviction, if one
// was marked while the pin was held, finally runs. A cold entry is
// rehydrated from its snapshot + journal on the spot.
func (s *Server) acquire(r *http.Request) (*regEntry, *incr.Session, func(), error) {
	return s.acquireName(r.Context(), r.URL.Query().Get("design"))
}

func (s *Server) acquireName(ctx context.Context, name string) (*regEntry, *incr.Session, func(), error) {
	s.mu.Lock()
	e, err := s.entryLocked(name)
	if err != nil {
		s.mu.Unlock()
		return nil, nil, nil, err
	}
	canceled := s.touchLocked(e)
	sess := e.sess
	s.mu.Unlock()
	cold := sess == nil
	if cold {
		// Rehydrate under the entry lock. Concurrent requests for the same
		// design queue here and find the session on their turn.
		e.mu.Lock()
		err := s.hydrate(ctx, e)
		sess = e.sess
		e.mu.Unlock()
		if err != nil {
			s.releaseEntry(e)
			return nil, nil, nil, err
		}
	}
	if cold || canceled {
		s.admit(e)
	}
	return e, sess, func() { s.releaseEntry(e) }, nil
}

// releaseEntry drops one pin; the last pin out finishes a marked eviction.
func (s *Server) releaseEntry(e *regEntry) {
	s.mu.Lock()
	e.pins--
	finish := e.pins == 0 && e.evict
	s.mu.Unlock()
	if finish {
		s.finishEvict(e)
	}
}

// finishEvict completes a marked eviction. With durability on it first
// snapshots the session under e.mu. It then unloads the entry only if,
// under s.mu, the mark still stands and no request holds a pin;
// otherwise the entry stays resident, and a kept mark waits for the last
// release. Unloading leaves a durable entry registered, cold; without
// durability it removes the entry from the registry.
func (s *Server) finishEvict(e *regEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.mu.Lock()
	due := e.evict && e.pins == 0 && e.sess != nil
	s.mu.Unlock()
	if !due {
		return
	}
	if s.store != nil {
		if err := s.snapshotLocked(e); err != nil {
			// Never drop state that failed to persist: keep the session
			// resident (over cap) and let the next pass retry.
			s.mu.Lock()
			e.evict = false
			s.mu.Unlock()
			s.cfg.Log.Error("evict-to-snapshot failed; keeping design resident",
				obs.F("design", e.name), obs.F("err", err.Error()))
			return
		}
	}
	s.mu.Lock()
	if !e.evict || e.pins != 0 {
		s.mu.Unlock()
		return
	}
	e.evict, e.sess = false, nil
	if s.store == nil {
		delete(s.sessions, e.name)
	}
	s.mu.Unlock()
	if e.journal != nil {
		e.journal.Close()
		e.journal = nil
	}
	s.cfg.Obs.Counter("tvd_sessions_evicted_total",
		"designs evicted from the registry by the LRU cap").Inc()
	s.cfg.Log.Warn("design evicted",
		obs.F("design", e.name), obs.F("persisted", s.store != nil),
		obs.F("max_designs", s.cfg.MaxDesigns))
}

// Handler returns the routed HTTP handler with the full middleware stack:
// request accounting outermost, then panic recovery, then (per analysis
// route) admission control and the request deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /load", s.heavy(s.handleLoad))
	mux.HandleFunc("POST /delta", s.heavy(s.handleDelta))
	mux.HandleFunc("POST /full", s.heavy(s.handleFull))
	mux.HandleFunc("GET /verify", s.heavy(s.handleVerify))
	mux.HandleFunc("GET /node/{name}", s.handleNode)
	mux.HandleFunc("GET /critical", s.handleCritical)
	mux.HandleFunc("GET /paths", s.handlePaths)
	mux.HandleFunc("GET /why", s.handleWhy)
	mux.HandleFunc("GET /diff", s.handleDiff)
	mux.HandleFunc("GET /versions", s.handleVersions)
	mux.HandleFunc("GET /slack", s.handleSlack)
	mux.HandleFunc("GET /corners", s.handleCorners)
	mux.HandleFunc("GET /devices", s.handleDevices)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Obs != nil && s.cfg.Obs.Reg != nil {
		mux.Handle("GET /metrics", s.cfg.Obs.Reg.Handler())
	}
	if s.flight != nil {
		// Deliberately outside the heavy admission gate, like /paths:
		// the flight recorder exists to explain incidents, so it must
		// answer while the write path is saturated or failing.
		mux.HandleFunc("GET /debug/requests", s.handleRequests)
		mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	}
	return s.timed(s.recovered(mux))
}

// statusWriter captures the response code for the request log and the
// per-route metrics, whether anything was written (so the panic recovery
// knows if a 500 can still be sent), and whether the handler panicked
// (the flight recorder's strongest pin reason).
type statusWriter struct {
	http.ResponseWriter
	status   int
	wrote    bool
	panicked bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so streaming handlers (the
// NDJSON /paths) can push each line through the middleware stack.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timed wraps the mux with request accounting: the per-request trace
// (W3C traceparent in, traceparent out, flight-recorder span buffer down
// the context), per-route counters labeled by matched pattern and status
// code, a per-route latency histogram, SLO good/bad counters, and the
// optional structured request log. Requests that match no route are
// grouped under route="unmatched" so probe scans cannot mint unbounded
// label values.
func (s *Server) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Add(1)
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w, status: http.StatusOK}
		}
		// An invalid or absent traceparent mints a fresh root trace —
		// per the W3C processing rules it is never a client error.
		parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		rs := s.flight.Start(parent, r.Method, r.URL.RequestURI())
		if rs != nil {
			sw.Header().Set("traceparent", rs.TC.Traceparent())
			r = r.WithContext(obs.WithRequest(r.Context(), rs))
		}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		if o := s.cfg.Obs; o != nil {
			o.Counter("tvd_requests_total", "HTTP requests by matched route and status code",
				obs.Label{Key: "route", Val: route},
				obs.Label{Key: "code", Val: strconv.Itoa(sw.status)}).Inc()
			o.Histogram("tvd_request_duration_seconds", "HTTP request latency by matched route",
				nil, obs.Label{Key: "route", Val: route}).Observe(elapsed.Seconds())
			if s.cfg.SLOLatency > 0 {
				outcome := "good"
				if sw.status >= 500 || elapsed > s.cfg.SLOLatency {
					outcome = "bad"
				}
				o.Counter("tvd_slo_requests_total",
					"requests judged against the -slo-latency objective (good = no 5xx and within the objective)",
					obs.Label{Key: "route", Val: route},
					obs.Label{Key: "slo", Val: outcome}).Inc()
			}
		}
		if rt := s.flight.Finish(rs, route, sw.status, sw.panicked); rt != nil && rt.Pinned != "" {
			s.cfg.Obs.Counter("tvd_flightrecorder_pinned_total",
				"request traces pinned in the flight recorder by keep-policy reason",
				obs.Label{Key: "reason", Val: string(rt.Pinned)}).Inc()
		}
		if lg := s.cfg.Log; lg != nil {
			fields := make([]obs.Field, 0, 7)
			fields = append(fields,
				obs.F("method", r.Method),
				obs.F("uri", r.URL.RequestURI()),
				obs.F("route", route),
				obs.F("status", sw.status),
				obs.F("dur", elapsed))
			if rs != nil {
				fields = append(fields,
					obs.F("trace", rs.TC.TraceIDString()),
					obs.F("span", rs.TC.SpanIDString()))
			}
			lg.Info("request", fields...)
		}
	})
}

// recovered turns handler panics into 500 responses (when the header has
// not been sent yet) and keeps the daemon serving. http.ErrAbortHandler
// passes through — it is net/http's own abort protocol.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w, status: http.StatusOK}
		}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.cfg.Obs.Counter("tvd_panics_total",
				"handler panics recovered by the middleware").Inc()
			sw.panicked = true
			if lg := s.cfg.Log; lg != nil {
				fields := []obs.Field{
					obs.F("method", r.Method),
					obs.F("uri", r.URL.RequestURI()),
					obs.F("panic", fmt.Sprint(rec)),
					obs.F("stack", string(debug.Stack())),
				}
				if rs := obs.RequestFrom(r.Context()); rs != nil {
					fields = append(fields, obs.F("trace", rs.TC.TraceIDString()))
				}
				lg.Error("panic serving request", fields...)
			}
			if !sw.wrote {
				writeErr(sw, http.StatusInternalServerError, "internal error")
			} else {
				// Mid-body panic: the status line is gone; record the
				// failure for the request log/metrics at least.
				sw.status = http.StatusInternalServerError
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// heavy gates an analysis handler with admission control and the
// per-request deadline. A full semaphore sheds the request immediately —
// 503 with Retry-After — rather than queueing it behind the session
// write lock; an acquired slot is held for the handler's whole run.
func (s *Server) heavy(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.cfg.Obs.Counter("tvd_shed_total",
					"analysis requests shed with 503 by admission control").Inc()
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusServiceUnavailable,
					"server saturated (%d analysis requests in flight); retry", cap(s.inflight))
				return
			}
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// fail maps an error through the tverr taxonomy to its HTTP status and
// writes the JSON error body.
func (s *Server) fail(w http.ResponseWriter, err error) {
	writeErr(w, tverr.HTTPStatus(err), "%v", err)
}

// declaredLen is a request body that reports its declared length as Len,
// as an in-memory reader does, which simfile.Read sizes a netlist from.
type declaredLen struct {
	io.Reader
	n int
}

func (b declaredLen) Len() int { return b.n }

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "design"
	}
	var body io.Reader = http.MaxBytesReader(w, r.Body, s.cfg.MaxLoadBytes)
	if n := r.ContentLength; n > 0 {
		// The parser sizes the netlist from the declared length, capped
		// like the body itself.
		body = declaredLen{body, int(min(n, s.cfg.MaxLoadBytes))}
	}
	sess, err := s.Load(r.Context(), name, body)
	if err != nil {
		writeErr(w, tverr.HTTPStatus(err), "load %q: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	e, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	var deltas []incr.Delta
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxDeltaBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&deltas); err != nil {
		// Truncated or malformed JSON is 400; a body over the cap
		// surfaces as *http.MaxBytesError through the decoder (413).
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.fail(w, err)
			return
		}
		writeErr(w, http.StatusBadRequest, "delta body: %v", err)
		return
	}
	if len(deltas) == 0 {
		writeErr(w, http.StatusBadRequest, "empty delta batch")
		return
	}
	stats, err := s.commit(e, sess, batchDelta, deltas, func() (incr.Stats, error) {
		return sess.Apply(r.Context(), deltas)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleFull(w http.ResponseWriter, r *http.Request) {
	e, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	stats, err := s.commit(e, sess, batchFull, nil, func() (incr.Stats, error) {
		return sess.Full(r.Context())
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	name := r.PathValue("name")
	nt, ok := sess.NodeTiming(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "design %q has no node %q", sess.Name(), name)
		return
	}
	writeJSON(w, http.StatusOK, nt)
}

func (s *Server) handleCritical(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	k := 5
	if kq := r.URL.Query().Get("k"); kq != "" {
		k, err = strconv.Atoi(kq)
		if err != nil || k <= 0 {
			writeErr(w, http.StatusBadRequest, "bad k %q", kq)
			return
		}
	}
	entries, err := sess.CriticalAt(r.URL.Query().Get("corner"), k)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, entries)
}

// handlePaths streams the k worst paths as NDJSON, one path per line.
// The stream pulls lazily from the published version's ranking — opened
// under the session read lock, consumed without it — which serves the
// paths earlier reads settled and searches only past them, so a large k
// costs the search frontier while it streams and a compact path per
// rank after, and a slow client never blocks delta traffic. Each line
// is flushed as it is produced, and the loop stops as soon as the
// client disconnects.
// Deliberately not behind the heavy admission gate: reads of the
// published result must stay available while the write path saturates.
func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	k := 10
	if kq := r.URL.Query().Get("k"); kq != "" {
		k, err = strconv.Atoi(kq)
		if err != nil || k <= 0 {
			writeErr(w, http.StatusBadRequest, "bad k %q", kq)
			return
		}
	}
	stream, err := sess.PathStream(r.URL.Query().Get("corner"))
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for i := 0; i < k; i++ {
		if ctx.Err() != nil {
			return
		}
		p, ok := stream.Next()
		if !ok {
			return
		}
		if err := enc.Encode(p); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleWhy(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	q := r.URL.Query()
	node := q.Get("node")
	if node == "" {
		writeErr(w, http.StatusBadRequest, "missing node parameter")
		return
	}
	info, err := sess.Why(r.Context(), node, q.Get("pol"), q.Get("corner"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	q := r.URL.Query()
	var from, to int64
	for name, dst := range map[string]*int64{"from": &from, "to": &to} {
		if v := q.Get(name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				writeErr(w, http.StatusBadRequest, "bad %s %q", name, v)
				return
			}
			*dst = n
		}
	}
	eps := 0.0
	if e := q.Get("eps"); e != "" {
		eps, err = strconv.ParseFloat(e, 64)
		if err != nil || eps < 0 || math.IsInf(eps, 0) || math.IsNaN(eps) {
			writeErr(w, http.StatusBadRequest, "bad eps %q", e)
			return
		}
	}
	k := 10
	if kq := q.Get("k"); kq != "" {
		k, err = strconv.Atoi(kq)
		if err != nil || k < 0 {
			writeErr(w, http.StatusBadRequest, "bad k %q", kq)
			return
		}
	}
	limit := 100
	if lq := q.Get("limit"); lq != "" {
		limit, err = strconv.Atoi(lq)
		if err != nil || limit < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", lq)
			return
		}
	}
	info, err := sess.Diff(r.Context(), from, to, eps, k, limit)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, sess.Versions())
}

func (s *Server) handleSlack(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	k := 10
	if kq := r.URL.Query().Get("k"); kq != "" {
		k, err = strconv.Atoi(kq)
		if err != nil || k <= 0 {
			writeErr(w, http.StatusBadRequest, "bad k %q", kq)
			return
		}
	}
	rows, err := sess.Slack(r.Context(), k, r.URL.Query().Get("corner"))
	if err != nil {
		s.fail(w, err)
		return
	}
	if rows == nil {
		rows = []incr.SlackInfo{}
	}
	writeJSON(w, http.StatusOK, rows)
}

func (s *Server) handleCorners(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	corners := sess.Corners()
	if corners == nil {
		corners = []incr.CornerInfo{}
	}
	writeJSON(w, http.StatusOK, corners)
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, sess.Devices())
}

type verifyBody struct {
	OK        bool   `json:"ok"`
	Design    string `json:"design"`
	Error     string `json:"error,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	_, sess, release, err := s.acquire(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	start := time.Now()
	vErr := sess.SelfCheck(r.Context())
	if vErr != nil && tverr.HTTPStatus(vErr) != http.StatusInternalServerError {
		// Canceled or timed out before the comparison finished: that is
		// the request's failure, not an equivalence violation.
		s.fail(w, vErr)
		return
	}
	body := verifyBody{OK: vErr == nil, Design: sess.Name(), ElapsedNS: time.Since(start).Nanoseconds()}
	status := http.StatusOK
	if vErr != nil {
		body.Error = vErr.Error()
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, body)
}

// handleRequests serves the flight recorder's structured summaries,
// newest first: one row per retained request with its trace identity,
// route, status, duration, and pin reason.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.flight.Summaries())
}

// handleFlightRecorder dumps every retained request trace as one Chrome
// trace-event JSON file (load it in ui.perfetto.dev): each request is a
// process whose root span carries method, route, and status, with the
// analysis phase spans stacked beneath. The dump streams trace by trace
// and stops at the first write error, so a disconnecting client costs
// nothing.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="flightrecorder.json"`)
	w.WriteHeader(http.StatusOK)
	s.flight.WriteChrome(w)
}

type statsBody struct {
	Designs  int   `json:"designs"`
	Requests int64 `json:"requests"`
	UptimeNS int64 `json:"uptime_ns"`
	Draining bool  `json:"draining,omitempty"`
	// Persisted counts designs with durable state on disk (hot or cold);
	// Restoring is true while a warm restart is still rehydrating them.
	Persisted int                    `json:"persisted,omitempty"`
	Restoring bool                   `json:"restoring,omitempty"`
	PerDesign map[string]incr.Info   `json:"per_design"`
	Persist   map[string]persistInfo `json:"persist,omitempty"`
	Names     []string               `json:"names"`
}

// persistInfo is the per-design durability view in /stats.
type persistInfo struct {
	// Cold means the design currently lives only on disk; the next
	// request rehydrates it.
	Cold bool `json:"cold,omitempty"`
	// SnapshotSeq is the publish sequence covered by the on-disk
	// snapshot; the session's Version minus this is the replay distance.
	SnapshotSeq int64 `json:"snapshot_seq"`
	// JournalLagBytes is how much journal a crash recovery would replay
	// on top of the snapshot.
	JournalLagBytes int64 `json:"journal_lag_bytes"`
	// LastSnapshotUnix is when the snapshot was written (unix seconds).
	LastSnapshotUnix int64 `json:"last_snapshot_unix,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	type row struct {
		sess *incr.Session
		pi   persistInfo
	}
	s.mu.Lock()
	rows := make(map[string]row, len(s.sessions))
	for name, e := range s.sessions {
		rows[name] = row{sess: e.sess, pi: persistInfo{
			Cold:             e.sess == nil,
			SnapshotSeq:      e.snapSeq,
			JournalLagBytes:  e.jlag,
			LastSnapshotUnix: e.lastSnap,
		}}
	}
	s.mu.Unlock()
	body := statsBody{
		Designs:   len(rows),
		Requests:  s.requests.Load(),
		UptimeNS:  time.Since(s.start).Nanoseconds(),
		Draining:  s.draining.Load(),
		Restoring: s.restoring.Load(),
		PerDesign: make(map[string]incr.Info, len(rows)),
	}
	for name, rw := range rows {
		if rw.sess != nil {
			body.PerDesign[name] = rw.sess.Info()
		}
		if s.store != nil {
			if body.Persist == nil {
				body.Persist = make(map[string]persistInfo, len(rows))
			}
			if rw.pi.SnapshotSeq > 0 || rw.pi.Cold {
				body.Persisted++
			}
			body.Persist[name] = rw.pi
		}
		body.Names = append(body.Names, name)
	}
	sort.Strings(body.Names)
	writeJSON(w, http.StatusOK, body)
}

type healthBody struct {
	OK       bool   `json:"ok"`
	State    string `json:"state"`
	UptimeNS int64  `json:"uptime_ns"`
}

// handleHealthz is liveness: 200 for as long as the process can serve
// requests at all, draining included. Restart-deciding probes use this.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if s.draining.Load() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, healthBody{OK: true, State: state, UptimeNS: time.Since(s.start).Nanoseconds()})
}

// handleReadyz is readiness: 503 once draining so routing layers pull the
// instance before shutdown completes, and 503 while a warm restart is
// still rehydrating persisted designs (Retry-After tells probes when to
// look again).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			healthBody{OK: false, State: "draining", UptimeNS: time.Since(s.start).Nanoseconds()})
		return
	}
	if s.restoring.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			healthBody{OK: false, State: "restoring", UptimeNS: time.Since(s.start).Nanoseconds()})
		return
	}
	writeJSON(w, http.StatusOK, healthBody{OK: true, State: "serving", UptimeNS: time.Since(s.start).Nanoseconds()})
}
