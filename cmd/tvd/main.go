// Command tvd is the incremental timing daemon: it holds designs in
// memory, accepts netlist deltas over HTTP/JSON, re-analyzes only the
// affected cone, and serves timing queries. See internal/server for the
// endpoint list and DESIGN.md §6 for the architecture.
//
// Usage:
//
//	tvd [flags]
//
//	-addr host:port  listen address (default :8077)
//	-period ns       clock period (default 1000)
//	-active frac     per-phase active fraction (default 0.8)
//	-corners list    analyze every design at these PVT corners alongside
//	                 the base process: comma-separated builtin names
//	                 (slow, typ, fast) or name:rscale:cscale derates;
//	                 enables per-corner /slack, /critical?corner=, and
//	                 the /corners route
//	-preload f.sim   load a design at startup, repeatable; the design
//	                 name is the file basename without extension
//	-j n             worker goroutines for model build and propagation
//	                 (0 = one per CPU, 1 = serial; results are identical)
//	-max-inflight n  concurrent analysis requests admitted before the
//	                 server sheds with 503 + Retry-After (default 32,
//	                 negative disables shedding)
//	-request-timeout d  per-request deadline on analysis routes; over
//	                 deadline the analysis aborts and the request gets
//	                 504 (default 30s, negative disables)
//	-max-designs n   cap on designs resident in memory; a load, a
//	                 rehydration or a touch that cancels an eviction
//	                 evicts the least-recently-used designs past it
//	                 (default 16, negative disables eviction)
//	-history n       retained analysis versions per design, the window
//	                 GET /diff and /versions can reach back over
//	                 (default 4; 1 keeps only the latest)
//	-drain-timeout d how long SIGINT/SIGTERM waits for in-flight
//	                 requests before forcing exit (default 10s)
//	-metrics-addr    also serve GET /metrics on a dedicated listener;
//	                 with -pprof, profiles mount only there, keeping
//	                 them off the main address
//	-pprof           mount net/http/pprof under /debug/pprof/.
//	                 Off by default: profiles expose internals and can
//	                 burn CPU, so only enable on a trusted interface
//	                 (prefer pairing with -metrics-addr 127.0.0.1:port)
//	-log-format f    request/lifecycle log encoding: text (logfmt-style)
//	                 or json (one object per line)
//	-log-level l     minimum log severity: debug, info, warn, or error
//	-flight-recorder n  flight-recorder ring size: the daemon retains the
//	                 last n request traces plus the last n pinned
//	                 (errored, shed, panicked, slow) traces, dumpable at
//	                 GET /debug/flightrecorder and /debug/requests
//	                 (default 64, negative disables)
//	-slow-request d  pin requests at least this slow in the flight
//	                 recorder (default 1s, negative disables)
//	-slo-latency d   latency objective behind the per-route
//	                 tvd_slo_requests_total{slo="good"|"bad"} counters
//	                 (default 500ms, negative disables)
//	-state-dir dir   durable sessions: every design keeps a versioned
//	                 snapshot plus a crash-safe delta journal under dir;
//	                 eviction becomes evict-to-snapshot with rehydration
//	                 on next touch, and a restart (clean or crashed)
//	                 warm-starts from the persisted state. Empty (the
//	                 default) disables durability
//	-fsync-every n   journal fsync batching: 1 (default) syncs every
//	                 committed batch, n > 1 every nth batch, negative
//	                 never (the OS decides when)
//	-quiet           drop the per-request log lines
//	-version         print the version and exit
//
// Lifecycle: GET /healthz answers 200 for the life of the process; GET
// /readyz flips to 503 the moment a termination signal arrives, then the
// daemon drains in-flight requests (bounded by -drain-timeout) and exits
// 0. A second signal forces immediate exit.
//
// Quick start:
//
//	tvd -preload testdata/tutorial.sim &
//	curl localhost:8077/node/dout
//	curl -X POST localhost:8077/delta -d '[{"op":"resize","id":3,"w":8}]'
//	curl localhost:8077/verify
//	curl localhost:8077/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/obs"
	"nmostv/internal/server"
	"nmostv/internal/tech"
)

// version is stamped by the build:
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/tvd
var version = "dev"

type preloads []string

func (p *preloads) String() string { return strings.Join(*p, ",") }

func (p *preloads) Set(s string) error {
	*p = append(*p, s)
	return nil
}

// mountPprof attaches the net/http/pprof handlers explicitly rather than
// via its import side effect, so they land on the mux we choose instead
// of http.DefaultServeMux.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// newHTTPServer wraps a handler in an http.Server with conservative
// transport timeouts (slow-loris protection; the per-request analysis
// deadline is the server middleware's job, so no WriteTimeout here — it
// would sever long legitimate analyses mid-response).
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	period := flag.Float64("period", 1000, "clock period in ns")
	active := flag.Float64("active", 0.8, "per-phase active fraction")
	cornerSpec := flag.String("corners", "", "comma-separated PVT corners to analyze alongside the base process")
	jobs := flag.Int("j", 0, "worker goroutines (0 = one per CPU, 1 = serial)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent analysis requests before shedding with 503 (0 = default, negative disables)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline on analysis routes (0 = default, negative disables)")
	maxDesigns := flag.Int("max-designs", 0, "cap on resident designs; loads and page-ins evict the least-recently-used past it (0 = default, negative disables)")
	history := flag.Int("history", 0, "retained analysis versions per design for /diff and /versions (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	metricsAddr := flag.String("metrics-addr", "", "also serve /metrics (and -pprof) on this dedicated address; pprof then stays off the main address")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof (exposes internals; only enable on a trusted interface)")
	logFormat := flag.String("log-format", "text", "log line encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log severity: debug, info, warn, or error")
	flightSize := flag.Int("flight-recorder", 0, "flight-recorder ring size (0 = default, negative disables)")
	slowRequest := flag.Duration("slow-request", 0, "pin requests at least this slow in the flight recorder (0 = default, negative disables)")
	sloLatency := flag.Duration("slo-latency", 0, "latency objective for the per-route SLO counters (0 = default, negative disables)")
	stateDir := flag.String("state-dir", "", "persist sessions (snapshot + journal) under this directory; empty disables durability")
	fsyncEvery := flag.Int("fsync-every", 0, "journal fsync batching: 1 (default) every batch, n>1 every nth, negative never")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	showVersion := flag.Bool("version", false, "print the version and exit")
	var pre preloads
	flag.Var(&pre, "preload", "load a .sim design at startup (repeatable)")
	flag.Parse()

	if *showVersion {
		fmt.Printf("tvd %s %s\n", version, runtime.Version())
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tvd [flags]  (designs are loaded via -preload or POST /load)")
		flag.Usage()
		os.Exit(2)
	}

	format, err := obs.ParseFormat(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tvd: -log-format: %v\n", err)
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tvd: -log-level: %v\n", err)
		os.Exit(2)
	}
	lg := obs.NewLogger(os.Stderr, format, level)
	fatal := func(msg string, fields ...obs.Field) {
		lg.Error(msg, fields...)
		os.Exit(1)
	}
	if err := armFaultPoints(lg); err != nil {
		fatal("fault points", obs.F("err", err))
	}
	corners, err := tech.ParseCorners(*cornerSpec)
	if err != nil {
		fatal("-corners", obs.F("err", err))
	}
	if *stateDir != "" {
		// Fail fast on an unusable state dir: a daemon that silently ran
		// without the durability it was asked for would betray the
		// operator at the worst possible moment.
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fatal("-state-dir", obs.F("dir", *stateDir), obs.F("err", err))
		}
	}
	o := obs.NewObs()
	cfg := server.Config{
		Params:         tech.Default(),
		Sched:          clocks.TwoPhase(*period, *active),
		Workers:        *jobs,
		Corners:        corners,
		MaxInflight:    *maxInflight,
		RequestTimeout: *requestTimeout,
		MaxDesigns:     *maxDesigns,
		HistoryDepth:   *history,
		Log:            lg,
		Obs:            o,
		Version:        version,
		FlightSize:     *flightSize,
		SlowRequest:    *slowRequest,
		SLOLatency:     *sloLatency,
		StateDir:       *stateDir,
		FsyncEvery:     *fsyncEvery,
	}
	if *quiet {
		cfg.Log = nil
	}
	srv := server.New(cfg)

	for _, path := range pre {
		f, err := os.Open(path)
		if err != nil {
			fatal("preload", obs.F("err", err))
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		sess, err := srv.Load(context.Background(), name, f)
		f.Close()
		if err != nil {
			fatal("preload", obs.F("file", path), obs.F("err", err))
		}
		info := sess.Info()
		lg.Info("design preloaded", obs.F("design", name),
			obs.F("devices", info.Devices), obs.F("nodes", info.Nodes),
			obs.F("stages", info.Stages), obs.F("arcs", info.Arcs))
	}

	// Warm restart in the background: the listener comes up immediately
	// and /readyz answers 503 "restoring" until every persisted design is
	// rehydrated, so orchestrators hold traffic without timing out the
	// process start. The flag flips synchronously, before the goroutine is
	// even scheduled, so a fast first probe can never see 200 "serving"
	// ahead of the restore window. Preloads above win over persisted
	// state by name.
	srv.BeginRestore()
	go func() {
		if err := srv.WarmRestart(context.Background()); err != nil {
			lg.Warn("warm restart incomplete", obs.F("err", err))
		}
	}()

	handler := srv.Handler()
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		// Dedicated observability listener. Metrics stay harmless on the
		// main address too; pprof mounts only here, so the main address
		// can be exposed without exposing profiles.
		omux := http.NewServeMux()
		omux.Handle("GET /metrics", o.Reg.Handler())
		if *enablePprof {
			mountPprof(omux)
		}
		metricsSrv = newHTTPServer(*metricsAddr, omux)
		go func() {
			lg.Info("metrics listener up", obs.F("addr", *metricsAddr), obs.F("pprof", *enablePprof))
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// The observability listener is an accessory: losing it
				// (port clash, say) should not take the daemon down.
				lg.Warn("metrics listener failed", obs.F("err", err))
			}
		}()
	} else if *enablePprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mountPprof(mux)
		handler = mux
		lg.Info("pprof mounted on main address", obs.F("addr", *addr))
	}

	main := newHTTPServer(*addr, handler)

	// First SIGINT/SIGTERM starts the drain; a second forces exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		lg.Info("tvd listening", obs.F("version", version), obs.F("addr", *addr),
			obs.F("period_ns", *period))
		serveErr <- main.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		fatal("serve", obs.F("err", err))
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us
	lg.Info("shutdown signal received; draining", obs.F("budget", *drainTimeout))
	srv.BeginDrain()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := main.Shutdown(drainCtx); err != nil {
		lg.Warn("drain incomplete", obs.F("err", err))
	}
	if metricsSrv != nil {
		metricsSrv.Shutdown(drainCtx)
	}
	// With the request stream quiet, snapshot every dirty session so the
	// next start is a warm restart with no journal replay.
	if err := srv.SnapshotAll(drainCtx); err != nil {
		lg.Warn("drain snapshots incomplete", obs.F("err", err))
	}
	lg.Info("drained; exiting")
}
