package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/faultpoint"
	"nmostv/internal/gen"
	"nmostv/internal/incr"
	"nmostv/internal/obs"
	"nmostv/internal/simfile"
	"nmostv/internal/tech"
)

// newTunedServer builds a test server with the tutorial design loaded and
// lets the test adjust the resilience knobs first.
func newTunedServer(t *testing.T, tune func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Params:  tech.Default(),
		Sched:   clocks.TwoPhase(1000, 0.8),
		Workers: 1,
	}
	if tune != nil {
		tune(&cfg)
	}
	s := New(cfg)
	f, err := os.Open("../../testdata/tutorial.sim")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := s.Load(context.Background(), "tutorial", f); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// chainSim renders an n-inverter chain as .sim text for POST /load.
func chainSim(t *testing.T, n int) string {
	t.Helper()
	b := gen.New("chain", tech.Default())
	b.Output(b.InvChain(b.Input("in"), n))
	var buf bytes.Buffer
	if err := simfile.Write(&buf, b.Finish()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestUnknownDesignIs404PerRoute: every design-scoped route answers 404 —
// not 400, not 500 — for an unknown ?design=. One regression assertion
// per route.
func TestUnknownDesignIs404PerRoute(t *testing.T) {
	_, ts := newTestServer(t)
	gets := []string{
		"/node/dout?design=nope",
		"/critical?design=nope",
		"/devices?design=nope",
		"/verify?design=nope",
	}
	for _, route := range gets {
		getJSON(t, ts.URL+route, http.StatusNotFound, nil)
	}
	posts := []string{"/delta?design=nope", "/full?design=nope"}
	for _, route := range posts {
		postJSON(t, ts.URL+route, `[{"op":"resize","id":1,"w":8}]`, http.StatusNotFound, nil)
	}
	// Unknown node on a known design is also 404.
	getJSON(t, ts.URL+"/node/zz_missing", http.StatusNotFound, nil)
}

// TestOversizedBodies413: bodies over the configured caps are rejected
// with 413, on /load and /delta both.
func TestOversizedBodies413(t *testing.T) {
	_, ts := newTunedServer(t, func(c *Config) {
		c.MaxLoadBytes = 512
		c.MaxDeltaBytes = 128
	})
	big := strings.Repeat("| padding line\n", 200) // ~2.8 KB of comments
	postJSON(t, ts.URL+"/load?name=big", big, http.StatusRequestEntityTooLarge, nil)
	// The cap cuts a device record in two; the fragment is not a record.
	devices := strings.Repeat("e g a gnd 4 8\n", 100)
	postJSON(t, ts.URL+"/load?name=big", devices, http.StatusRequestEntityTooLarge, nil)

	deltas := `[` + strings.Repeat(`{"op":"resize","id":1,"w":8},`, 20) + `{"op":"resize","id":1,"w":8}]`
	postJSON(t, ts.URL+"/delta", deltas, http.StatusRequestEntityTooLarge, nil)
}

// TestTruncatedDeltaJSON400: a delta body cut off mid-array is malformed
// input (400), never a 500.
func TestTruncatedDeltaJSON400(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`[{"op":"resize","id":1,`,
		`[{"op":"resize"`,
		`[`,
		``,
		`{"not":"an array"}`,
		`[{"op":"resize","unknown_field":1}]`,
	} {
		postJSON(t, ts.URL+"/delta", body, http.StatusBadRequest, nil)
	}
}

// TestSheddingWhenSaturated: with every admission slot held, analysis
// routes shed immediately with 503 + Retry-After; query routes and health
// stay served. Slots freed, the same request succeeds.
func TestSheddingWhenSaturated(t *testing.T) {
	s, ts := newTunedServer(t, func(c *Config) {
		c.MaxInflight = 2
		c.Obs = obs.NewObs()
	})
	// Occupy both slots directly — deterministic saturation, no timing.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}

	resp, err := http.Post(ts.URL+"/delta", "application/json",
		strings.NewReader(`[{"op":"resize","id":1,"w":8}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /delta = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After header")
	}
	// Non-analysis routes are not shed.
	getJSON(t, ts.URL+"/stats", http.StatusOK, nil)
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	getJSON(t, ts.URL+"/node/dout", http.StatusOK, nil)

	<-s.inflight
	<-s.inflight
	var devs []incr.DeviceInfo
	getJSON(t, ts.URL+"/devices", http.StatusOK, &devs)
	postJSON(t, ts.URL+"/delta",
		fmt.Sprintf(`[{"op":"resize","id":%d,"w":9}]`, devs[0].ID), http.StatusOK, nil)

	if !strings.Contains(scrape(t, ts.URL), "tvd_shed_total 1") {
		t.Fatal("tvd_shed_total not exported")
	}
}

// TestPanicRecoveryKeepsServing: an injected panic mid-apply becomes a
// 500, increments tvd_panics_total, and the daemon keeps serving with the
// session rolled back to a state that passes /verify.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	defer faultpoint.Reset()
	_, ts := newTunedServer(t, func(c *Config) { c.Obs = obs.NewObs() })

	var devs []incr.DeviceInfo
	getJSON(t, ts.URL+"/devices", http.StatusOK, &devs)
	faultpoint.Arm("incr.apply.analyze", faultpoint.Action{Panic: true, Count: 1})
	postJSON(t, ts.URL+"/delta",
		fmt.Sprintf(`[{"op":"resize","id":%d,"w":12}]`, devs[0].ID), http.StatusInternalServerError, nil)
	faultpoint.Reset()

	if !strings.Contains(scrape(t, ts.URL), "tvd_panics_total 1") {
		t.Fatal("tvd_panics_total not exported")
	}
	var vb verifyBody
	getJSON(t, ts.URL+"/verify", http.StatusOK, &vb)
	if !vb.OK {
		t.Fatalf("session failed SelfCheck after panic rollback: %+v", vb)
	}
	// And the same delta works once the fault is gone.
	postJSON(t, ts.URL+"/delta",
		fmt.Sprintf(`[{"op":"resize","id":%d,"w":12}]`, devs[0].ID), http.StatusOK, nil)
}

// TestHealthzReadyzDrain: liveness stays 200 across a drain; readiness
// flips to 503 the moment BeginDrain is called.
func TestHealthzReadyzDrain(t *testing.T) {
	s, ts := newTestServer(t)
	var hb healthBody
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &hb)
	if !hb.OK || hb.State != "serving" {
		t.Fatalf("healthz = %+v", hb)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, nil)

	s.BeginDrain()
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable, &hb)
	if hb.State != "draining" {
		t.Fatalf("draining readyz = %+v", hb)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &hb)
	if !hb.OK || hb.State != "draining" {
		t.Fatalf("draining healthz = %+v", hb)
	}
	// Existing designs keep serving while draining.
	getJSON(t, ts.URL+"/node/dout", http.StatusOK, nil)
}

// TestLRUEviction: the registry cap evicts the least-recently-used
// design; touching a design protects it.
func TestLRUEviction(t *testing.T) {
	_, ts := newTunedServer(t, func(c *Config) {
		c.MaxDesigns = 2
		c.Obs = obs.NewObs()
	})
	sim := chainSim(t, 4)
	postJSON(t, ts.URL+"/load?name=alpha", sim, http.StatusOK, nil)
	// Registry now {tutorial, alpha}; touch tutorial so alpha is LRU.
	getJSON(t, ts.URL+"/node/dout?design=tutorial", http.StatusOK, nil)

	postJSON(t, ts.URL+"/load?name=beta", sim, http.StatusOK, nil)
	var sb statsBody
	getJSON(t, ts.URL+"/stats", http.StatusOK, &sb)
	if sb.Designs != 2 {
		t.Fatalf("designs = %d, want 2 (cap)", sb.Designs)
	}
	if _, alive := sb.PerDesign["tutorial"]; !alive {
		t.Fatalf("recently used design evicted: %+v", sb.Names)
	}
	if _, alive := sb.PerDesign["alpha"]; alive {
		t.Fatalf("LRU design survived: %+v", sb.Names)
	}
	getJSON(t, ts.URL+"/node/dout?design=alpha", http.StatusNotFound, nil)
	if !strings.Contains(scrape(t, ts.URL), "tvd_sessions_evicted_total 1") {
		t.Fatal("tvd_sessions_evicted_total not exported")
	}
}

// TestDeltaClientTimeoutAbortsAndRollsBack is the PR's acceptance test:
// a client that gives up mid-analysis cancels the request context, the
// wavefront walk aborts (observed via the level fault point), the batch
// rolls back, and the previously published result still passes /verify.
func TestDeltaClientTimeoutAbortsAndRollsBack(t *testing.T) {
	defer faultpoint.Reset()
	_, ts := newTunedServer(t, nil)
	postJSON(t, ts.URL+"/load?name=chain", chainSim(t, 64), http.StatusOK, nil)

	var devs []incr.DeviceInfo
	getJSON(t, ts.URL+"/devices?design=chain", http.StatusOK, &devs)
	target := devs[len(devs)/2]

	// An incremental pass polls the level fault point only at the levels
	// it relaxes. Resizing the middle stage relaxes the rest of the
	// chain, ≥32 levels in each forward pass: ≥64 level hits × 3 ms ≫
	// the client's 50 ms budget, so the walk cannot finish before the
	// client hangs up.
	faultpoint.Arm("core.propagate.level", faultpoint.Action{Delay: 3 * time.Millisecond})
	client := &http.Client{Timeout: 50 * time.Millisecond}
	_, err := client.Post(ts.URL+"/delta?design=chain", "application/json",
		strings.NewReader(fmt.Sprintf(`[{"op":"resize","id":%d,"w":%g}]`, target.ID, target.W*3)))
	if err == nil {
		t.Fatal("client did not time out; fault delay too short to abort mid-analysis")
	}
	// The client is gone, but on a loaded (or single-CPU) host the
	// server-side apply may not have reached the walk yet — disarming now
	// would let it sprint to a commit before the connection-close
	// cancellation propagates. Keep the faults armed until the walk has
	// demonstrably started, then let a session read queue behind the
	// apply's write lock so it has fully unwound before we disarm.
	deadline := time.Now().Add(5 * time.Second)
	for faultpoint.Hits("core.propagate.level") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never entered the wavefront walk")
		}
		time.Sleep(time.Millisecond)
	}
	getJSON(t, ts.URL+"/critical?design=chain", http.StatusOK, nil)
	faultpoint.Reset()
	if faultpoint.Hits("core.propagate.level") != 0 {
		t.Fatal("Reset did not clear the fault point")
	}

	// /verify serializes behind the aborting Apply (write lock), so this
	// also waits out the rollback.
	var vb verifyBody
	getJSON(t, ts.URL+"/verify?design=chain", http.StatusOK, &vb)
	if !vb.OK {
		t.Fatalf("session failed SelfCheck after canceled delta: %+v", vb)
	}
	getJSON(t, ts.URL+"/devices?design=chain", http.StatusOK, &devs)
	if got := devs[len(devs)/2].W; got != target.W {
		t.Fatalf("canceled resize persisted: W=%v, want %v", got, target.W)
	}
}

// TestLoadClientDisconnectMidBody: a client that dies mid-upload must not
// corrupt the registry or kill the daemon; the partial design is not
// registered.
func TestLoadClientDisconnectMidBody(t *testing.T) {
	_, ts := newTestServer(t)
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	// Promise 1 MB, deliver a fragment, vanish.
	fmt.Fprintf(conn, "POST /load?name=ghost HTTP/1.1\r\nHost: %s\r\nContent-Type: text/plain\r\nContent-Length: 1048576\r\n\r\n", u.Host)
	fmt.Fprintf(conn, "e in out gnd 4 2\ne ")
	conn.Close()

	// The daemon keeps serving and never registered the half-loaded design.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var sb statsBody
		getJSON(t, ts.URL+"/stats", http.StatusOK, &sb)
		if _, ghost := sb.PerDesign["ghost"]; !ghost {
			if sb.Designs != 1 {
				t.Fatalf("designs = %d, want 1", sb.Designs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("half-uploaded design was registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	getJSON(t, ts.URL+"/node/dout", http.StatusOK, nil)
}
