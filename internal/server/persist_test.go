package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/faultpoint"
	"nmostv/internal/incr"
	"nmostv/internal/obs"
	"nmostv/internal/snapshot"
	"nmostv/internal/tech"
	"nmostv/internal/tverr"
)

func durableConfig(dir string, maxDesigns int) Config {
	return Config{
		Params:     tech.Default(),
		Sched:      clocks.TwoPhase(1000, 0.8),
		Workers:    1,
		MaxDesigns: maxDesigns,
		StateDir:   dir,
		Obs:        obs.NewObs(),
	}
}

func loadChain(t *testing.T, s *Server, name string, n int) *incr.Session {
	t.Helper()
	sess, err := s.Load(context.Background(), name, strings.NewReader(chainSim(t, n)))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return sess
}

func resizeBody(t *testing.T, ts *httptest.Server, design string, w float64) string {
	t.Helper()
	var devs []incr.DeviceInfo
	getJSON(t, ts.URL+"/devices?design="+design, http.StatusOK, &devs)
	return fmt.Sprintf(`[{"op":"resize","id":%d,"w":%g}]`, devs[len(devs)/2].ID, w)
}

// TestEvictToSnapshotAndRehydrate: with durability on, eviction unloads
// the session to disk and the next touch rebuilds it — same version,
// bit-identical under /verify — instead of forgetting the design.
func TestEvictToSnapshotAndRehydrate(t *testing.T) {
	s := New(durableConfig(t.TempDir(), 1))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	loadChain(t, s, "a", 8)
	var st incr.Stats
	postJSON(t, ts.URL+"/delta?design=a", resizeBody(t, ts, "a", 9), http.StatusOK, &st)
	wantVersion := st.Version

	// Loading b over the cap evicts a — to disk, not to oblivion.
	loadChain(t, s, "b", 6)
	var sb statsBody
	getJSON(t, ts.URL+"/stats", http.StatusOK, &sb)
	pa, ok := sb.Persist["a"]
	if !ok || !pa.Cold {
		t.Fatalf("design a not cold after eviction: %+v", sb.Persist)
	}
	if sb.Persisted != 2 {
		t.Fatalf("persisted = %d, want 2", sb.Persisted)
	}

	// First touch rehydrates; the journaled delta is part of the state.
	var devs []incr.DeviceInfo
	getJSON(t, ts.URL+"/devices?design=a", http.StatusOK, &devs)
	getJSON(t, ts.URL+"/stats", http.StatusOK, &sb)
	if sb.PerDesign["a"].Last.Version != wantVersion {
		t.Fatalf("rehydrated version %d, want %d", sb.PerDesign["a"].Last.Version, wantVersion)
	}
	var vb verifyBody
	getJSON(t, ts.URL+"/verify?design=a", http.StatusOK, &vb)
	if !vb.OK {
		t.Fatalf("rehydrated design fails verify: %+v", vb)
	}
}

// TestPinnedStreamSurvivesEviction is the mid-flight regression: a long
// /paths stream holds the session while another load marks it for
// eviction. The stream must finish on the live session; the eviction runs
// on the stream's release, not under it.
func TestPinnedStreamSurvivesEviction(t *testing.T) {
	s := New(durableConfig(t.TempDir(), 1))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	loadChain(t, s, "a", 10)

	resp, err := http.Get(ts.URL + "/paths?design=a&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first streamed path: %v", err)
	}

	// Mid-stream, b evicts a. The entry must be pinned, not unloaded.
	loadChain(t, s, "b", 6)

	lines := 1
	for {
		if _, err := br.ReadString('\n'); err != nil {
			break
		}
		lines++
	}
	if lines == 1 {
		t.Fatal("stream died after the concurrent eviction")
	}

	// With the stream closed, the deferred eviction completes: a goes
	// cold (the release runs when the handler returns, so poll briefly).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sb statsBody
		getJSON(t, ts.URL+"/stats", http.StatusOK, &sb)
		if pa, ok := sb.Persist["a"]; ok && pa.Cold {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eviction never completed after stream release")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And a still rehydrates on demand.
	var vb verifyBody
	getJSON(t, ts.URL+"/verify?design=a", http.StatusOK, &vb)
	if !vb.OK {
		t.Fatalf("post-eviction verify: %+v", vb)
	}
}

// TestWarmRestart: a new server over the same state dir recovers every
// design — snapshot plus journaled batches — and reports `restoring` on
// /readyz only while the rehydration is in flight.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := New(durableConfig(dir, 4))
	ts1 := httptest.NewServer(s1.Handler())

	loadChain(t, s1, "a", 8)
	loadChain(t, s1, "b", 5)
	var st incr.Stats
	postJSON(t, ts1.URL+"/delta?design=a", resizeBody(t, ts1, "a", 10), http.StatusOK, &st)
	postJSON(t, ts1.URL+"/delta?design=a", resizeBody(t, ts1, "a", 6), http.StatusOK, &st)
	wantVersion := st.Version
	ts1.Close()
	// No SnapshotAll, no journal handoff: this is the crash shape. The
	// journal files hold the two batches; the snapshots hold version 1.

	s2 := New(durableConfig(dir, 4))
	if err := s2.WarmRestart(context.Background()); err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	var sb statsBody
	getJSON(t, ts2.URL+"/stats", http.StatusOK, &sb)
	if got := sb.PerDesign["a"].Last.Version; got != wantVersion {
		t.Fatalf("recovered a at version %d, want %d", got, wantVersion)
	}
	if sb.PerDesign["b"].Last.Version != 1 {
		t.Fatalf("recovered b at version %d, want 1", sb.PerDesign["b"].Last.Version)
	}
	for _, name := range []string{"a", "b"} {
		var vb verifyBody
		getJSON(t, ts2.URL+"/verify?design="+name, http.StatusOK, &vb)
		if !vb.OK {
			t.Fatalf("recovered %s fails verify: %+v", name, vb)
		}
	}
}

// TestWarmRestartReadyz: /readyz is 503 "restoring" while WarmRestart
// runs and 200 after.
func TestWarmRestartReadyz(t *testing.T) {
	dir := t.TempDir()
	s1 := New(durableConfig(dir, 4))
	loadChain(t, s1, "a", 6)

	s2 := New(durableConfig(dir, 4))
	s2.restoring.Store(true) // what WarmRestart sets while running
	ts := httptest.NewServer(s2.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("readyz while restoring: %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	s2.restoring.Store(false)
	if err := s2.WarmRestart(context.Background()); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, nil)
	getJSON(t, ts.URL+"/node/in?design=a", http.StatusOK, nil)
}

// TestWarmRestartTornJournal: garbage appended to a journal (the torn
// tail a kill -9 leaves) costs at most the uncommitted suffix — recovery
// still lands on the last committed batch.
func TestWarmRestartTornJournal(t *testing.T) {
	dir := t.TempDir()
	s1 := New(durableConfig(dir, 4))
	ts1 := httptest.NewServer(s1.Handler())
	loadChain(t, s1, "a", 8)
	var st incr.Stats
	postJSON(t, ts1.URL+"/delta?design=a", resizeBody(t, ts1, "a", 12), http.StatusOK, &st)
	ts1.Close()

	jpath := filepath.Join(dir, "a", "journal.tvwal")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\xde\xad torn half-record \xbe\xef")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := New(durableConfig(dir, 4))
	if err := s2.WarmRestart(context.Background()); err != nil {
		t.Fatalf("warm restart over torn journal: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	var sb statsBody
	getJSON(t, ts2.URL+"/stats", http.StatusOK, &sb)
	if got := sb.PerDesign["a"].Last.Version; got != st.Version {
		t.Fatalf("recovered version %d, want %d", got, st.Version)
	}
	var vb verifyBody
	getJSON(t, ts2.URL+"/verify?design=a", http.StatusOK, &vb)
	if !vb.OK {
		t.Fatalf("verify after torn-tail recovery: %+v", vb)
	}
}

// TestReplayFaultSurfacesTyped: an injected failure on the replay fault
// point must surface as a mapped HTTP error on the touch that triggered
// rehydration — and succeed once the fault clears (no poisoned entry).
func TestReplayFaultSurfacesTyped(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	s1 := New(durableConfig(dir, 4))
	ts1 := httptest.NewServer(s1.Handler())
	loadChain(t, s1, "a", 6)
	var st incr.Stats
	postJSON(t, ts1.URL+"/delta?design=a", resizeBody(t, ts1, "a", 9), http.StatusOK, &st)
	ts1.Close()

	// Two injected failures: one for the warm restart's hydration (the
	// design stays registered but cold), one for the first HTTP touch.
	faultpoint.Arm(FaultReplay, faultpoint.Action{Err: faultpoint.ErrInjected, Count: 2})
	s2 := New(durableConfig(dir, 4))
	if err := s2.WarmRestart(context.Background()); err == nil {
		t.Fatal("warm restart with poisoned replay reported success")
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	resp, err := http.Get(ts2.URL + "/devices?design=a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("poisoned replay answered %d, want 5xx", resp.StatusCode)
	}
	// Fault exhausted: the design recovers on the next touch — a failed
	// rehydration never poisons the entry.
	getJSON(t, ts2.URL+"/devices?design=a", http.StatusOK, nil)
	var sb statsBody
	getJSON(t, ts2.URL+"/stats", http.StatusOK, &sb)
	if got := sb.PerDesign["a"].Last.Version; got != st.Version {
		t.Fatalf("recovered version %d, want %d", got, st.Version)
	}
}

// entryState reads an entry's registry fields the way the protocol lets
// a reader: under Server.mu alone.
func entryState(s *Server, name string) (e *regEntry, sess *incr.Session, evict bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e = s.sessions[name]; e != nil {
		sess, evict = e.sess, e.evict
	}
	return e, sess, evict
}

// TestCommitRefusesDetachedSession: commit must reject a session that is
// no longer the entry's registered one. A pinned session can still be
// replaced by a concurrent /load, and a released one can be evicted
// before a stale commit reaches the entry lock. Applying the batch anyway
// would return 200 for a write that the next rehydrate silently drops.
func TestCommitRefusesDetachedSession(t *testing.T) {
	ctx := context.Background()
	s := New(durableConfig(t.TempDir(), 1))
	loadChain(t, s, "a", 6)
	refused := func(e *regEntry, sess *incr.Session, shape string) {
		t.Helper()
		_, err := s.commit(e, sess, batchFull, nil, func() (incr.Stats, error) {
			t.Fatalf("%s: commit ran its batch against a detached session", shape)
			return incr.Stats{}, nil
		})
		if tverr.KindOf(err) != tverr.Unavailable {
			t.Fatalf("%s: commit on detached session: err %v, want Unavailable", shape, err)
		}
	}

	// A /load replaces the session the request still pins.
	e, sess, release, err := s.acquireName(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	loadChain(t, s, "a", 6)
	refused(e, sess, "reload")
	release()

	// Loading b over the cap marks a while a request pins it; the last
	// release finishes the eviction, detaching the session.
	e, sess, release, err = s.acquireName(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	loadChain(t, s, "b", 6)
	release()
	if _, live, _ := entryState(s, "a"); live != nil {
		t.Fatal("eviction did not unload the session")
	}
	refused(e, sess, "eviction")
}

// TestEvictRollsBackOnRacingPin reproduces the lost-write race
// deterministically: a page-in of a evicts b, and while the eviction is
// inside b's snapshot write (an armed delay on the section fault point
// holds it in exactly that window) a request acquires b. The
// post-snapshot check must see the racer's pin and keep b resident, so
// the racer's session stays the registered one and its commits journal
// rather than vanish.
func TestEvictRollsBackOnRacingPin(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	s := New(durableConfig(t.TempDir(), 1))
	loadChain(t, s, "a", 6)
	sess := loadChain(t, s, "b", 6) // a goes cold

	faultpoint.Arm(snapshot.FaultSection,
		faultpoint.Action{Delay: 300 * time.Millisecond, Count: 1})
	pageIn := make(chan func(), 1)
	go func() {
		_, _, release, err := s.acquireName(ctx, "a") // rehydrates a, evicts b
		if err != nil {
			t.Error(err)
			release = func() {}
		}
		pageIn <- release
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faultpoint.Hits(snapshot.FaultSection) == 0 { // until b's eviction is mid-snapshot
		if time.Now().After(deadline) {
			t.Fatal("the page-in of a never started evicting b")
		}
		time.Sleep(time.Millisecond)
	}
	e, racer, release, err := s.acquireName(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	(<-pageIn)()

	_, live, evict := entryState(s, "b")
	if racer != sess || live != sess {
		t.Fatal("eviction unloaded a pinned session")
	}
	if evict {
		t.Fatal("rollback left the evict mark set")
	}
	// The kept session still commits — and journals — normally.
	if _, err := s.commit(e, sess, batchFull, nil, func() (incr.Stats, error) {
		return sess.Full(ctx)
	}); err != nil {
		t.Fatalf("commit after rollback: %v", err)
	}
	release()
}

// TestEvictKeepsMarkOfPinnedVictim: a victim re-marked while a request
// pins it keeps its mark through the post-snapshot check, so the last
// release finishes the eviction. While a page-in of a is mid-snapshot
// evicting b, a racer pins b (canceling the mark, which marks a), and a
// second touch of a re-marks b. Clearing b's mark there would leave both
// designs resident over the cap of one.
func TestEvictKeepsMarkOfPinnedVictim(t *testing.T) {
	defer faultpoint.Reset()
	ctx := context.Background()
	s := New(durableConfig(t.TempDir(), 1))
	loadChain(t, s, "a", 6)
	loadChain(t, s, "b", 6) // a goes cold

	faultpoint.Arm(snapshot.FaultSection,
		faultpoint.Action{Delay: 300 * time.Millisecond, Count: 1})
	pageIn := make(chan func(), 1)
	go func() {
		_, _, release, err := s.acquireName(ctx, "a") // rehydrates a, evicts b
		if err != nil {
			t.Error(err)
			release = func() {}
		}
		pageIn <- release
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faultpoint.Hits(snapshot.FaultSection) == 0 { // until b's eviction is mid-snapshot
		if time.Now().After(deadline) {
			t.Fatal("the page-in of a never started evicting b")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, releaseB, err := s.acquireName(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	_, _, releaseA, err := s.acquireName(ctx, "a") // re-marks b, still pinned
	if err != nil {
		t.Fatal(err)
	}
	releaseA()
	(<-pageIn)()

	if _, live, evict := entryState(s, "b"); live == nil || !evict {
		t.Fatalf("pinned victim b: resident %v, marked %v; want resident and marked", live != nil, evict)
	}
	releaseB() // last pin out finishes b's eviction
	if _, live, _ := entryState(s, "b"); live != nil {
		t.Fatal("the last release of b did not finish its kept eviction")
	}
	if _, live, _ := entryState(s, "a"); live == nil {
		t.Fatal("a is not resident")
	}
}

// TestEvictDeferredWhilePinned: an entry that is pinned when finishEvict
// runs is left marked, never unloaded; the last release completes the
// eviction — to cold with durability on, out of the registry without.
func TestEvictDeferredWhilePinned(t *testing.T) {
	ctx := context.Background()
	for _, durable := range []bool{true, false} {
		cfg := durableConfig(t.TempDir(), 1)
		if !durable {
			cfg.StateDir = ""
		}
		s := New(cfg)
		sess := loadChain(t, s, "a", 6)
		e, _, release, err := s.acquireName(ctx, "a")
		if err != nil {
			t.Fatal(err)
		}

		loadChain(t, s, "b", 6) // over the cap: marks a, which is pinned
		s.finishEvict(e)
		_, live, evict := entryState(s, "a")
		if live != sess {
			t.Fatalf("durable=%v: eviction unloaded a pinned session", durable)
		}
		if !evict {
			t.Fatalf("durable=%v: deferred eviction lost its mark", durable)
		}

		release() // last pin out finishes the eviction
		if e.sess != nil {
			t.Fatalf("durable=%v: eviction did not run on last release", durable)
		}
		registered, _, _ := entryState(s, "a")
		if durable && registered != e {
			t.Fatal("durable: evicted entry left the registry")
		}
		if !durable {
			if _, _, _, err := s.acquireName(ctx, "a"); registered != nil || tverr.KindOf(err) != tverr.NotFound {
				t.Fatalf("no store: evicted entry still registered (err %v)", err)
			}
		}
	}
}

// TestHydrateKeepsLiveSession: hydrate on an entry that already has a
// live session (a concurrent /load or lazy rehydrate won) must be a
// no-op — clobbering it would drop committed in-memory state and leak
// the open journal handle.
func TestHydrateKeepsLiveSession(t *testing.T) {
	s := New(durableConfig(t.TempDir(), 4))
	sess := loadChain(t, s, "a", 6)
	e, _, _ := entryState(s, "a")
	e.mu.Lock()
	j := e.journal
	err := s.hydrate(context.Background(), e)
	same := e.sess == sess && e.journal == j
	e.mu.Unlock()
	if err != nil || !same {
		t.Fatalf("hydrate over live session: err=%v, session/journal replaced=%v", err, !same)
	}
}

// TestBeginRestoreFlipsReadyzEarly: BeginRestore marks restoring before
// WarmRestart's scan begins, and WarmRestart clears it on every path —
// including the empty-state-dir early return.
func TestBeginRestoreFlipsReadyzEarly(t *testing.T) {
	s := New(durableConfig(t.TempDir(), 4))
	s.BeginRestore()
	if !s.restoring.Load() {
		t.Fatal("BeginRestore did not mark restoring")
	}
	if err := s.WarmRestart(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.restoring.Load() {
		t.Fatal("WarmRestart left restoring set after the empty-dir return")
	}
	// Without a store the flag must not stick (WarmRestart would never
	// clear it).
	s2 := New(Config{Params: tech.Default(), Sched: clocks.TwoPhase(1000, 0.8), Workers: 1})
	s2.BeginRestore()
	if s2.restoring.Load() {
		t.Fatal("BeginRestore set restoring with durability off")
	}
}

// TestAppendJournalFallsBackWithoutJournal: a design whose journal never
// opened (degraded load) must still persist every committed batch via
// the snapshot fallback — never a silent unjournaled 200.
func TestAppendJournalFallsBackWithoutJournal(t *testing.T) {
	s := New(durableConfig(t.TempDir(), 4))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// A directory where the journal file belongs fails the load's journal
	// open: the degraded shape, store on and journal gone.
	jpath := s.store.JournalPath("a")
	if err := os.MkdirAll(jpath, 0o755); err != nil {
		t.Fatal(err)
	}
	loadChain(t, s, "a", 6)

	var st incr.Stats
	postJSON(t, ts.URL+"/delta?design=a", resizeBody(t, ts, "a", 9), http.StatusOK, &st)
	var sb statsBody
	getJSON(t, ts.URL+"/stats", http.StatusOK, &sb)
	if got := sb.Persist["a"].SnapshotSeq; got != st.Version {
		t.Fatalf("snapshot fallback did not persist the batch: snapSeq %d, want %d", got, st.Version)
	}

	// The snapshot is the real thing: a fresh server recovers the batch.
	ts.Close()
	if err := os.Remove(jpath); err != nil {
		t.Fatal(err)
	}
	s2 := New(durableConfig(s.cfg.StateDir, 4))
	if err := s2.WarmRestart(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	getJSON(t, ts2.URL+"/stats", http.StatusOK, &sb)
	if got := sb.PerDesign["a"].Last.Version; got != st.Version {
		t.Fatalf("recovered version %d, want %d", got, st.Version)
	}
}

// TestRehydrateRespectsCap: every transition that makes a design resident
// runs the LRU pass, so -max-designs bounds resident sessions after
// page-ins and warm restarts too, not only after loads.
func TestRehydrateRespectsCap(t *testing.T) {
	ctx := context.Background()
	want := func(t *testing.T, s *Server, names ...string) {
		t.Helper()
		var got []string
		for _, name := range []string{"a", "b", "c"} {
			if _, live, _ := entryState(s, name); live != nil {
				got = append(got, name)
			}
		}
		if !slices.Equal(got, names) {
			t.Fatalf("resident %v, want %v", got, names)
		}
	}

	t.Run("page-in", func(t *testing.T) {
		// Touching the cold a pages it in and c out.
		s := New(durableConfig(t.TempDir(), 1))
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		for _, name := range []string{"a", "b", "c"} {
			loadChain(t, s, name, 6)
		}
		getJSON(t, ts.URL+"/devices?design=a", http.StatusOK, nil)
		want(t, s, "a")
	})

	t.Run("canceled mark", func(t *testing.T) {
		// b's load marks a while a request pins it; touching a again
		// cancels the mark and evicts b instead.
		s := New(durableConfig(t.TempDir(), 1))
		loadChain(t, s, "a", 6)
		_, _, release, err := s.acquireName(ctx, "a")
		if err != nil {
			t.Fatal(err)
		}
		loadChain(t, s, "b", 6)
		_, _, release2, err := s.acquireName(ctx, "a")
		if err != nil {
			t.Fatal(err)
		}
		release()
		release2()
		want(t, s, "a")
	})

	t.Run("warm restart", func(t *testing.T) {
		// With a preloaded a filling the cap, the persisted b stays cold.
		dir := t.TempDir()
		loadChain(t, New(durableConfig(dir, 4)), "b", 6)
		s := New(durableConfig(dir, 1))
		loadChain(t, s, "a", 6)
		if err := s.WarmRestart(ctx); err != nil {
			t.Fatal(err)
		}
		want(t, s, "a")
	})
}

// TestEvictionWithoutStoreStillDrops: durability off keeps the seed
// behavior — eviction removes the design and a later query is a 404.
func TestEvictionWithoutStoreStillDrops(t *testing.T) {
	s := New(Config{
		Params:     tech.Default(),
		Sched:      clocks.TwoPhase(1000, 0.8),
		Workers:    1,
		MaxDesigns: 1,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	loadChain(t, s, "a", 6)
	loadChain(t, s, "b", 6)
	getJSON(t, ts.URL+"/devices?design=a", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/devices?design=b", http.StatusOK, nil)
}
