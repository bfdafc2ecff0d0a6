package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nmostv/internal/clocks"
	"nmostv/internal/faultpoint"
	"nmostv/internal/incr"
	"nmostv/internal/simfile"
	"nmostv/internal/snapshot"
	"nmostv/internal/tech"
)

// The registry checker runs seeded schedules against the daemon and a
// reference model. The model is what clients were told: for every design,
// the batches answered 200 since its last load, by the version each one
// published. A schedule is a series of rounds. In a round's phase three
// clients run concurrently: writes (/delta, /full), reads (/slack) and
// /paths streams held open across the client's next ops, over four
// designs under a cap of two, so nearly every touch pages a design in and
// another out. A serial barrier ends each round. It checks the invariants
// below, then reloads a design, snapshots everything, or crashes: the
// Server is dropped without a drain, one journal tail may be scarred with
// garbage, and a new Server warm-restarts from the same state dir.
//
// Invariants, at every barrier:
//   - resident designs ≤ MaxDesigns, before and after the barrier touches
//     every design;
//   - acknowledged versions are unique and contiguous from the load;
//   - every design's session is bitwise equal (Float64bits of every
//     arrival array, base and corners) to a fresh incr.New that replays
//     exactly the acknowledged batches in version order, so every batch
//     answered 200 survived eviction, crash and restart;
//   - /verify is ok;
//   - no write answers anything but 200. Loads of a design run only at
//     barriers or on the one client that owns the design for the phase,
//     so no load races a write of the same design, and commit's identity
//     check has no reason to answer 503.
//
// Without durability eviction drops designs, so writes and reads may also
// answer 404. The variant checks the cap, /verify, the bitwise model for
// registered designs, and that a dropped design answers 404 until a load
// brings it back.

const (
	checkCap     = 2 // MaxDesigns under check: half the designs fit
	checkClients = 3
)

// checkDesigns are the designs every schedule drives, inverter chains of
// distinct lengths.
var checkDesigns = []struct {
	name   string
	stages int
}{{"a", 6}, {"b", 8}, {"c", 10}, {"d", 12}}

// registryCheckSeeds are the fixed schedules the test suite replays, under
// -race in CI.
var registryCheckSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// chooser yields a schedule's choices: a seeded PRNG for the fixed seeds,
// the fuzzer's bytes for FuzzRegistrySchedule.
type chooser interface{ intn(n int) int }

type seededChooser struct{ r *rand.Rand }

func newSeededChooser(seed uint64) seededChooser {
	return seededChooser{rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

func (c seededChooser) intn(n int) int { return c.r.IntN(n) }

// byteChooser consumes one fuzz byte per choice and chooses 0 once the
// bytes run out.
type byteChooser struct{ b []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

type opKind int

const (
	opDelta opKind = iota
	opFull
	opSlack
	opPaths
	opLoad // only on the design the client owns for the phase
)

type clientOp struct {
	kind   opKind
	design string
	deltas []incr.Delta
	// hold is how many of the client's next ops a /paths stream stays
	// open across.
	hold int
}

type registryChecker struct {
	t       *testing.T
	durable bool
	cfg     Config
	pick    chooser
	s       *Server
	h       http.Handler

	sims    map[string]string
	devices map[string][]incr.DeviceInfo

	mu sync.Mutex
	// acked holds, per design, the batches answered 200 since its last
	// load, by published version.
	acked map[string]map[int64]journalBatch
	// gone records designs that answered 404 since the last barrier and
	// dropped those known to be out of the registry (durability off).
	gone, dropped map[string]bool
	errs          []string
}

func newRegistryChecker(t *testing.T, durable bool, pick chooser) *registryChecker {
	cfg := Config{
		Params:     tech.Default(),
		Sched:      clocks.TwoPhase(1000, 0.8),
		Workers:    1,
		Corners:    []tech.Corner{tech.Slow(), tech.Fast()},
		MaxDesigns: checkCap,
	}
	if durable {
		cfg.StateDir = t.TempDir()
	}
	ck := &registryChecker{
		t: t, durable: durable, cfg: cfg, pick: pick,
		sims:    map[string]string{},
		devices: map[string][]incr.DeviceInfo{},
		acked:   map[string]map[int64]journalBatch{},
		gone:    map[string]bool{},
		dropped: map[string]bool{},
	}
	ck.s = New(cfg)
	ck.h = ck.s.Handler()
	for _, d := range checkDesigns {
		ck.sims[d.name] = chainSim(t, d.stages)
		sess := ck.load(d.name)
		ck.fatalErrs("initial load")
		ck.devices[d.name] = sess.Devices()
	}
	return ck
}

// runRegistryCheck drives one schedule of the given number of rounds.
// Snapshot section writes are slowed so evictions stay mid-snapshot while
// other clients pin, touch and commit.
func runRegistryCheck(t *testing.T, durable bool, pick chooser, rounds int) {
	defer faultpoint.Reset()
	faultpoint.Arm(snapshot.FaultSection, faultpoint.Action{Delay: time.Millisecond})
	ck := newRegistryChecker(t, durable, pick)
	for round := 0; round < rounds; round++ {
		ck.phase(ck.schedule(4 + ck.pick.intn(5)))
		ck.barrier(fmt.Sprintf("round %d", round))
	}
}

func (ck *registryChecker) failf(format string, args ...any) {
	ck.mu.Lock()
	ck.errs = append(ck.errs, fmt.Sprintf(format, args...))
	ck.mu.Unlock()
}

func (ck *registryChecker) serve(method, target string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	ck.h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(string(body))))
	return rec.Code, rec.Body.Bytes()
}

// load (re)loads a design and resets its model: the new session starts
// at version 1 with nothing acknowledged.
func (ck *registryChecker) load(name string) *incr.Session {
	sess, err := ck.s.Load(context.Background(), name, strings.NewReader(ck.sims[name]))
	if err != nil {
		ck.failf("load %s: %v", name, err)
		return nil
	}
	ck.mu.Lock()
	ck.acked[name] = map[int64]journalBatch{}
	ck.gone[name], ck.dropped[name] = false, false
	ck.mu.Unlock()
	return sess
}

// schedule draws one phase: n ops per client. Sometimes client 0 owns a
// design for the phase: no other client touches it, and client 0 may
// reload it mid-phase, racing the other clients' pages and evictions.
func (ck *registryChecker) schedule(n int) [][]clientOp {
	owned := ""
	if ck.pick.intn(3) == 0 {
		owned = checkDesigns[ck.pick.intn(len(checkDesigns))].name
	}
	var all, others []string
	for _, d := range checkDesigns {
		all = append(all, d.name)
		if d.name != owned {
			others = append(others, d.name)
		}
	}
	ops := make([][]clientOp, checkClients)
	for c := range ops {
		pool := all
		if c > 0 {
			pool = others
		}
		for range n {
			d := pool[ck.pick.intn(len(pool))]
			op := clientOp{design: d}
			switch k := ck.pick.intn(9); {
			case k < 3:
				op.kind = opDelta
				op.deltas = ck.deltas(d)
			case k == 3:
				op.kind = opFull
			case k < 6:
				op.kind = opSlack
			case k < 8:
				op.kind = opPaths
				op.hold = 1 + ck.pick.intn(3)
			case d == owned:
				op.kind = opLoad
			default:
				op.kind = opSlack
			}
			ops[c] = append(ops[c], op)
		}
	}
	return ops
}

// deltas draws a valid batch of one or two resizes and setcaps.
func (ck *registryChecker) deltas(d string) []incr.Delta {
	devs := ck.devices[d]
	out := make([]incr.Delta, 1+ck.pick.intn(2))
	for i := range out {
		dev := devs[ck.pick.intn(len(devs))]
		if ck.pick.intn(3) == 0 {
			out[i] = incr.Delta{Op: "setcap", Node: dev.Gate, Cap: []float64{0.02, 0.05, 0.1}[ck.pick.intn(3)]}
		} else {
			out[i] = incr.Delta{Op: "resize", ID: dev.ID, W: []float64{4, 6, 8, 12}[ck.pick.intn(4)]}
		}
	}
	return out
}

// phase runs every client's ops concurrently and returns once each client
// has closed its streams and every handler has returned.
func (ck *registryChecker) phase(ops [][]clientOp) {
	var wg sync.WaitGroup
	for _, client := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ck.client(client)
		}()
	}
	wg.Wait()
}

// heldStream is a /paths request parked on its response header: the
// handler holds its pin until the client closes the stream.
type heldStream struct {
	hdr    http.Header
	code   int
	opened chan struct{}
	closed chan struct{}
	done   chan struct{}
	left   int
}

func (w *heldStream) Header() http.Header { return w.hdr }

func (w *heldStream) WriteHeader(code int) {
	w.code = code
	close(w.opened)
	<-w.closed
}

func (w *heldStream) Write(p []byte) (int, error) {
	return 0, errors.New("stream closed by client")
}

func (ck *registryChecker) client(ops []clientOp) {
	var streams []*heldStream
	shut := func(st *heldStream) {
		close(st.closed)
		<-st.done
	}
	for _, op := range ops {
		opened := ck.exec(op)
		keep := streams[:0]
		for _, st := range streams {
			if st.left--; st.left > 0 {
				keep = append(keep, st)
			} else {
				shut(st)
			}
		}
		streams = keep
		if opened != nil {
			streams = append(streams, opened)
		}
	}
	for _, st := range streams {
		shut(st)
	}
}

// exec runs one op; a /paths op returns its stream, still open.
func (ck *registryChecker) exec(op clientOp) *heldStream {
	q := "?design=" + op.design
	switch op.kind {
	case opDelta:
		body, _ := json.Marshal(op.deltas)
		code, resp := ck.serve(http.MethodPost, "/delta"+q, body)
		ck.noteWrite(op.design, journalBatch{Kind: batchDelta, Deltas: op.deltas}, code, resp)
	case opFull:
		code, resp := ck.serve(http.MethodPost, "/full"+q, nil)
		ck.noteWrite(op.design, journalBatch{Kind: batchFull}, code, resp)
	case opSlack:
		code, _ := ck.serve(http.MethodGet, "/slack"+q+"&k=3", nil)
		ck.noteRead("GET /slack", op.design, code)
	case opLoad:
		ck.load(op.design)
	case opPaths:
		st := &heldStream{
			hdr: http.Header{}, left: op.hold,
			opened: make(chan struct{}), closed: make(chan struct{}), done: make(chan struct{}),
		}
		go func() {
			defer close(st.done)
			ck.h.ServeHTTP(st, httptest.NewRequest(http.MethodGet, "/paths"+q+"&k=5", nil))
		}()
		<-st.opened
		ck.noteRead("GET /paths", op.design, st.code)
		return st
	}
	return nil
}

// noteWrite records a write's answer in the model.
func (ck *registryChecker) noteWrite(design string, b journalBatch, code int, body []byte) {
	switch {
	case code == http.StatusOK:
		var st incr.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			ck.failf("%s on %s: undecodable stats: %v", b.Kind, design, err)
			return
		}
		ck.mu.Lock()
		if _, dup := ck.acked[design][st.Version]; dup {
			ck.errs = append(ck.errs, fmt.Sprintf("%s: version %d acknowledged twice", design, st.Version))
		}
		ck.acked[design][st.Version] = b
		ck.mu.Unlock()
	case code == http.StatusNotFound && !ck.durable:
		ck.mu.Lock()
		ck.gone[design] = true
		ck.mu.Unlock()
	default:
		ck.failf("%s on %s answered %d with no load racing it: %s", b.Kind, design, code, body)
	}
}

func (ck *registryChecker) noteRead(route, design string, code int) {
	switch {
	case code == http.StatusOK:
	case code == http.StatusNotFound && !ck.durable:
		ck.mu.Lock()
		ck.gone[design] = true
		ck.mu.Unlock()
	default:
		ck.failf("%s on %s answered %d", route, design, code)
	}
}

func (ck *registryChecker) fatalErrs(where string) {
	ck.t.Helper()
	if len(ck.errs) > 0 {
		ck.t.Fatalf("%s:\n  %s", where, strings.Join(ck.errs, "\n  "))
	}
}

// barrier reloads a design, snapshots every session, or crashes and
// warm-restarts, and checks every invariant. The check touches every
// design, which pages each one through a snapshot, so it runs after a
// crash and before a reload: the crash must find the sessions as the
// phase left them.
func (ck *registryChecker) barrier(where string) {
	ck.t.Helper()
	actions := 2
	if ck.durable {
		actions = 4
	}
	switch ck.pick.intn(actions) {
	case 0:
		ck.check(where)
		ck.load(checkDesigns[ck.pick.intn(len(checkDesigns))].name)
		ck.fatalErrs(where + ", reload")
	case 1:
		if err := ck.s.SnapshotAll(context.Background()); err != nil {
			ck.t.Fatalf("%s: SnapshotAll: %v", where, err)
		}
		ck.check(where + ", after SnapshotAll")
	default:
		scar := ""
		if ck.pick.intn(2) == 0 {
			scar = checkDesigns[ck.pick.intn(len(checkDesigns))].name
		}
		ck.crash(where, scar)
		ck.check(where + ", after a crash and warm restart")
	}
}

// check asserts every invariant against the model.
func (ck *registryChecker) check(where string) {
	ck.t.Helper()
	ck.fatalErrs(where)
	ck.checkCap(where)
	for _, d := range checkDesigns {
		ck.checkDesign(d.name, where)
	}
	ck.checkCap(where + ", after the barrier touched every design")
	clear(ck.gone)
}

// residents counts the designs holding a session in memory.
func (ck *registryChecker) residents() int {
	code, body := ck.serve(http.MethodGet, "/stats", nil)
	var sb statsBody
	if code != http.StatusOK || json.Unmarshal(body, &sb) != nil {
		ck.t.Fatalf("GET /stats = %d: %s", code, body)
	}
	return len(sb.PerDesign)
}

func (ck *registryChecker) checkCap(where string) {
	ck.t.Helper()
	if n := ck.residents(); n > ck.cfg.MaxDesigns {
		ck.t.Fatalf("%s: %d designs resident, cap %d", where, n, ck.cfg.MaxDesigns)
	}
}

// checkDesign proves one design against the model: /verify, then the
// session bitwise equal to a fresh replay of the acknowledged batches.
func (ck *registryChecker) checkDesign(name, where string) {
	ck.t.Helper()
	code, body := ck.serve(http.MethodGet, "/verify?design="+name, nil)
	if !ck.durable {
		if code == http.StatusNotFound {
			ck.dropped[name] = true
			return
		}
		switch {
		case ck.dropped[name]:
			ck.t.Fatalf("%s: dropped design %s came back without a load (/verify %d)", where, name, code)
		case ck.gone[name]:
			ck.t.Fatalf("%s: %s answered 404 in the phase but is registered", where, name)
		}
	}
	var vb verifyBody
	if code != http.StatusOK || json.Unmarshal(body, &vb) != nil || !vb.OK {
		ck.t.Fatalf("%s: /verify?design=%s = %d: %s", where, name, code, body)
	}
	_, sess, release, err := ck.s.acquireName(context.Background(), name)
	if err != nil {
		ck.t.Fatalf("%s: acquire %s: %v", where, name, err)
	}
	got := sess.Export()
	release()
	if msg := sameSession(got, ck.replay(name, where)); msg != "" {
		ck.t.Fatalf("%s: design %s differs from its acknowledged batches: %s", where, name, msg)
	}
}

// replay is the model's session: a fresh incr.New of the design that
// re-applies exactly the acknowledged batches in version order.
func (ck *registryChecker) replay(name, where string) *snapshot.State {
	ck.t.Helper()
	ctx := context.Background()
	nl, err := simfile.Read(strings.NewReader(ck.sims[name]), name)
	if err != nil {
		ck.t.Fatal(err)
	}
	sess, err := incr.New(ctx, name, nl, ck.s.sessionOpts())
	if err != nil {
		ck.t.Fatal(err)
	}
	versions := make([]int64, 0, len(ck.acked[name]))
	for v := range ck.acked[name] {
		versions = append(versions, v)
	}
	slices.Sort(versions)
	for i, v := range versions {
		if v != int64(i)+2 {
			ck.t.Fatalf("%s: %s acknowledged versions %v are not contiguous from 2", where, name, versions)
		}
		b := ck.acked[name][v]
		var st incr.Stats
		if b.Kind == batchFull {
			st, err = sess.Full(ctx)
		} else {
			st, err = sess.Apply(ctx, b.Deltas)
		}
		if err != nil || st.Version != v {
			ck.t.Fatalf("%s: model replay of %s version %d: landed on %d, err %v", where, name, v, st.Version, err)
		}
	}
	return sess.Export()
}

// sameSession compares the published versions and every arrival array,
// base and per corner, bit for bit.
func sameSession(got, want *snapshot.State) string {
	if got.Seq != want.Seq || got.Applied != want.Applied {
		return fmt.Sprintf("version %d with %d deltas applied, model %d with %d", got.Seq, got.Applied, want.Seq, want.Applied)
	}
	if len(got.Corners) != len(want.Corners) {
		return fmt.Sprintf("%d corners, model %d", len(got.Corners), len(want.Corners))
	}
	type result struct {
		name      string
		got, want snapshot.ResultRec
	}
	results := []result{{"base", got.Base, want.Base}}
	for i, c := range got.Corners {
		results = append(results, result{c.Name, c.Res, want.Corners[i].Res})
	}
	arrays := func(r snapshot.ResultRec) [4][]float64 {
		return [4][]float64{r.RiseAt, r.FallAt, r.EarlyRise, r.EarlyFall}
	}
	for _, r := range results {
		g, w := arrays(r.got), arrays(r.want)
		for k, name := range [4]string{"RiseAt", "FallAt", "EarlyRise", "EarlyFall"} {
			if len(g[k]) != len(w[k]) {
				return fmt.Sprintf("%s %s has %d nodes, model %d", r.name, name, len(g[k]), len(w[k]))
			}
			for i := range g[k] {
				if math.Float64bits(g[k][i]) != math.Float64bits(w[k][i]) {
					return fmt.Sprintf("%s %s[%d] = %v, model %v", r.name, name, i, g[k][i], w[k][i])
				}
			}
		}
	}
	return ""
}

// crash drops the Server the way kill -9 does: no drain, no snapshot; the
// OS closes its files, and Append has already written every acknowledged
// record to them. scar, when set, names a design whose journal gets a torn
// tail. A new Server then warm-restarts from the same state dir.
func (ck *registryChecker) crash(where, scar string) {
	ck.t.Helper()
	ck.s.mu.Lock()
	entries := make([]*regEntry, 0, len(ck.s.sessions))
	for _, e := range ck.s.sessions {
		entries = append(entries, e)
	}
	ck.s.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		if e.journal != nil {
			e.journal.Close()
			e.journal = nil
		}
		e.mu.Unlock()
	}
	if scar != "" {
		f, err := os.OpenFile(ck.s.store.JournalPath(scar), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			ck.t.Fatal(err)
		}
		f.Write([]byte("\xde\xad torn tail \xbe\xef"))
		f.Close()
	}
	ck.s = New(ck.cfg)
	ck.h = ck.s.Handler()
	if err := ck.s.WarmRestart(context.Background()); err != nil {
		ck.t.Fatalf("%s: warm restart: %v", where, err)
	}
}

// TestRegistryCheck replays the fixed seeds with durability on. To replay
// one seed alone: go test -run 'TestRegistryCheck/seed=5$' ./internal/server
func TestRegistryCheck(t *testing.T) {
	for _, seed := range registryCheckSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRegistryCheck(t, true, newSeededChooser(seed), 12)
		})
	}
}

// TestRegistryCheckEvictDelta is the lost-write race as a fixed checker
// schedule: client 0 streams 25 deltas at a while client 1 reloads b 25
// times and client 2 pages c and d in, all over the cap, so a is marked,
// evicted and paged back under its writer again and again. The barrier
// then crashes without a drain, and the recovery must hold every
// acknowledged batch bit for bit, with no write refused.
func TestRegistryCheckEvictDelta(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Arm(snapshot.FaultSection, faultpoint.Action{Delay: time.Millisecond})
	ck := newRegistryChecker(t, true, newSeededChooser(25))
	dev := ck.devices["a"][len(ck.devices["a"])/2]
	ops := make([][]clientOp, checkClients)
	for i := range 25 {
		ops[0] = append(ops[0], clientOp{kind: opDelta, design: "a",
			deltas: []incr.Delta{{Op: "resize", ID: dev.ID, W: 9}}})
		ops[1] = append(ops[1], clientOp{kind: opLoad, design: "b"})
		ops[2] = append(ops[2], clientOp{kind: opSlack, design: []string{"c", "d"}[i%2]})
	}
	ck.phase(ops)
	ck.crash("evict-delta", "")
	ck.check("evict-delta, after a crash and warm restart")
}

// TestRegistryCheckNoDurability replays the fixed seeds with durability
// off: eviction drops designs, and a dropped design answers 404 until a
// load brings it back.
func TestRegistryCheckNoDurability(t *testing.T) {
	for _, seed := range registryCheckSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRegistryCheck(t, false, newSeededChooser(seed), 12)
		})
	}
}

// FuzzRegistrySchedule drives the checker from fuzz bytes: the first byte
// picks the durability mode, the rest every schedule choice.
func FuzzRegistrySchedule(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0, 7, 7, 7, 3, 3, 3, 6, 6, 6, 1, 2, 3})
	f.Add([]byte{0, 2, 0, 0, 8, 1, 8, 2, 8, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 || len(b) > 256 {
			t.Skip()
		}
		runRegistryCheck(t, b[0]%2 == 0, &byteChooser{b[1:]}, 3)
	})
}
