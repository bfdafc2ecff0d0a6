package incr

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"nmostv/internal/core"
	"nmostv/internal/cow"
	"nmostv/internal/netlist"
	"nmostv/internal/snapshot"
	"nmostv/internal/tverr"
)

// Session persistence. Export captures the session as a snapshot.State;
// Restore rebuilds a session from one. The restore path leans on the
// engine's determinism instead of persisting derived state: it re-runs
// the full analysis on the reconstructed netlist and then proves, bit
// for bit, that the result matches what the exporting session had
// published — stage fingerprints, base arrivals, and every corner. A
// snapshot that fails that proof (corrupt beyond what checksums catch,
// or written by an incompatible engine) is refused with tverr.Invalid
// rather than silently re-analyzed into different timing.

// Export captures the session's persistent state: the netlist exactly as
// edited, the analysis-configuration fingerprint, the stage fingerprints,
// and the published arrival arrays (base and per-corner). It shares the
// query read lock, so it can run concurrently with other queries but
// never sees a half-applied batch.
func (s *Session) Export() *snapshot.State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := &snapshot.State{
		Meta: snapshot.Meta{
			Name:        s.name,
			Seq:         s.seq,
			Applied:     int64(s.applied),
			ConfigFP:    configFingerprint(s.opt),
			CreatedUnix: time.Now().Unix(),
		},
		NextID: s.nl.NextID(),
	}
	st.Nodes = make([]snapshot.NodeRec, len(s.nl.Nodes))
	for i, n := range s.nl.Nodes {
		st.Nodes[i] = snapshot.NodeRec{
			Name:      n.Name,
			Cap:       n.Cap,
			Flags:     uint16(n.Flags),
			Phase:     int32(n.Phase),
			Exclusive: int32(n.Exclusive),
		}
	}
	for _, a := range s.nl.Aliases() {
		st.Aliases = append(st.Aliases, snapshot.AliasRec{Name: a.Name, Node: int32(a.Node.Index)})
	}
	st.Trans = make([]snapshot.TransRec, len(s.nl.Trans))
	for i, t := range s.nl.Trans {
		st.Trans[i] = snapshot.TransRec{
			ID:        t.ID,
			Kind:      uint8(t.Kind),
			Gate:      int32(t.Gate.Index),
			A:         int32(t.A.Index),
			B:         int32(t.B.Index),
			W:         t.W,
			L:         t.L,
			ForceFlow: uint8(t.ForceFlow),
		}
	}
	// The build that produced the published model fingerprinted (or kept
	// the fingerprint of) every stage; the snapshot owns its copy.
	st.StageFPs = s.pipe.Cache.Fingerprints()
	st.Base = resultRec(s.res)
	for _, c := range s.corners {
		st.Corners = append(st.Corners, snapshot.CornerRec{
			Name:   c.corner.Name,
			RScale: c.corner.RScale,
			CScale: c.corner.CScale,
			Res:    resultRec(c.res),
		})
	}
	return st
}

func resultRec(res *core.Result) snapshot.ResultRec {
	return snapshot.ResultRec{
		RiseAt:    res.RiseAt.Slice(),
		FallAt:    res.FallAt.Slice(),
		EarlyRise: res.EarlyRise.Slice(),
		EarlyFall: res.EarlyFall.Slice(),
	}
}

// Restore rebuilds a session from a decoded (and structurally validated)
// snapshot under the given options. The options must describe the same
// analysis configuration the snapshot was taken under — ConfigFP is
// checked first, before any work — and the re-analysis must reproduce
// the persisted results exactly. On success the session's publish
// sequence continues from the snapshot's, so journal replay and Diff
// version numbering line up with the pre-crash session.
func Restore(ctx context.Context, st *snapshot.State, opt Options) (*Session, error) {
	inv := func(format string, args ...any) error {
		return tverr.Errorf(tverr.Invalid, "incr.restore", format, args...)
	}
	if st.Seq < 1 || st.Applied < 0 {
		return nil, inv("snapshot of %q: sequence %d / applied %d out of range", st.Name, st.Seq, st.Applied)
	}
	if fp := configFingerprint(opt); fp != st.ConfigFP {
		return nil, inv("snapshot of %q was taken under a different analysis configuration (fingerprint %016x, this server %016x); restoring it would silently change timing", st.Name, st.ConfigFP, fp)
	}
	nl, err := rebuildNetlist(st)
	if err != nil {
		return nil, err
	}
	s, err := New(ctx, st.Name, nl, opt)
	if err != nil {
		return nil, err
	}

	// Determinism cross-check: the fresh analysis must reproduce the
	// exporting session's published state bit for bit. New's build
	// probed every stage of the rebuilt netlist, so the fingerprints its
	// cache retains were derived from scratch.
	fps := s.pipe.Cache.Fingerprints()
	if len(fps) != len(st.StageFPs) {
		return nil, inv("restore of %q re-derived %d stages, snapshot has %d", st.Name, len(fps), len(st.StageFPs))
	}
	for i := range fps {
		if fps[i] != st.StageFPs[i] {
			return nil, inv("restore of %q: stage %d fingerprint %016x, snapshot %016x", st.Name, i, fps[i], st.StageFPs[i])
		}
	}
	if err := checkArrays(st.Name, "base", s.res, &st.Base); err != nil {
		return nil, err
	}
	if len(s.corners) != len(st.Corners) {
		return nil, inv("restore of %q: %d corners configured, snapshot has %d", st.Name, len(s.corners), len(st.Corners))
	}
	for i, c := range s.corners {
		cr := &st.Corners[i]
		if c.corner.Name != cr.Name || c.corner.RScale != cr.RScale || c.corner.CScale != cr.CScale {
			return nil, inv("restore of %q: corner %d is %s(%g,%g), snapshot has %s(%g,%g)",
				st.Name, i, c.corner.Name, c.corner.RScale, c.corner.CScale, cr.Name, cr.RScale, cr.CScale)
		}
		if err := checkArrays(st.Name, cr.Name, c.res, &cr.Res); err != nil {
			return nil, err
		}
	}

	// Continue the exporting session's numbering: the restored full run
	// IS the snapshot's published version, not a new one.
	s.mu.Lock()
	s.seq = st.Seq
	if n := len(s.history); n > 0 {
		s.history[n-1].seq = st.Seq
		s.history[n-1].stats.Version = st.Seq
	}
	s.last.Version = st.Seq
	s.applied = int(st.Applied)
	s.mu.Unlock()
	return s, nil
}

// rebuildNetlist reconstructs the netlist from the snapshot's tables,
// verifying at each step that reconstruction is exact: a node record
// whose name would alias onto an existing node (a case variant of a
// supply name) cannot reproduce the original index layout and is
// refused.
func rebuildNetlist(st *snapshot.State) (*netlist.Netlist, error) {
	inv := func(format string, args ...any) error {
		return tverr.Errorf(tverr.Invalid, "incr.restore", format, args...)
	}
	nl := netlist.New(st.Name)
	nl.Grow(len(st.Nodes), len(st.Trans))
	for i := range st.Nodes {
		rec := &st.Nodes[i]
		var n *netlist.Node
		if i < 2 {
			// The supplies exist by construction and always sit first.
			n = nl.Nodes[i]
			if n.Name != rec.Name {
				return nil, inv("snapshot of %q: node %d is %q, want supply %q", st.Name, i, rec.Name, n.Name)
			}
		} else {
			n = nl.Node(rec.Name)
			if n.Index != i || n.Name != rec.Name {
				return nil, inv("snapshot of %q: node %q cannot be recreated at index %d (aliases to %q at %d)",
					st.Name, rec.Name, i, n.Name, n.Index)
			}
		}
		n.Cap = rec.Cap
		n.Flags = netlist.Flag(rec.Flags)
		n.Phase = int(rec.Phase)
		n.Exclusive = int(rec.Exclusive)
	}
	for _, a := range st.Aliases {
		if !nl.AddAlias(a.Name, nl.Nodes[a.Node]) {
			return nil, inv("snapshot of %q: alias %q is already bound", st.Name, a.Name)
		}
	}
	for i := range st.Trans {
		tr := &st.Trans[i]
		t := nl.AddTransistorWithID(tr.ID, netlist.Kind(tr.Kind),
			nl.Nodes[tr.Gate], nl.Nodes[tr.A], nl.Nodes[tr.B], tr.W, tr.L)
		if t == nil {
			return nil, inv("snapshot of %q: device id %d cannot be recreated", st.Name, tr.ID)
		}
		t.ForceFlow = netlist.FlowDir(tr.ForceFlow)
	}
	nl.SetNextID(st.NextID)
	return nl, nil
}

// checkArrays compares a re-analysis against the snapshot's persisted
// arrays bitwise (Float64bits, so ±Inf and any NaN payloads compare
// exactly).
func checkArrays(design, which string, res *core.Result, rec *snapshot.ResultRec) error {
	for _, pair := range [4]struct {
		name string
		got  *cow.Array[float64]
		ref  []float64
	}{
		{"rise", &res.RiseAt, rec.RiseAt},
		{"fall", &res.FallAt, rec.FallAt},
		{"early-rise", &res.EarlyRise, rec.EarlyRise},
		{"early-fall", &res.EarlyFall, rec.EarlyFall},
	} {
		if pair.got.Len() != len(pair.ref) {
			return tverr.Errorf(tverr.Invalid, "incr.restore",
				"restore of %q: %s %s array length %d, snapshot %d",
				design, which, pair.name, pair.got.Len(), len(pair.ref))
		}
		for i, ref := range pair.ref {
			if got := pair.got.At(i); math.Float64bits(got) != math.Float64bits(ref) {
				return tverr.Errorf(tverr.Invalid, "incr.restore",
					"restore of %q: %s %s arrival at node %d re-analyzed to %v, snapshot has %v",
					design, which, pair.name, i, got, ref)
			}
		}
	}
	return nil
}

// configFingerprint hashes every option that changes analysis results:
// process parameters, clock schedule, corners, case constants, input
// times, and the path-enumeration bounds. Runtime knobs that cannot
// change results — Workers (bit-identical at any count), HistoryDepth,
// Obs — are deliberately excluded, so a restore on a different machine
// shape still matches.
func configFingerprint(opt Options) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) { u64(uint64(len(s))); h.Write([]byte(s)) }
	p := opt.Params
	for _, v := range [...]float64{p.Lambda, p.REnh, p.RPass, p.RDep, p.CGate,
		p.CDiffArea, p.DiffExt, p.VDD, p.VInv, p.VTh} {
		f64(v)
	}
	sc := opt.Sched
	for _, v := range [...]float64{sc.Period, sc.Phi1Rise, sc.Phi1Fall, sc.Phi2Rise, sc.Phi2Fall} {
		f64(v)
	}
	u64(uint64(int64(opt.MaxPaths)))
	u64(uint64(int64(opt.MaxDepth)))
	u64(uint64(len(opt.Corners)))
	for _, c := range opt.Corners {
		str(c.Name)
		f64(c.RScale)
		f64(c.CScale)
	}
	f64(opt.Core.DefaultInputTime)
	u64(uint64(int64(opt.Core.SCCIterBound)))
	keys := make([]string, 0, len(opt.Core.InputTime))
	for k := range opt.Core.InputTime {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	u64(uint64(len(keys)))
	for _, k := range keys {
		str(k)
		f64(opt.Core.InputTime[k])
	}
	u64(uint64(len(opt.Core.SetHigh)))
	for _, n := range opt.Core.SetHigh {
		str(n)
	}
	u64(uint64(len(opt.Core.SetLow)))
	for _, n := range opt.Core.SetLow {
		str(n)
	}
	return h.Sum64()
}
