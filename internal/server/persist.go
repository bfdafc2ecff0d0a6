package server

import (
	"cmp"
	"context"
	"encoding/json"
	"slices"
	"time"

	"nmostv/internal/faultpoint"
	"nmostv/internal/incr"
	"nmostv/internal/obs"
	"nmostv/internal/snapshot"
	"nmostv/internal/tverr"
)

// Durability glue between the registry and internal/snapshot. The
// protocol, end to end:
//
//   - Load writes an initial snapshot and empties the design's journal.
//   - Every committed batch appends one journalBatch record, keyed by the
//     batch's publish sequence, under the entry lock — journal order IS
//     publish order.
//   - Eviction snapshots the session (folding the journal in) and drops
//     it from memory; the entry stays registered, cold.
//   - A touch of a cold entry, or WarmRestart after a crash, rehydrates:
//     restore the snapshot (bit-identical by construction — incr.Restore
//     re-analyzes and proves it), then replay journal records with seq
//     beyond the snapshot's.
//
// Every failure here degrades durability, never availability: the live
// session keeps serving and the operator gets a loud log line and a
// counter, because silently dropping committed state is the one
// unforgivable failure mode of a durability layer.

// FaultReplay is the fault point armed on every journal record replayed
// during rehydration; chaos tests inject errors here to prove a corrupt
// or unreplayable journal surfaces as a typed error, not a panic.
const FaultReplay = "restore.replay"

// journalBatch is the journal record payload: what to re-apply on replay.
type journalBatch struct {
	// Kind is batchDelta (re-apply Deltas) or batchFull (re-run the full
	// analysis; it bumps the version without a netlist edit).
	Kind   string       `json:"kind"`
	Deltas []incr.Delta `json:"deltas,omitempty"`
}

const (
	batchDelta = "delta"
	batchFull  = "full"
)

// commit runs one batch and journals it under the entry lock, so the
// journal's record order is exactly the session's publish order. The
// deferred unlock matters: an injected panic inside the analysis unwinds
// through the recovery middleware, and the entry must not stay locked
// behind it.
//
// sess is the session the handler acquired; commit refuses to run if it
// is no longer the entry's registered session. Between acquire and the
// lock here the entry can be evicted (session detached, journal closed)
// or replaced by a concurrent POST /load — applying the batch then would
// return 200 for a write that lands on a detached session, or journal it
// against another design's WAL. 503 tells the client to retry: the retry
// re-acquires and finds (or rehydrates) the current session.
func (s *Server) commit(e *regEntry, sess *incr.Session, kind string,
	deltas []incr.Delta, run func() (incr.Stats, error)) (incr.Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sess != sess {
		return incr.Stats{}, tverr.Errorf(tverr.Unavailable, "server.commit",
			"design %q was evicted or reloaded mid-request; retry", e.name)
	}
	stats, err := run()
	if err == nil {
		s.appendJournal(e, kind, deltas, stats.Version)
	}
	return stats, err
}

// snapshotLocked exports the session and writes the design's snapshot,
// then truncates the journal (its records are folded into the snapshot).
// Caller holds e.mu and guarantees e.sess != nil and s.store != nil.
func (s *Server) snapshotLocked(e *regEntry) error {
	if s.store == nil || e.sess == nil {
		return tverr.Errorf(tverr.Internal, "server.snapshot", "no store or session")
	}
	st := e.sess.Export()
	if err := s.store.Save(st); err != nil {
		return err
	}
	var lag int64
	if e.journal != nil {
		if err := e.journal.Reset(uint64(st.Seq)); err != nil {
			// The snapshot IS durable; a failed truncation only means the
			// next recovery replays records it will then skip (seq ≤ Seq).
			s.cfg.Log.Warn("journal truncate after snapshot failed",
				obs.F("design", e.name), obs.F("err", err.Error()))
		}
		lag = e.journal.LagBytes()
	}
	s.mu.Lock()
	e.snapSeq, e.lastSnap, e.jlag = st.Seq, st.CreatedUnix, lag
	s.mu.Unlock()
	s.cfg.Obs.Counter("tvd_snapshots_written_total",
		"session snapshots written to the state dir").Inc()
	return nil
}

// appendJournal records one committed batch. Caller holds e.mu and has
// already published the batch; version is its publish sequence. On append
// failure the batch is already committed in memory, so the fallback is an
// immediate snapshot — if that also fails, durability is degraded until
// the next successful snapshot and the operator is told so.
func (s *Server) appendJournal(e *regEntry, kind string, deltas []incr.Delta, version int64) {
	if s.store == nil {
		return
	}
	var err error
	if e.journal == nil {
		// The journal never opened (Load or rehydrate degraded). Durability
		// is on, so a committed batch must still reach disk — fall through
		// to the snapshot fallback below rather than silently dropping every
		// batch until the next eviction.
		err = tverr.Errorf(tverr.Internal, "server.journal",
			"no journal open for %q", e.name)
	} else {
		var payload []byte
		payload, err = json.Marshal(journalBatch{Kind: kind, Deltas: deltas})
		if err == nil {
			err = e.journal.Append(uint64(version), payload)
		}
		if err == nil {
			s.mu.Lock()
			e.jlag = e.journal.LagBytes()
			s.mu.Unlock()
			return
		}
	}
	s.cfg.Obs.Counter("tvd_journal_append_failures_total",
		"journal appends that failed and fell back to a snapshot").Inc()
	s.cfg.Log.Warn("journal append failed; snapshotting instead",
		obs.F("design", e.name), obs.F("version", version), obs.F("err", err.Error()))
	if serr := s.snapshotLocked(e); serr != nil {
		s.degraded(e, "fallback snapshot failed", serr)
	}
}

// degraded reports that a design is serving without full durability.
func (s *Server) degraded(e *regEntry, what string, err error) {
	s.cfg.Obs.Counter("tvd_durability_degraded_total",
		"events where a design lost snapshot or journal coverage").Inc()
	s.cfg.Log.Error("durability degraded: "+what,
		obs.F("design", e.name), obs.F("err", err.Error()))
}

// hydrate rebuilds a cold entry's session from its snapshot plus journal
// tail. Caller holds e.mu. The session is published last, under s.mu, so
// no request sees it mid-replay.
func (s *Server) hydrate(ctx context.Context, e *regEntry) error {
	if e.sess != nil {
		// Already live: a concurrent POST /load or a lazy rehydrate won the
		// race (WarmRestart registers entries before the background loop
		// reaches them, and the listener is up the whole time). Replacing
		// the session here would drop its committed in-memory state and
		// overwrite its open journal handle without Close — two writers on
		// one WAL. The live session IS the newest state; keep it.
		return nil
	}
	if s.store == nil {
		return tverr.Errorf(tverr.NotFound, "server.restore",
			"design %q was evicted and durability is off", e.name)
	}
	start := time.Now()
	st, err := s.store.Load(e.name)
	if err != nil {
		return err
	}
	sess, err := incr.Restore(ctx, st, s.sessionOpts())
	if err != nil {
		return err
	}
	j, recs, err := s.store.OpenJournal(e.name, s.cfg.FsyncEvery)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Seq <= uint64(st.Seq) {
			// Folded into the snapshot already (a crash can land between
			// the snapshot rename and the journal truncation).
			continue
		}
		if err := replayRecord(ctx, sess, rec); err != nil {
			j.Close()
			return err
		}
	}
	e.journal = j
	s.mu.Lock()
	e.sess, e.snapSeq, e.lastSnap, e.jlag = sess, st.Seq, st.CreatedUnix, j.LagBytes()
	s.mu.Unlock()
	s.cfg.Obs.Counter("tvd_sessions_rehydrated_total",
		"cold sessions rebuilt from snapshot + journal replay").Inc()
	s.cfg.Obs.Histogram("tvd_restore_seconds",
		"snapshot restore + journal replay latency", nil).Observe(time.Since(start).Seconds())
	s.cfg.Log.Info("design rehydrated",
		obs.F("design", e.name), obs.F("version", sess.LastStats().Version),
		obs.F("replayed", int64(len(recs))), obs.F("dur", time.Since(start)))
	return nil
}

// replayRecord re-applies one journal record and proves the session
// landed on the record's publish sequence — replay must walk the exact
// version chain the journal recorded, or the journal does not belong to
// this snapshot.
func replayRecord(ctx context.Context, sess *incr.Session, rec snapshot.Record) error {
	if err := faultpoint.Hit(FaultReplay); err != nil {
		return err
	}
	var b journalBatch
	if err := json.Unmarshal(rec.Payload, &b); err != nil {
		return tverr.Errorf(tverr.Invalid, "server.restore",
			"journal record %d is not a batch: %v", rec.Seq, err)
	}
	var stats incr.Stats
	var err error
	switch b.Kind {
	case batchDelta:
		stats, err = sess.Apply(ctx, b.Deltas)
	case batchFull:
		stats, err = sess.Full(ctx)
	default:
		return tverr.Errorf(tverr.Invalid, "server.restore",
			"journal record %d has unknown kind %q", rec.Seq, b.Kind)
	}
	if err != nil {
		return tverr.Errorf(tverr.KindOf(err), "server.restore",
			"replay of journal record %d: %v", rec.Seq, err)
	}
	if uint64(stats.Version) != rec.Seq {
		return tverr.Errorf(tverr.Invalid, "server.restore",
			"journal does not continue the snapshot: replay landed on version %d, record says %d",
			stats.Version, rec.Seq)
	}
	return nil
}

// BeginRestore flips /readyz to 503 "restoring" ahead of WarmRestart.
// The daemon calls it synchronously before spawning WarmRestart in the
// background, closing the window where an orchestrator could probe 200
// "serving" and route traffic before the restore scan even begins.
// WarmRestart clears the flag on completion, including every early
// return.
func (s *Server) BeginRestore() {
	if s.store != nil {
		s.restoring.Store(true)
	}
}

// WarmRestart scans the state dir and registers every persisted design as
// a cold entry, then rehydrates them, most recently snapshotted first,
// while fewer than MaxDesigns designs are resident (preloads count); the
// rest stay cold until touched. While it runs the server reports
// `restoring` on /readyz. Designs that fail to rehydrate stay registered
// cold — the failure surfaces, with full detail, on the first request
// that touches them.
func (s *Server) WarmRestart(ctx context.Context) error {
	if s.store == nil {
		return nil
	}
	s.restoring.Store(true) // idempotent after BeginRestore
	defer s.restoring.Store(false)
	metas, err := s.store.List()
	if err != nil || len(metas) == 0 {
		return err
	}

	// Newest snapshots first, so the cap keeps the designs most likely to
	// be queried next.
	slices.SortStableFunc(metas, func(a, b snapshot.Meta) int {
		return cmp.Compare(b.CreatedUnix, a.CreatedUnix)
	})
	s.mu.Lock()
	var names []string
	for _, m := range metas {
		if _, ok := s.sessions[m.Name]; !ok {
			s.sessions[m.Name] = &regEntry{name: m.Name, snapSeq: m.Seq, lastSnap: m.CreatedUnix}
			names = append(names, m.Name)
		}
	}
	s.mu.Unlock()

	hydrated := 0
	var firstErr error
	for _, name := range names {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s.mu.Lock()
		resident := 0
		for _, e := range s.sessions {
			if e.sess != nil {
				resident++
			}
		}
		s.mu.Unlock()
		if s.cfg.MaxDesigns > 0 && resident >= s.cfg.MaxDesigns {
			break
		}
		// The request path: pin, rehydrate, run the LRU pass, release.
		_, _, release, err := s.acquireName(ctx, name)
		if err != nil {
			s.cfg.Log.Error("warm restart: design left cold",
				obs.F("design", name), obs.F("err", err.Error()))
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		release()
		hydrated++
	}
	s.cfg.Log.Info("warm restart complete",
		obs.F("designs", int64(len(names))), obs.F("hydrated", int64(hydrated)))
	return firstErr
}

// SnapshotAll snapshots every live session whose published version is
// ahead of its on-disk snapshot. The daemon calls it after the drain on
// SIGTERM, so the next start recovers warm without journal replay.
func (s *Server) SnapshotAll(ctx context.Context) error {
	if s.store == nil {
		return nil
	}
	s.mu.Lock()
	entries := make([]*regEntry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	var firstErr error
	for _, e := range entries {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		e.mu.Lock()
		if e.sess != nil && e.sess.LastStats().Version != e.snapSeq {
			if err := s.snapshotLocked(e); err != nil {
				s.degraded(e, "drain snapshot failed", err)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		e.mu.Unlock()
	}
	return firstErr
}
