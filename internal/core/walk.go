package core

import (
	"math"
	"sync"
	"sync/atomic"

	"nmostv/internal/cow"
	"nmostv/internal/obs"
)

// The walk. All three fixpoints — latest arrivals, earliest arrivals and
// required times — are one traversal of the wave plan's components,
// forward in level order for the arrivals and in reverse for the
// required times. A component writes only its own nodes and reads,
// besides them, only nodes of levels the walk has already finished, so
// once those are final its relaxation is a pure function of them: a
// singleton relaxes once, and a cyclic component iterates inside one
// worker to a bounded fixpoint. That makes every pass bit-identical at
// any worker count. From scratch the walk takes each level's components
// from the plan. An incremental pass takes them from its worklist, which
// holds per level the components it must relax: the seed's, and those a
// relaxed node whose values moved bitwise wakes across its arcs — the To
// side going forward, the From side in reverse. A wake only ever targets
// a level the walk has not reached, so a level's bucket is complete when
// the walk gets to it, and the components of one level share no arcs, so
// their order in the bucket does not matter. Components never queued
// keep the previous fixpoint, which is what a from-scratch walk would
// compute for them. When the walk ends, the worklist holds exactly the
// components it relaxed; no step scans the components it did not.
//
// The values live in copy-on-write arrays (cow.Array) that an
// incremental pass cloned from the previous fixpoint's, so a write to a
// chunk the pass has not written yet copies that chunk and replaces its
// table entry. Two workers must not do that at once: before a level
// fans out, the walk makes every chunk its components write the pass's
// own (pass.own), which a component writing only its own nodes makes a
// list the walk knows up front.

// passKind names the fixpoint a pass computes.
type passKind uint8

const (
	// settlePass computes the latest arrivals: max over in-arcs.
	settlePass passKind = iota
	// earlyPass computes the earliest arrivals: min over in-arcs.
	earlyPass
	// requiredPass computes required times: min over out-arcs, walked in
	// reverse level order.
	requiredPass
)

// pass is one run of the walk.
type pass struct {
	*analysis
	kind passKind
	// val holds the rise and fall values the pass computes, indexed by
	// Polarity: the settle or early arrivals, or the required times.
	val [2]*cow.Array[float64]
	// work queues the components to relax; nil relaxes every one. prev
	// holds the previous fixpoint's values, shorter than val when nodes
	// were added: a relaxed node whose values moved from them (movedAt)
	// wakes what it feeds.
	work *worklist
	prev [2]*cow.Array[float64]
	// loopMu guards Result.loopNodes while the settle pass reports the
	// components that did not converge.
	loopMu sync.Mutex
}

// worklist is an incremental pass's dirty set: a mark per component and,
// per level, the components marked there in marking order. A component
// is marked when its mark holds the worklist's stamp, so a fresh
// worklist needs no clearing.
type worklist struct {
	level  []int32 // the plan's component levels
	mark   []atomic.Uint32
	stamp  uint32
	bucket [][]int32
	mu     sync.Mutex // guards bucket appends from concurrent wakes
}

// newWorklist returns an empty worklist over plan ws on memory of its
// own.
func newWorklist(ws *waveSchedule) *worklist {
	return &worklist{
		level:  ws.level,
		mark:   make([]atomic.Uint32, ws.numComps()),
		stamp:  1,
		bucket: make([][]int32, len(ws.levels)),
	}
}

// takeWorklist returns an empty worklist over plan ws from the plan's
// free list, or a new one when every kept worklist is in use, so
// concurrent passes over one plan each get their own.
func (ws *waveSchedule) takeWorklist() *worklist {
	ws.freeMu.Lock()
	var w *worklist
	if k := len(ws.free); k > 0 {
		w, ws.free = ws.free[k-1], ws.free[:k-1]
	}
	ws.freeMu.Unlock()
	if w == nil {
		return newWorklist(ws)
	}
	// A new stamp unmarks every component; the marks are cleared only
	// when the stamps wrap.
	if w.stamp++; w.stamp == 0 {
		for i := range w.mark {
			w.mark[i].Store(0)
		}
		w.stamp = 1
	}
	for i := range w.bucket {
		w.bucket[i] = w.bucket[i][:0]
	}
	return w
}

// putWorklist returns a worklist takeWorklist handed out once nothing
// reads it any more.
func (ws *waveSchedule) putWorklist(w *worklist) {
	ws.freeMu.Lock()
	ws.free = append(ws.free, w)
	ws.freeMu.Unlock()
}

// add queues component ci in its level's bucket unless it is queued
// already. Safe for concurrent use.
func (w *worklist) add(ci int32) {
	if m := &w.mark[ci]; m.Load() == w.stamp || m.Swap(w.stamp) == w.stamp {
		return
	}
	l := w.level[ci]
	w.mu.Lock()
	w.bucket[l] = append(w.bucket[l], ci)
	w.mu.Unlock()
}

// has reports whether component ci is queued.
func (w *worklist) has(ci int32) bool { return w.mark[ci].Load() == w.stamp }

// minParallelLevel is the narrowest level worth fanning out: below this,
// goroutine handoff costs more than the relaxations themselves.
const minParallelLevel = 8

// abortStride is how many components a level relaxes between context
// polls; abort-flag polls happen every component (a single atomic load).
const abortStride = 64

// walk runs the pass level by level, with each level a barrier, and
// concurrently within a level when the analysis has more than one
// worker and the level holds at least minParallelLevel components to
// relax. A level an incremental pass has nothing queued at is skipped
// outright: no span, no counter update, no poll.
//
// Instrumentation: the counters are pre-resolved atomic handles updated
// once per level (never per component), and spans are built only when a
// tracer is attached — with instrumentation disabled the walk allocates
// nothing (asserted by TestWavefrontDisabledObsZeroAlloc).
func (p *pass) walk() {
	levels := p.wave.levels
	for k := range levels {
		li := k
		if p.kind == requiredPass {
			li = len(levels) - 1 - k
		}
		lvl := levels[li]
		if p.work != nil {
			if lvl = p.work.bucket[li]; len(lvl) == 0 {
				continue
			}
		}
		if !p.runLevel(li, lvl) {
			return
		}
	}
}

// runLevel relaxes one wavefront level, serially or fanned out, and
// reports whether the walk should continue (false = aborted).
func (p *pass) runLevel(li int, lvl []int32) bool {
	tr := p.opt.Obs.Tracer()
	if !p.checkpoint() {
		return false
	}
	p.mLevels.Inc()
	p.mComps.Add(int64(len(lvl)))
	var lsp *obs.Span
	if tr != nil {
		// StartTIDN defers the name formatting to export time, so an
		// attached per-request tracer costs a pooled span per level, not
		// a string build — the O(levels) bound of the flight recorder.
		lsp = tr.StartTIDN("level", int64(li), int64(len(lvl)), 0)
	}
	workers := p.opt.Workers
	if workers > len(lvl) {
		workers = len(lvl)
	}
	if workers <= 1 || len(lvl) < minParallelLevel {
		for k, ci := range lvl {
			if p.stopped.Load() {
				break
			}
			if k%abortStride == abortStride-1 {
				if err := p.ctx.Err(); err != nil {
					p.abort(err)
					break
				}
			}
			p.visit(ci)
		}
		lsp.End()
		return !p.stopped.Load()
	}
	p.own(lvl)
	// The loop variables are passed as arguments, not captured: a
	// captured per-iteration variable would be heap-allocated every
	// level even when this parallel path is never taken, breaking the
	// zero-alloc guarantee of the serial walk.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, li int, lvl []int32) {
			defer wg.Done()
			var wsp *obs.Span
			if tr != nil {
				wsp = tr.StartTIDN("level worker", int64(li), -1, int64(w+1))
			}
			for {
				k := int(next.Add(1)) - 1
				if k >= len(lvl) || p.stopped.Load() {
					wsp.End()
					return
				}
				if k%abortStride == abortStride-1 {
					if err := p.ctx.Err(); err != nil {
						p.abort(err)
					}
				}
				p.visit(lvl[k])
			}
		}(w, li, lvl)
	}
	wg.Wait()
	lsp.End()
	return !p.stopped.Load()
}

// own makes every chunk that the components of lvl write the pass's own,
// so that workers relaxing them concurrently write in place. From
// scratch every chunk is owned already and nothing is scanned.
func (p *pass) own(lvl []int32) {
	settle := p.kind == settlePass
	if !p.val[Rise].Shared() && !p.val[Fall].Shared() && (!settle || !p.predRise.Shared() && !p.predFall.Shared()) {
		return
	}
	for _, ci := range lvl {
		for _, v := range p.wave.comp(ci) {
			p.val[Rise].Own(int(v))
			p.val[Fall].Own(int(v))
			if settle {
				p.predRise.Own(int(v))
				p.predFall.Own(int(v))
			}
		}
	}
}

// visit relaxes component ci and, in an incremental pass, wakes what its
// moved nodes feed. A singleton relaxes once from its reset values
// without storing them, so it writes only values that moved; a cyclic
// component is reset and iterated. The settle pass reports a cyclic
// component that spends its iteration bound as a loop.
func (p *pass) visit(ci int32) {
	comp := p.wave.comp(ci)
	if !p.wave.cyclic[ci] {
		p.relax(comp[0], true)
	} else {
		p.reset(comp)
		if !p.iterate(comp) && p.kind == settlePass {
			p.reportLoop(comp)
		}
	}
	if p.work != nil {
		p.wake(ci, comp)
	}
}

// reset prepares a cyclic component's nodes for relaxation. An
// incremental forward pass clears their non-fixed values, which hold the
// previous fixpoint (and the settle pass their predecessor records); a
// from-scratch forward pass starts from ±Inf and has nothing to clear.
// The required pass starts every node at +Inf and applies all of the
// component's endpoint seeds before any relaxation.
func (p *pass) reset(comp []int32) {
	switch {
	case p.kind == requiredPass:
		for _, idx := range comp {
			rat := [2]float64{PosInf, PosInf}
			p.seedEndpoints(idx, &rat)
			p.setRAT(idx, rat)
		}
	case p.work == nil:
	case p.kind == settlePass:
		for _, idx := range comp {
			if !p.src.fixedRise[idx] {
				p.RiseAt.Set(int(idx), NegInf)
				p.predRise.Set(int(idx), pred{edge: -1})
			}
			if !p.src.fixedFall[idx] {
				p.FallAt.Set(int(idx), NegInf)
				p.predFall.Set(int(idx), pred{edge: -1})
			}
		}
	default:
		for _, idx := range comp {
			if !p.src.fixedRise[idx] {
				p.EarlyRise.Set(int(idx), PosInf)
			}
			if !p.src.fixedFall[idx] {
				p.EarlyFall.Set(int(idx), PosInf)
			}
		}
	}
}

// relax recomputes node idx's values from its arcs and reports whether
// one of them changed; fresh relaxes a singleton from its reset values.
func (p *pass) relax(idx int32, fresh bool) bool {
	switch p.kind {
	case settlePass:
		return p.relaxNode(idx, fresh)
	case earlyPass:
		return p.relaxNodeEarly(idx, fresh)
	}
	return p.relaxNodeRequired(idx, fresh)
}

// iterate relaxes a cyclic component in rounds until no value changes,
// at most SCCIterBound·|comp|+8 of them, and reports whether it settled.
// A component that does not keeps its bounded partial values.
func (p *pass) iterate(comp []int32) bool {
	for round := p.opt.SCCIterBound*len(comp) + 8; round > 0; round-- {
		changed := false
		for _, idx := range comp {
			if p.relax(idx, false) {
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// reportLoop records a non-converging component's nodes, except those
// fixed in both polarities. The walk's order is arbitrary across
// workers; the caller sorts the list once at the end.
func (p *pass) reportLoop(comp []int32) {
	p.loopMu.Lock()
	defer p.loopMu.Unlock()
	for _, idx := range comp {
		if !p.src.fixedRise[idx] || !p.src.fixedFall[idx] {
			p.loopNodes = append(p.loopNodes, p.NL.Nodes[idx])
		}
	}
}

// wake queues the components across the arcs of every node of comp
// whose values moved: the To side going forward, the From side in
// reverse.
func (p *pass) wake(ci int32, comp []int32) {
	ws := p.wave
	for _, idx := range comp {
		if !movedAt(p.val, p.prev, int(idx)) {
			continue
		}
		if p.kind == requiredPass {
			for _, ei := range ws.in(idx) {
				if c := ws.compOf[p.Model.Arc(ei).From]; c != ci {
					p.work.add(c)
				}
			}
			continue
		}
		for _, ei := range ws.out(idx) {
			if c := ws.compOf[p.Model.Arc(ei).To]; c != ci {
				p.work.add(c)
			}
		}
	}
}

// movedAt reports whether node i's values in val differ bitwise from
// those in prev, the previous fixpoint's; a node prev lacks has moved.
// Bits, not ==, because what reads a value copies its bits: -0 and +0
// compare equal but can print differently.
func movedAt(val, prev [2]*cow.Array[float64], i int) bool {
	return i >= prev[Rise].Len() || !sameBits(val[Rise].At(i), prev[Rise].At(i)) || !sameBits(val[Fall].At(i), prev[Fall].At(i))
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
