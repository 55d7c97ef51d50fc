package core

import (
	"time"

	"repro/internal/alloc"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/trace"
)

// One collection cycle. Every collection — whatever triggers it and
// however it marks — goes through the same three steps:
//
//	open   land the previous cycle's deferred sweeps, stamp the
//	       blacklist's new cycle, clear the sticky mark bits of a full
//	       generational cycle, emit the begin event (openCycleLocked);
//	mark   mark the slots the mutators' caches hold (markHeldLocked),
//	       then mark to the fixpoint. A stop-the-world kind does it in
//	       the pause that opened the cycle (markPhase). A concurrent kind
//	       scans the roots in that pause (the snapshot), resumes the
//	       mutators, marks in chunks behind them, and reaches the
//	       fixpoint in a second pause that scans the roots again
//	       (concurrent.go);
//	close  queue unreachable finalizables, sweep, take the caches' held
//	       slots out of the survey (settleHeldLocked), reset the
//	       allocation and card counters, age the blacklist, count the
//	       collection, harvest provenance, assemble CollectionStats, emit
//	       the end events, fire the hook (closeCycleLocked).
//
// All three run under w.mu with every mutator parked. Their caches are
// not flushed: the sweep classifies blocks from their bitmaps, and
// every cached slot is marked from the mark step to the sweep, so the
// sweep keeps it for the cache that holds it (mutator.go has the
// rule). The only part of a cycle that runs with mutators running is a
// concurrent kind's chunks, between its two pauses; cycle.active is
// true exactly then. DESIGN.md has the table of which kind does what in
// each step.

// cycleKind says how a cycle marks and what it may reclaim. The values
// are the "cycle kind" argument of the trace events (trace.EvCycleBegin
// and friends) and do not change: 2 was the incremental cycle's and 4
// the concurrent minor cycle's; both are retired, not reused.
type cycleKind int64

const (
	kindFull       cycleKind = 0
	kindMinor      cycleKind = 1
	kindConcurrent cycleKind = 3
)

// minor reports a generational minor cycle: sticky mark bits are the
// old generation, the remembered set is rescanned, survivors promote.
func (k cycleKind) minor() bool { return k == kindMinor }

// concurrent reports a mostly-concurrent cycle: two pauses with chunked
// marking between them, instead of one pause.
func (k cycleKind) concurrent() bool { return k == kindConcurrent }

// Kind names the cycle the statistics describe: "full", "minor" or
// "concurrent".
func (st CollectionStats) Kind() string {
	switch {
	case st.Concurrent:
		return "concurrent"
	case st.Minor:
		return "minor"
	}
	return "full"
}

// cycle is the state of the collection in progress (World.cyc; guarded
// by w.mu). Stop-the-world kinds fill it and consume it inside one
// pause; a concurrent kind keeps it from its snapshot to its finale.
type cycle struct {
	kind cycleKind
	// active: a concurrent cycle is between its two pauses — mutators
	// run, stores shade, fresh objects are born black unless
	// AllocateRooted roots them at birth. False inside every pause, the
	// finale's included. Written with every handle parked, so a handle
	// may read it under its own mutex.
	active bool
	// dirtyBlocks is the size of the remembered set a minor cycle
	// rescanned.
	dirtyBlocks int
	// start is when the cycle opened, pauseStart when the pause that
	// closes it began (the same instant for a stop-the-world kind);
	// snapNs is the length of a concurrent kind's snapshot pause.
	start      time.Time
	pauseStart time.Time
	snapNs     int64
	// marks is the mark phase's statistics at the fixpoint and markNs the
	// part of the closing pause it took; snapMarked and preFinaleMarked
	// are the objects a concurrent kind had marked by the end of its
	// snapshot and by the start of its finale.
	marks           mark.Stats
	markNs          int64
	snapMarked      uint64
	preFinaleMarked uint64
	// The assist pacer (concurrent.go): pacerCredit is marked bytes
	// banked (negative = debt), pacerRatio converts allocated bytes to
	// owed mark bytes, pacerLastAlloc is the allocation cursor of the
	// pacer's last look.
	pacerCredit    int64
	pacerRatio     float64
	pacerLastAlloc uint64
}

// openCycleLocked is the first step of every collection. Callers hold
// w.mu with every mutator parked and no cycle in flight.
func (w *World) openCycleLocked(kind cycleKind) *cycle {
	c := &w.cyc
	c.kind = kind
	c.start = time.Now()
	c.pauseStart = c.start
	c.dirtyBlocks = 0
	c.snapNs = 0
	w.tracer.Emit(trace.EvCycleBegin, int64(w.collections+1), int64(w.Heap.Stats().HeapBytes), int64(kind))
	// Deferred lazy sweeps hold the previous cycle's liveness in their
	// mark bits, which must land before this cycle changes or observes
	// any bit. A no-op with LazySweep off.
	w.Heap.FinishSweep()
	w.Blacklist.BeginCycle()
	if w.cfg.Generational && !kind.minor() {
		// Mark bits are sticky between minor cycles — they are the old
		// generation; a full collection starts from a clean slate.
		w.Heap.ClearMarks()
	}
	return c
}

// collectLocked runs a collection of the given kind now and returns its
// statistics: park the mutators, open, mark to the fixpoint, close,
// resume. A concurrent cycle in flight is landed instead — its finale
// is the collection the caller gets. Callers hold w.mu with the
// mutators running.
func (w *World) collectLocked(kind cycleKind) CollectionStats {
	if w.landCycleLocked() {
		return w.last
	}
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	c := w.openCycleLocked(kind)
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), 1, int64(kind))
	markStart := time.Now()
	c.marks, c.dirtyBlocks = w.markPhase(kind.minor())
	c.markNs = time.Since(markStart).Nanoseconds()
	return w.closeCycleLocked()
}

// landCycleLocked completes the concurrent cycle in flight, if there is
// one, and reports whether there was: whoever is about to collect, take
// a measurement that clobbers mark bits, free objects behind the
// markers' backs or give up on memory calls it first. Callers hold w.mu
// with the mutators running.
func (w *World) landCycleLocked() bool {
	if !w.cyc.active {
		return false
	}
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	w.finishConcurrentLocked()
	return true
}

// closeCycleLocked is the last step of every collection: marking has
// reached its fixpoint and c.marks/c.markNs describe it. Callers hold
// w.mu with every mutator parked and every slot their caches hold
// marked.
func (w *World) closeCycleLocked() CollectionStats {
	c := &w.cyc
	kind := c.kind
	w.traceMarkEnd(c.marks)
	if w.finaleAudit != nil {
		w.finaleAudit()
	}
	// Finalisation, as used by the paper's PCR experiment: "selected
	// otherwise unreachable heap cells to be enqueued for further
	// action". Unmarked registered objects are queued before the sweep
	// frees them.
	for a := range w.finalizable {
		if !w.Heap.Marked(a) {
			w.reclaimed = append(w.reclaimed, a)
			delete(w.finalizable, a)
		}
	}
	w.traceSweepBegin(kind)
	sweepStart := time.Now()
	var sweep alloc.SweepResult
	if w.cfg.Generational {
		// Survivors keep their mark bits: they are the old generation. A
		// full cycle cleared the bits when it opened, so they reflect
		// exactly this cycle's liveness.
		sweep = w.Heap.SweepSticky()
	} else {
		sweep = w.Heap.Sweep()
	}
	w.settleHeldLocked(&sweep)
	pauseSweep := time.Since(sweepStart)
	w.Heap.ResetSinceGC()
	w.Heap.ClearDirty()
	if w.cfg.ExpireAge > 0 {
		w.Blacklist.Expire(w.cfg.ExpireAge)
	}
	w.collections++
	if kind.minor() {
		w.minorsSinceFull++
	} else {
		w.minorsSinceFull = 0
	}
	w.retriggerLocked()
	provRecs := w.harvestProvenance(kind)
	pause := time.Since(c.pauseStart)
	st := CollectionStats{
		Mark:                c.marks,
		Sweep:               sweep,
		Blacklist:           w.Blacklist.Stats(),
		Duration:            time.Duration(c.snapNs) + pause,
		HeapBytes:           w.Heap.Stats().HeapBytes,
		Minor:               kind.minor(),
		DirtyBlocks:         c.dirtyBlocks,
		Concurrent:          kind.concurrent(),
		PauseMarkNs:         c.markNs,
		PauseSweepNs:        pauseSweep.Nanoseconds(),
		PauseStopNs:         w.lastStopNs,
		SweepDeferredBlocks: w.Heap.SweepPending(),
		Provenance:          w.prov.enabled,
		ProvenanceRecords:   provRecs,
	}
	if kind.minor() {
		st.Promoted = c.marks.ObjectsMarked
	}
	if kind.concurrent() {
		w.tracer.Emit(trace.EvFinalPause, pause.Nanoseconds(), int64(c.marks.ObjectsMarked-c.preFinaleMarked), 0)
		st.MarkedConcurrent = c.preFinaleMarked - c.snapMarked
		st.ConcPhaseNs = max(c.pauseStart.Sub(c.start).Nanoseconds()-c.snapNs, 0)
		st.PauseSnapshotNs = c.snapNs
		st.PauseFinalNs = pause.Nanoseconds()
	}
	w.last = st
	w.traceCycleEnd(st)
	w.fireHook()
	return w.last
}

// eachRootArea calls fn with every root area a mark phase scans, in scan
// order: the attached root source's register file (sparse: nonzero words
// only, as single candidates) and live stack, the same for each mutator
// handle that has a source, then the root segments. Callers hold w.mu
// with every mutator stopped, so the sources are quiescent.
func (w *World) eachRootArea(fn func(org mark.RootOrigin, words []mem.Word, sparse bool)) {
	source := func(src RootSource, idx int32) {
		fn(mark.RootOrigin{Kind: mark.RootRegister, Src: idx}, src.Registers(), true)
		stackWords, stackBase := src.LiveStack()
		fn(mark.RootOrigin{Kind: mark.RootStack, Src: idx, Base: stackBase}, stackWords, false)
	}
	if w.mut != nil {
		source(w.mut, -1)
	}
	for i, m := range w.muts {
		if m.src != nil {
			source(m.src, int32(i))
		}
	}
	for i, s := range w.Space.Roots() {
		fn(mark.RootOrigin{Kind: mark.RootSegment, Src: int32(i), Base: s.Base()}, s.Words(), false)
	}
}

// markRoots performs the root-scanning half of a mark phase on
// w.Marker.
func (w *World) markRoots() {
	w.eachRootArea(func(org mark.RootOrigin, words []mem.Word, sparse bool) {
		if sparse {
			w.Marker.MarkSparseRoots(org, words)
		} else {
			w.Marker.MarkRootArea(org, words)
		}
	})
}

// markPhase is the mark step of a stop-the-world kind (and the whole of
// a MarkOnly measurement, whose caches are flushed): mark the caches'
// held slots, then from the roots to the fixpoint inside the pause,
// serially through w.Marker, as the paper's collector marks — and
// return the phase's statistics plus the size of the remembered set it
// rescanned (minor cycles only).
func (w *World) markPhase(minor bool) (mark.Stats, int) {
	w.markHeldLocked()
	w.Marker.Reset()
	if w.prov.enabled {
		w.Marker.StartRecording()
	}
	dirty := 0
	if minor {
		// Rescan old objects on dirty pages first: at this point every
		// marked object is old, so the scan is exactly the remembered set.
		w.Heap.DirtyBlocks(func(bi int) {
			dirty++
			w.Heap.ForEachMarkedObject(bi, w.Marker.ScanObject)
		})
	}
	w.markRoots()
	w.Marker.Drain()
	return w.Marker.Stats(), dirty
}

// runwayShare is the share of the free space the last close left (the
// committed heap less its live bytes) that a concurrent world keeps in
// hand when its next cycle starts: the cycle opens once allocation
// since the close has spent the rest, and the pacer schedules its
// marking across what is left. Chosen on the
// curve (DESIGN.md §5h): a later start marks the live graph less often,
// but from about an eighth down the request tail rises, each cycle
// running behind a heap nearly out of room; a quarter keeps a margin
// above that knee.
const runwayShare = 0.25

// triggerLocked is the one collection trigger: the bytes allocated
// since the last close past which the next allocation opens a cycle,
// the kind of that cycle, and whether any cycle is armed at all. The
// world keeps its result (retriggerLocked), which the world's slow path
// (dueCycleLocked) and every handle's fast-path mirror
// (Mutator.resyncLocked) read, so the two cannot disagree.
//
//   - Generational worlds prefer the cheaper minor cycle at the minor
//     interval, every FullEvery-th a full one, and also run a full
//     cycle at the GCDivisor interval, should that come first.
//   - Otherwise a cycle opens at the GCDivisor interval, and a
//     concurrent one no earlier than the runway point: when the free
//     space left falls to runwayShare of what the last close left.
//     Taking the later of the two never starts a cycle earlier than
//     the interval alone would.
//
// GCDivisor (and MinorDivisor) ≤ 0 disarm their interval. Callers hold
// w.mu.
func (w *World) triggerLocked() (at uint64, kind cycleKind, armed bool) {
	cfg := &w.cfg
	_, heapBytes := w.Heap.SinceGC()
	if cfg.Generational && cfg.MinorDivisor > 0 {
		at, kind = uint64(heapBytes/cfg.MinorDivisor), kindFull
		if w.minorsSinceFull < cfg.FullEvery-1 {
			kind = kindMinor
		}
		if cfg.GCDivisor > 0 && uint64(heapBytes/cfg.GCDivisor) < at {
			at, kind = uint64(heapBytes/cfg.GCDivisor), kindFull
		}
		return at, kind, true
	}
	if cfg.GCDivisor <= 0 {
		return 0, kindFull, false
	}
	at = uint64(heapBytes / cfg.GCDivisor)
	if !cfg.ConcurrentMark {
		return at, kindFull, true
	}
	var free uint64
	if live := w.Heap.LiveBytes(); uint64(heapBytes) > live {
		free = uint64(heapBytes) - live
	}
	return max(at, free-uint64(runwayShare*float64(free))), kindConcurrent, true
}

// retriggerLocked recomputes the kept trigger. Its inputs change only
// where it is called: at every close, after the sweep and the
// minorsSinceFull update; at every heap growth (expandLocked); and in
// NewWorld. Callers hold w.mu.
func (w *World) retriggerLocked() {
	w.trigAt, w.trigKind, w.trigArmed = w.triggerLocked()
}

// dueCycleLocked is the allocation slow path's reading of the trigger,
// one compare: whether allocation since the last close has passed it,
// and which kind of cycle that calls for. Callers hold w.mu with no
// cycle in flight.
func (w *World) dueCycleLocked() (kind cycleKind, due bool) {
	sinceGC, _ := w.Heap.SinceGC()
	return w.trigKind, w.trigArmed && sinceGC > w.trigAt
}

// allocTrigger records an allocation crossing the collection threshold,
// immediately before the cycle it triggers.
func (w *World) allocTrigger(kind cycleKind) {
	w.met.allocTriggered.Inc()
	if w.tracer.Enabled() {
		st := w.Heap.Stats()
		w.tracer.Emit(trace.EvAllocTrigger, int64(st.BytesSinceGC), int64(st.HeapBytes), int64(kind))
	}
}

// traceMarkEnd emits the mark-phase closing event with the phase's
// totals.
func (w *World) traceMarkEnd(mstats mark.Stats) {
	w.tracer.Emit(trace.EvMarkEnd,
		int64(mstats.ObjectsMarked), int64(mstats.BytesMarked), int64(mstats.WordsScanned))
}

// traceSweepBegin emits the sweep-phase opening event.
func (w *World) traceSweepBegin(kind cycleKind) {
	if !w.tracer.Enabled() {
		return
	}
	lazy := int64(0)
	if w.cfg.LazySweep {
		lazy = 1
	}
	w.tracer.Emit(trace.EvSweepBegin, int64(w.collections+1), lazy, int64(kind))
}

// traceCycleEnd emits the sweep-phase and cycle closing events.
func (w *World) traceCycleEnd(st CollectionStats) {
	if !w.tracer.Enabled() {
		return
	}
	w.tracer.Emit(trace.EvSweepEnd,
		int64(st.Sweep.ObjectsFreed), int64(st.Sweep.BytesFreed), int64(st.SweepDeferredBlocks))
	w.tracer.Emit(trace.EvCycleEnd,
		int64(w.collections), int64(st.Sweep.ObjectsLive), int64(st.Sweep.BytesLive))
}
