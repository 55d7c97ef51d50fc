package core

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/alloc"
	"repro/internal/mark"
	"repro/internal/trace"
)

// Mostly-concurrent collection (Config.ConcurrentMark), after the
// design the paper cites as its pause-time companion (Boehm, Demers &
// Shenker, PLDI 1991 — reference [8]).
//
// A cycle has three phases:
//
//  1. Snapshot pause. The mutators stop, their caches flush, the roots
//     are scanned (serially, through w.Marker), and the resulting gray
//     set is handed to the marking machinery: the serial marker's own
//     stack at width 1, the parallel workers' shared queue otherwise.
//     The mutators then resume.
//  2. Background marking, in one of two shapes. Lock-chunked (width
//     1, the default on small heaps and single-core schedulers): a
//     driver goroutine repeatedly takes the world lock, drains a
//     bounded chunk of gray objects (MarkQuantum; sharded across the
//     parallel workers via mark.RunBounded when the snapshot's width
//     was > 1), releases the lock and yields. Detached
//     (ConcMarkWorkers > 1, see detached.go): background worker
//     goroutines pull chunks from the shared gray queue without the
//     world lock at all — heap words go atomic, mark bits are CAS,
//     and heap structure is guarded by a reader-writer lock. In both
//     shapes mutators run concurrently: their allocation fast path
//     touches no collector structure, their slow paths and heap stores
//     interleave under the locks above. Stores dirty their block's
//     card (storeLocked); fresh objects are born black at the
//     cache-refill commit point (they are zero-filled, so there is
//     nothing to scan at birth). Slow-path allocations repay marking
//     debt through the rate-based pacer (pacerAssistLocked) instead
//     of a fixed per-allocation chunk.
//  3. Bounded finale. When the gray set drains, the driver decides:
//     if the mutators have dirtied more blocks than the finale budget
//     and rescan passes remain, it stages a concurrent rescan of the
//     dirty set (clearing the cards) and keeps marking without
//     stopping anyone; otherwise it stops the world, rescans every
//     block dirtied since its last rescan, re-scans the (possibly
//     changed) roots, drains to the fixpoint, and sweeps. The pass cap
//     makes the finale provably bounded: the final pause rescans at
//     most the blocks dirtied during one drain interval (≤
//     concFinaleDirtyBudget after a converging pass, and never more
//     than the heap's block count), not the whole cycle's write set.
//
// Tricolor soundness under the lock-chunked model: every heap store
// and every mark chunk runs under w.mu, so stores and scans are
// totally ordered. A store into an already-scanned (black) object
// dirties its block, and a block dirtied after its last rescan is
// always rescanned with the world stopped; a store into an unscanned
// object is seen by that object's later scan; objects allocated during
// the cycle are born black and zero-filled. Hence no reachable-at-
// finale object can be missed — the adversarial lost-object test pins
// exactly the hiding pattern (store the only pointer into a black
// object, erase the gray path).
//
// Under the detached model stores and scans are no longer ordered by
// w.mu, but the argument survives with "totally ordered" weakened to
// "data-race-free and card-visible": a scan racing a store reads
// either value atomically, and the store's card (dirtied under w.mu)
// is rescanned before the cycle can finish, so the published pointer
// is found either by the racing scan or by the rescan. DESIGN.md §5h
// has the full soundness argument; the lost-object battery runs
// against both shapes.

const (
	// concMaxPasses caps the concurrent dirty-rescan passes before the
	// finale runs regardless; with the world stopped one final rescan
	// always suffices, so the cap bounds pause work, not correctness.
	concMaxPasses = 4
	// concFinaleDirtyBudget is the dirty-block count below which the
	// driver stops rescanning concurrently and runs the finale: few
	// enough blocks that their in-pause rescan is cheap.
	concFinaleDirtyBudget = 16
)

// StartConcurrentCycle begins a mostly-concurrent collection and
// returns with the mutators resumed and marking pending: advance it
// with ConcurrentStep (as tests do, deterministically) or let
// allocation-triggered cycles drive themselves on a background
// goroutine. No-op if a cycle is already active. Outside
// ConcurrentMark mode it is an error.
func (w *World) StartConcurrentCycle() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.cfg.ConcurrentMark {
		return fmt.Errorf("core: StartConcurrentCycle outside concurrent-mark mode")
	}
	w.startConcurrentLocked(false)
	return nil
}

// ConcurrentActive reports whether a concurrent cycle is in progress.
func (w *World) ConcurrentActive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.concActive
}

// ConcurrentStep advances an active cycle by one bounded chunk of up
// to quantum objects (MarkQuantum if quantum <= 0) and returns true
// when the cycle completed — the step that finds the gray set drained
// and the dirty backlog small runs the finale itself. Returns true
// immediately if no cycle is active.
func (w *World) ConcurrentStep(quantum int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.concChunkLocked(quantum)
}

// FinishConcurrentCycle forces an active cycle's finale now and
// returns its statistics (the last collection's if none is active).
func (w *World) FinishConcurrentCycle() CollectionStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stwFinishConcurrent()
}

// startConcurrentLocked opens a cycle: the snapshot pause. Callers
// hold w.mu; mutators are stopped and resumed here. No-op if a cycle
// is already active.
func (w *World) startConcurrentLocked(minor bool) {
	if w.concActive {
		return
	}
	minor = minor && w.cfg.Generational
	w.stopMutatorsLocked()
	defer w.resumeMutatorsLocked()
	w.concStart = time.Now()
	kind := int64(3)
	if minor {
		kind = 4
	}
	w.tracer.Emit(trace.EvCycleBegin, int64(w.collections+1), int64(w.Heap.Stats().HeapBytes), kind)
	// Deferred lazy sweeps hold the previous cycle's liveness in their
	// mark bits, and central bump spans hold carved-but-unissued slots;
	// both must land before this cycle observes any bits.
	w.Heap.FinishSweep()
	w.Heap.FlushSpans()
	w.Blacklist.BeginCycle()
	workers := w.effectiveMarkWorkers()
	// Detachment resolution: an explicit ConcMarkWorkers wins, 0 defers
	// to the same adaptive table the mark width uses. Width 1 — small
	// heaps, single-core schedulers, or an explicit pin — keeps the
	// lock-chunked cycle byte-for-byte. A detached cycle needs at least
	// its worker count of marker shards.
	cw := w.cfg.ConcMarkWorkers
	if cw == 0 {
		cw = AutoMarkWorkers(runtime.GOMAXPROCS(0), w.Heap.Stats().BytesLive)
	}
	detached := cw > 1
	if detached && workers < cw {
		workers = cw
	}
	w.lastMarkWorkers = workers
	w.concPar = workers > 1
	w.concWorkers = 0
	if detached {
		w.concWorkers = cw
	}
	if w.concPar {
		w.ensureParLocked(workers)
		w.par.ResetCycle()
		w.concStealsStart = w.par.Steals()
	}
	w.pacerInitLocked(minor)
	if !minor && w.cfg.Generational {
		// Sticky mark bits are the old generation; a full cycle starts
		// from a clean slate.
		w.Heap.ClearMarks()
	}
	w.Marker.Reset()
	if w.prov.enabled {
		w.Marker.StartRecording()
		if w.concPar {
			w.par.StartRecording()
		}
	}
	// Minor cycles rescan the remembered set — blocks dirtied since the
	// last collection. Stage it for the background drain, then clear
	// the cards so the cycle's own barrier records only in-cycle stores.
	w.concDirty = w.concDirty[:0]
	w.concDirtyBlocks = 0
	if minor {
		w.Heap.DirtyBlocks(func(bi int) {
			w.concDirtyBlocks++
			if w.concPar {
				w.par.AddDirtyBlock(bi)
			} else {
				w.concDirty = append(w.concDirty, bi)
			}
		})
	}
	w.Heap.ClearDirty()
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), int64(workers), kind)
	// Snapshot root scan: serial, under the pause. The gray set it
	// builds is handed to the parallel workers (or left on the serial
	// marker's own stack at width 1).
	w.markRoots()
	if w.concPar {
		w.par.AddGrays(w.Marker.TakePending())
	}
	w.concSnapMarked = w.concMarkStatsLocked().ObjectsMarked
	w.concActive = true
	w.concMinor = minor
	w.concPasses = 0
	w.concGen++
	if detached {
		// Open the detached phase before the mutators resume: the
		// snapshot's staged gray set is published to
		// the shared queue (detached workers pop it directly, never
		// entering through RunBounded), and one goroutine per worker
		// index starts pulling chunks. The workers capture this cycle's
		// marker and generation, so a later rebuild or cycle never
		// aliases them; they exit when concGenA stops matching.
		w.concDetached = true
		w.par.FlushStaged()
		w.concGenA.Store(w.concGen)
		for i := 0; i < cw; i++ {
			go w.markWorker(w.par, w.concGen, i)
		}
	}
	w.concSnapNs = time.Since(w.concStart).Nanoseconds()
}

// driveConcurrent is the background marking driver: while its cycle is
// the active one, alternately drain a bounded chunk under the world
// lock and yield the processor to the mutators. A cycle finished by
// anyone else (explicit Collect, allocation-pressure finale) bumps
// concGen, and the stale driver exits on its next look.
func (w *World) driveConcurrent(gen uint64) {
	for {
		w.mu.Lock()
		if !w.concActive || w.concGen != gen {
			w.mu.Unlock()
			return
		}
		done := w.concChunkLocked(w.cfg.MarkQuantum)
		w.mu.Unlock()
		if done {
			return
		}
		runtime.Gosched()
	}
}

// concChunkLocked advances the cycle by one bounded chunk and returns
// whether the cycle is now complete. When the chunk drains the gray
// set it either stages another concurrent rescan pass (dirty backlog
// above the finale budget, passes remaining) or runs the finale.
// Callers hold w.mu.
func (w *World) concChunkLocked(quantum int) bool {
	if !w.concActive {
		return true
	}
	if quantum <= 0 {
		quantum = w.cfg.MarkQuantum
	}
	if w.concDetached {
		// Detached cycles advance through the quiescence-certificate
		// path: the background workers do the marking, this caller
		// contributes an assist chunk and checks for the fixpoint.
		return w.concDetachedAdvanceLocked(quantum)
	}
	before := w.concMarkStatsLocked().BytesMarked
	drained := w.concDrainLocked(quantum)
	// Credit the chunk's marked bytes to the pacer: the background
	// driver and mutator assists share this accounting, so a healthy
	// driver keeps mutator credit positive and assists free.
	if d := w.concMarkStatsLocked().BytesMarked - before; d != 0 {
		w.pacerCredit.Add(int64(d))
	}
	if !drained {
		return false
	}
	// Gray set drained. Rescan concurrently while the backlog is large
	// and passes remain; otherwise stop the world for the finale.
	if w.concPasses < concMaxPasses && w.Heap.CountDirty() > concFinaleDirtyBudget {
		w.concPasses++
		w.stageDirtyRescanLocked()
		return false
	}
	w.stwFinishConcurrent()
	return true
}

// concDrainLocked drains up to quantum objects of gray work and
// reports whether the gray set is now empty. Callers hold w.mu.
func (w *World) concDrainLocked(quantum int) bool {
	if w.concPar {
		return w.par.RunBounded(quantum)
	}
	// Serial width: staged dirty-block rescans first (a whole block per
	// unit of work — coarse, but dirty rescans are rare), then the
	// marker's own stack.
	blocks := quantum/64 + 1
	for len(w.concDirty) > 0 && blocks > 0 {
		bi := w.concDirty[len(w.concDirty)-1]
		w.concDirty = w.concDirty[:len(w.concDirty)-1]
		w.Heap.ForEachMarkedObject(bi, w.Marker.ScanObject)
		blocks--
	}
	if len(w.concDirty) > 0 {
		return false
	}
	return w.Marker.DrainN(quantum)
}

// stageDirtyRescanLocked moves the current dirty set into the cycle's
// gray work and clears the cards, so blocks dirtied after this point
// are caught by the next pass or the finale. Callers hold w.mu.
func (w *World) stageDirtyRescanLocked() int {
	n := 0
	w.Heap.DirtyBlocks(func(bi int) {
		n++
		if w.concPar {
			w.par.AddDirtyBlock(bi)
		} else {
			w.concDirty = append(w.concDirty, bi)
		}
	})
	w.Heap.ClearDirty()
	return n
}

// stwFinishConcurrent stops the mutators and runs the finale. Callers
// hold w.mu with the mutators running.
func (w *World) stwFinishConcurrent() CollectionStats {
	if !w.concActive {
		return w.last
	}
	w.stopMutatorsLocked()
	defer w.resumeMutatorsLocked()
	return w.finishConcurrentLocked()
}

// finishConcurrentLocked is the bounded final pause. Callers hold w.mu
// with every mutator stopped and flushed (the finale sweeps; see
// collectLocked).
func (w *World) finishConcurrentLocked() CollectionStats {
	if !w.concActive {
		return w.last
	}
	finaleStart := time.Now()
	// A detached phase must be fully retired before anything below
	// reads shard statistics or mutates heap structure bare: after
	// this, no background worker touches the heap (see detached.go).
	w.retireDetachedLocked()
	beforeFinale := w.concMarkStatsLocked().ObjectsMarked
	kind := int64(3)
	if w.concMinor {
		kind = 4
	}
	// Rescan every block dirtied since its last rescan, re-scan the
	// (possibly changed) roots, and drain to the fixpoint — with the
	// world stopped, one pass reaches it.
	finalDirty := w.stageDirtyRescanLocked()
	w.markRoots()
	if w.concPar {
		w.par.AddGrays(w.Marker.TakePending())
		w.par.RunBounded(math.MaxInt)
	} else {
		for len(w.concDirty) > 0 {
			bi := w.concDirty[len(w.concDirty)-1]
			w.concDirty = w.concDirty[:len(w.concDirty)-1]
			w.Heap.ForEachMarkedObject(bi, w.Marker.ScanObject)
		}
		w.Marker.Drain()
	}
	pauseMark := time.Since(finaleStart)
	mstats := w.concMarkStatsLocked()
	w.traceMarkEnd(mstats)
	for a := range w.finalizable {
		if !w.Heap.Marked(a) {
			w.reclaimed = append(w.reclaimed, a)
			delete(w.finalizable, a)
		}
	}
	w.traceSweepBegin(kind)
	sweepStart := time.Now()
	// Spans carved during the cycle hold unissued (born-black) slots;
	// returning them also drops their mark bits, so the sweep's survey
	// counts only real objects.
	w.Heap.FlushSpans()
	var sweep alloc.SweepResult
	if w.cfg.Generational {
		sweep = w.Heap.SweepSticky()
	} else {
		sweep = w.Heap.Sweep()
	}
	pauseSweep := time.Since(sweepStart)
	w.Heap.ResetSinceGC()
	w.Heap.ClearDirty()
	if w.cfg.ExpireAge > 0 {
		w.Blacklist.Expire(w.cfg.ExpireAge)
	}
	w.collections++
	if w.concMinor {
		w.minorsSinceFull++
	} else {
		w.minorsSinceFull = 0
	}
	w.concActive = false
	w.concGen++ // retire any background driver still scheduled
	provRecs := w.harvestProvenance(kind)
	if w.concPar {
		w.met.concMarkSteals.Add(w.par.Steals() - w.concStealsStart)
	}
	pauseFinal := time.Since(finaleStart)
	w.tracer.Emit(trace.EvFinalPause, pauseFinal.Nanoseconds(), int64(finalDirty), int64(w.concPasses))
	concPhase := finaleStart.Sub(w.concStart).Nanoseconds() - w.concSnapNs
	if concPhase < 0 {
		concPhase = 0
	}
	w.last = CollectionStats{
		Mark:                mstats,
		Sweep:               sweep,
		Blacklist:           w.Blacklist.Stats(),
		Duration:            time.Duration(w.concSnapNs) + pauseFinal,
		HeapBytes:           w.Heap.Stats().HeapBytes,
		Minor:               w.concMinor,
		DirtyBlocks:         w.concDirtyBlocks,
		Promoted:            mstats.ObjectsMarked,
		Concurrent:          true,
		RescanPasses:        w.concPasses,
		FinalDirtyBlocks:    finalDirty,
		MarkedConcurrent:    beforeFinale - w.concSnapMarked,
		ConcWorkers:         w.concWorkers,
		ConcPhaseNs:         concPhase,
		PauseSnapshotNs:     w.concSnapNs,
		PauseFinalNs:        pauseFinal.Nanoseconds(),
		PauseMarkNs:         pauseMark.Nanoseconds(),
		PauseSweepNs:        pauseSweep.Nanoseconds(),
		PauseStopNs:         w.lastStopNs,
		SweepDeferredBlocks: w.Heap.SweepPending(),
		Provenance:          w.prov.enabled,
		ProvenanceRecords:   provRecs,
	}
	if !w.concMinor {
		w.last.Promoted = 0
	}
	w.traceCycleEnd(w.last)
	w.fireHook()
	return w.last
}

// concMarkStatsLocked sums the cycle's mark statistics: the serial
// marker's (snapshot and finale root scans, serial-width chunks) plus
// the parallel workers' running totals when the cycle is sharded.
func (w *World) concMarkStatsLocked() mark.Stats {
	s := w.Marker.Stats()
	if !w.concPar {
		return s
	}
	p := w.par.AggStats()
	s.WordsScanned += p.WordsScanned
	s.Candidates += p.Candidates
	s.ObjectsMarked += p.ObjectsMarked
	s.BytesMarked += p.BytesMarked
	s.FieldsScanned += p.FieldsScanned
	s.FalseNearHeap += p.FalseNearHeap
	s.AtomicSkipped += p.AtomicSkipped
	s.InteriorResolved += p.InteriorResolved
	return s
}
