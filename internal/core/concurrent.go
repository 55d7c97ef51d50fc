package core

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/alloc"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Mostly-concurrent collection (Config.ConcurrentMark), after the
// design the paper cites as its pause-time companion (Boehm, Demers &
// Shenker, PLDI 1991 — reference [8]). That design rescans dirty pages
// because virtual-memory hardware is all it can see of the mutator's
// writes; this machine sees every Store, so the barrier here is exact.
//
// A cycle has three phases:
//
//  1. Snapshot pause. The mutators stop, their caches flush, the roots
//     are scanned (serially, through w.Marker), and the resulting gray
//     set is handed to the marking machinery: the serial marker's own
//     stack at width 1, the parallel workers' shared queue otherwise.
//     A minor cycle also stages its remembered set — the blocks whose
//     cards were dirtied since the last collection — and clears the
//     cards. The mutators then resume.
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
//     interleave under the locks above. A store shades the value it
//     writes (storeLocked → shadeLocked): if that is the address of an
//     unmarked object, the object is marked on the spot and left gray
//     for the markers. Fresh objects are born black at the cache-refill
//     commit point (they are zero-filled, so there is nothing to scan
//     at birth). Slow-path allocations repay marking debt through the
//     rate-based pacer (pacerAssistLocked) instead of a fixed
//     per-allocation chunk.
//  3. Final pause. When the gray set drains — or an allocation runs out
//     of memory, or an explicit collection wants the cycle over — the
//     world stops, the (possibly changed) roots are scanned again, the
//     marking drains to the fixpoint, and the heap is swept. What the
//     pause marks is what became reachable only from roots since the
//     snapshot, plus whatever gray objects a forced finale found left.
//
// Tricolor soundness (Dijkstra's insertion barrier). The invariant is
// that no black object — scanned, or allocated during the cycle — holds
// the only pointer to a white one when the finale's drain ends. A
// pointer reaches a black object's field in one way only: a store, and
// the store shaded its value, so the target is gray or black from that
// moment on, whichever of its old paths the mutator then erases. A
// pointer held only in a root (a register, a stack word, a root
// segment) needs no barrier: roots are scanned again with the world
// stopped. An object allocated during the cycle is born marked and
// zero-filled, so it holds nothing until a store — shaded — puts it
// there. A store into a white or gray object is shaded too; the later
// scan of that object finds the value marked already. Under the
// lock-chunked shapes every store and every mark chunk runs under w.mu
// and the argument is about a total order. Under the detached shape
// scans race stores, data-race-free because both sides are atomic, and
// the argument does not care which value a racing scan reads: the new
// value is marked before it is written, the old value's object is
// either reachable some other way or garbage. DESIGN.md §5g/§5h have
// the full argument; the lost-object battery runs every case against
// all three shapes, and a closure oracle re-derives "marked ⊇
// reachable" at every finale of the concurrent batteries.
//
// Cards are not part of a cycle. They stay what the paper's §3.1
// citation [13] uses them for: the remembered set *between*
// generational collections, consumed at the snapshot (above), and the
// barrier of the incremental ancestor (incremental.go).

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
// runs the finale itself. Returns true immediately if no cycle is
// active.
func (w *World) ConcurrentStep(quantum int) bool {
	w.mu.Lock()
	done := w.concChunkLocked(quantum)
	detached := w.concDetached
	w.mu.Unlock()
	if !done && detached {
		// What is left of the gray set may sit on a worker's stack, out
		// of this caller's reach: let the workers run.
		runtime.Gosched()
	}
	return done
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
	w.concHeapWaitNs = 0
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

// driveConcurrent is the background driver: while its cycle is the
// active one, alternately advance it under the world lock and yield the
// processor to the mutators. A lock-chunked cycle is advanced by
// marking a bounded chunk. A detached cycle's marking belongs to its
// workers, and a chunk marked here would hold w.mu — and with it every
// Store and slow-path allocation that arrives meanwhile — for its whole
// length, so there the driver only hands the barrier's grays to the
// workers and asks whether the cycle is over. A cycle finished by
// anyone else (explicit Collect, allocation-pressure finale) bumps
// concGen, and the stale driver exits on its next look.
func (w *World) driveConcurrent(gen uint64) {
	for {
		w.mu.Lock()
		if !w.concActive || w.concGen != gen {
			w.mu.Unlock()
			return
		}
		var done bool
		if w.concDetached {
			done = w.concCertifyLocked()
		} else {
			done = w.concChunkLocked(w.cfg.MarkQuantum)
		}
		w.mu.Unlock()
		if done {
			return
		}
		runtime.Gosched()
	}
}

// concChunkLocked advances the cycle by one bounded chunk of marking
// and returns whether the cycle is now complete: the chunk that finds
// the gray set drained runs the finale. Callers hold w.mu.
func (w *World) concChunkLocked(quantum int) bool {
	if !w.concActive {
		return true
	}
	if quantum <= 0 {
		quantum = w.cfg.MarkQuantum
	}
	if w.concDetached {
		// The background workers do the marking; this caller contributes
		// an assist chunk and asks for the quiescence certificate.
		if _, bytes := w.par.AssistChunk(quantum); bytes > 0 {
			w.pacerCredit.Add(int64(bytes))
		}
		return w.concCertifyLocked()
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
	w.stwFinishConcurrent()
	return true
}

// concDrainLocked drains up to quantum objects of gray work and
// reports whether the gray set is now empty. Grays the barrier shaded
// since the last chunk are on the marker that shaded them: the serial
// marker's own stack, drained here, or the assist shard's, which
// RunBounded collects. Callers hold w.mu.
func (w *World) concDrainLocked(quantum int) bool {
	if w.concPar {
		return w.par.RunBounded(quantum)
	}
	// Serial width: a minor cycle's staged remembered set first (a whole
	// block per unit of work — coarse, but it is staged once), then the
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

// shadeLocked is the insertion barrier: v is about to be stored at a.
// If v is the address of an unmarked object (under the world's pointer
// policy, as a scan of the stored-into word would judge it), the object
// is marked now and left gray on the marker that is legal under w.mu —
// the serial marker at width 1, the sharded marker's assist shard, by
// compare-and-swap, otherwise — for the paths that drain it anyway:
// the next chunk, assist or certificate step, and the finale however it
// is forced. A near-heap non-pointer is blacklisted, as a scan would.
// Callers hold w.mu with a concurrent cycle active.
func (w *World) shadeLocked(a mem.Addr, v mem.Word) {
	var org mark.RootOrigin
	var index int32
	if w.prov.enabled {
		org, index = w.storeOriginLocked(a)
	}
	var won bool
	if w.concPar {
		won = w.par.Shade(org, index, v)
	} else {
		won = w.Marker.Shade(org, index, v)
	}
	if won {
		w.met.barrierShades.Inc()
		if w.tracer.Enabled() {
			w.tracer.Emit(trace.EvBarrierShade, int64(a), int64(v), 0)
		}
	}
}

// storeOriginLocked names the word at a for a provenance record: the
// heap object it lies in and its index there, or the root segment.
// Only a recording cycle's barrier asks.
func (w *World) storeOriginLocked(a mem.Addr) (mark.RootOrigin, int32) {
	if base, ok := w.Heap.FindObject(a, true); ok {
		return mark.RootOrigin{Kind: mark.RootNone, Base: base}, int32((a - base) / mem.WordBytes)
	}
	for i, s := range w.Space.Roots() {
		if s.Contains(a) {
			return mark.RootOrigin{Kind: mark.RootSegment, Src: int32(i), Base: s.Base()}, int32((a - s.Base()) / mem.WordBytes)
		}
	}
	return mark.RootOrigin{}, 0
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
	// Scan the (possibly changed) roots again and drain to the fixpoint.
	// However the finale was reached — certificate, exhausted memory, an
	// explicit collection — whatever gray objects are left come with it:
	// the serial marker's stack holds its own, RunBounded starts from the
	// workers' kept stacks and collects the assist shard's.
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
	if w.finaleAudit != nil {
		w.finaleAudit()
	}
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
	w.tracer.Emit(trace.EvFinalPause, pauseFinal.Nanoseconds(), int64(mstats.ObjectsMarked-beforeFinale), 0)
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
		HeapLockWaitNs:      w.concHeapWaitNs,
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
	} else if w.concDirtyBlocks > 0 {
		w.last.RescanPasses = 1 // the remembered set, staged at the snapshot
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
