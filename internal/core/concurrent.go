package core

import (
	"fmt"
	"runtime"
	"time"

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
//  1. Snapshot pause. The mutators park, the cycle opens
//     (openCycleLocked), the slots their caches hold are marked
//     (markHeldLocked: the sweep at the finale must keep them, and
//     whatever the caches carve after this is born black), the roots
//     are scanned (serially, through w.Marker), and the resulting gray
//     set is handed to the marking
//     machinery: the serial marker's own stack in the serial shape, the
//     detached workers' shared queue otherwise. A minor cycle also
//     stages its remembered set — the blocks whose cards were dirtied
//     since the last collection — and clears the cards. The mutators
//     then resume.
//  2. Background marking, in one of two shapes. Serial lock-chunked
//     (resolved worker count 1: the default on small heaps and
//     single-core schedulers, and the reference of the differentials):
//     whoever holds the world lock — a driver goroutine for
//     allocation-triggered cycles, ConcurrentStep for tests, an
//     assisting allocation — drains a bounded chunk of gray objects
//     from w.Marker (MarkQuantum), and releases the lock. Detached
//     (resolved count > 1, see detached.go): background worker
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
//     marking drains to the fixpoint, and the cycle closes
//     (closeCycleLocked: the same sweep and bookkeeping every collection
//     ends with). What the pause marks is what became reachable only
//     from roots since the snapshot, plus whatever gray objects a forced
//     finale found left.
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
// scan of that object finds the value marked already. Under the serial
// shape every store and every mark chunk runs under w.mu and the
// argument is about a total order. Under the detached shape
// scans race stores, data-race-free because both sides are atomic, and
// the argument does not care which value a racing scan reads: the new
// value is marked before it is written, the old value's object is
// either reachable some other way or garbage. DESIGN.md §5g/§5h have
// the full argument; the lost-object battery runs every case against
// both shapes, and a closure oracle re-derives "marked ⊇ reachable" at
// every finale of the concurrent batteries.
//
// Cards are not part of a cycle. They stay what the paper's §3.1
// citation [13] uses them for: the remembered set *between*
// generational collections, consumed at the snapshot (above).

// StartConcurrentCycle begins a mostly-concurrent collection and
// returns with the mutators resumed and marking pending: advance it
// with ConcurrentStep (as tests do, deterministically — with
// ConcMarkWorkers: 1 no goroutine is involved) or let
// allocation-triggered cycles drive themselves on a background
// goroutine. No-op if a cycle is already active. Outside
// ConcurrentMark mode it is an error.
func (w *World) StartConcurrentCycle() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.cfg.ConcurrentMark {
		return fmt.Errorf("core: StartConcurrentCycle outside concurrent-mark mode")
	}
	w.startConcurrentLocked(kindConcurrent)
	return nil
}

// ConcurrentActive reports whether a concurrent cycle is in progress.
func (w *World) ConcurrentActive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cyc.active
}

// ConcurrentStep advances an active cycle by one bounded chunk of up
// to quantum objects (MarkQuantum if quantum <= 0) and returns true
// when the cycle completed — the step that finds the gray set drained
// runs the finale itself. Returns true immediately if no cycle is
// active.
func (w *World) ConcurrentStep(quantum int) bool {
	w.mu.Lock()
	done := w.concChunkLocked(quantum)
	detached := w.cyc.detached
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
	w.landCycleLocked()
	return w.last
}

// startConcurrentLocked opens a concurrent cycle and runs its snapshot
// pause. Callers hold w.mu; mutators are stopped and resumed here.
// No-op if a cycle is already active.
func (w *World) startConcurrentLocked(kind cycleKind) {
	if w.cyc.active {
		return
	}
	if !w.cfg.Generational {
		kind = kindConcurrent
	}
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	c := w.openCycleLocked(kind)
	w.markHeldLocked()
	// Shape resolution: an explicit ConcMarkWorkers wins, 0 defers to
	// the adaptive table the stop-the-world mark width uses. A count of 1
	// — small heaps, single-core schedulers, or an explicit pin — is the
	// serial lock-chunked cycle on w.Marker; above 1 the cycle is
	// detached, on a sharded marker of at least that many shards.
	cw := w.cfg.ConcMarkWorkers
	if cw == 0 {
		cw = AutoMarkWorkers(runtime.GOMAXPROCS(0), w.Heap.Stats().BytesLive)
	}
	workers := 1
	if cw > 1 {
		c.detached, c.workers = true, cw
		workers = max(cw, w.effectiveMarkWorkers())
		w.ensureParLocked(workers)
		w.par.ResetCycle()
		c.stealsStart = w.par.Steals()
	}
	w.lastMarkWorkers = workers
	w.pacerInitLocked()
	w.Marker.Reset()
	if w.prov.enabled {
		w.Marker.StartRecording()
		if c.detached {
			w.par.StartRecording()
		}
	}
	// Minor cycles rescan the remembered set — blocks dirtied since the
	// last collection. Stage it for the background drain, then clear the
	// cards: the cycle's own stores are shaded, not carded.
	if kind.minor() {
		w.Heap.DirtyBlocks(func(bi int) {
			c.dirtyBlocks++
			if c.detached {
				w.par.AddDirtyBlock(bi)
			} else {
				c.dirty = append(c.dirty, bi)
			}
		})
	}
	w.Heap.ClearDirty()
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), int64(workers), int64(kind))
	// Snapshot root scan: serial, under the pause. The gray set it
	// builds is handed to the detached workers (or left on the serial
	// marker's own stack).
	w.markRoots()
	if c.detached {
		w.par.AddGrays(w.Marker.TakePending())
	}
	c.snapMarked = w.concMarkStatsLocked().ObjectsMarked
	c.gen++
	c.active = true
	if c.detached {
		// Open the detached phase before the mutators resume: the
		// snapshot's staged gray set is published to the shared queue
		// (detached workers pop it directly), and one goroutine per worker
		// index starts pulling chunks. The workers capture this cycle's
		// marker, generation and retire channel, so a later rebuild or
		// cycle never aliases them; they exit when genA stops matching.
		w.par.FlushStaged()
		c.genA.Store(c.gen)
		for i := 0; i < cw; i++ {
			go w.markWorker(w.par, c.gen, i, c.retire)
		}
	}
	c.snapNs = time.Since(c.start).Nanoseconds()
}

// driveConcurrent is the background driver: while its cycle is the
// active one, alternately advance it under the world lock and yield the
// processor to the mutators. A serial cycle is advanced by marking a
// bounded chunk. A detached cycle's marking belongs to its workers, and
// a chunk marked here would hold w.mu — and with it every Store and
// slow-path allocation that arrives meanwhile — for its whole length,
// so there the driver only hands the barrier's grays to the workers and
// asks whether the cycle is over. A cycle finished by anyone else
// (explicit Collect, allocation-pressure finale) bumps gen, and the
// stale driver exits on its next look.
func (w *World) driveConcurrent(gen uint64) {
	for {
		w.mu.Lock()
		if !w.cyc.active || w.cyc.gen != gen {
			w.mu.Unlock()
			return
		}
		var done bool
		if w.cyc.detached {
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
	c := &w.cyc
	if !c.active {
		return true
	}
	if quantum <= 0 {
		quantum = w.cfg.MarkQuantum
	}
	if c.detached {
		// The background workers do the marking; this caller contributes
		// an assist chunk and asks for the quiescence certificate.
		if _, bytes := w.par.AssistChunk(quantum); bytes > 0 {
			c.pacerCredit.Add(int64(bytes))
		}
		return w.concCertifyLocked()
	}
	// Serial shape: a minor cycle's staged remembered set first (a whole
	// block per unit of work — coarse, but it is staged once), then the
	// marker's own stack, which also holds what the barrier shaded since
	// the last chunk. The chunk's marked bytes are the pacer's credit:
	// the background driver and mutator assists share this accounting, so
	// a healthy driver keeps mutator credit positive and assists free.
	before := w.Marker.Stats().BytesMarked
	for blocks := quantum/64 + 1; len(c.dirty) > 0 && blocks > 0; blocks-- {
		w.scanStagedBlockLocked()
	}
	drained := len(c.dirty) == 0 && w.Marker.DrainN(quantum)
	if d := w.Marker.Stats().BytesMarked - before; d != 0 {
		c.pacerCredit.Add(int64(d))
	}
	if !drained {
		return false
	}
	w.landCycleLocked()
	return true
}

// scanStagedBlockLocked rescans the marked objects of the newest block
// on the serial shape's staged remembered set. Callers hold w.mu.
func (w *World) scanStagedBlockLocked() {
	c := &w.cyc
	bi := c.dirty[len(c.dirty)-1]
	c.dirty = c.dirty[:len(c.dirty)-1]
	w.Heap.ForEachMarkedObject(bi, w.Marker.ScanObject)
}

// shadeLocked is the insertion barrier: v is about to be stored at a.
// If v is the address of an unmarked object (under the world's pointer
// policy, as a scan of the stored-into word would judge it), the object
// is marked now and left gray on the marker that is legal under w.mu —
// the serial marker, or a detached cycle's assist shard, by
// compare-and-swap — for the paths that drain it anyway: the next
// chunk, assist or certificate step, and the finale however it is
// forced. A near-heap non-pointer is blacklisted, as a scan would.
// Callers hold w.mu with a concurrent cycle active.
func (w *World) shadeLocked(a mem.Addr, v mem.Word) {
	var org mark.RootOrigin
	var index int32
	if w.prov.enabled {
		org, index = w.storeOriginLocked(a)
	}
	var won bool
	if w.cyc.detached {
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

// finishConcurrentLocked is the bounded final pause: the rest of the
// mark step, then the close. Callers hold w.mu with a cycle active and
// every mutator parked (landCycleLocked is the way in). What their
// caches hold needs no marking here: it was marked at the snapshot or
// born black since.
func (w *World) finishConcurrentLocked() CollectionStats {
	c := &w.cyc
	c.pauseStart = time.Now()
	// A detached phase must be fully retired before anything below
	// reads shard statistics or mutates heap structure bare: after
	// this, no background worker touches the heap (see detached.go).
	w.retireDetachedLocked()
	c.active = false
	c.preFinaleMarked = w.concMarkStatsLocked().ObjectsMarked
	// Scan the (possibly changed) roots again and drain to the fixpoint.
	// However the finale was reached — certificate, exhausted memory, an
	// explicit collection — whatever gray objects are left come with it:
	// the serial marker's stack holds its own, DrainKept gathers the
	// workers' kept stacks, the queue and the assist shard's and drains
	// them here, on the goroutine that holds the pause.
	w.markRoots()
	if c.detached {
		w.par.AddGrays(w.Marker.TakePending())
		w.par.DrainKept()
	} else {
		for len(c.dirty) > 0 {
			w.scanStagedBlockLocked()
		}
		w.Marker.Drain()
	}
	c.markNs = time.Since(c.pauseStart).Nanoseconds()
	c.marks = w.concMarkStatsLocked()
	return w.closeCycleLocked()
}

// concMarkStatsLocked sums the cycle's mark statistics: the serial
// marker's (snapshot and finale root scans, serial chunks) plus the
// shards' running totals when the cycle is detached.
func (w *World) concMarkStatsLocked() mark.Stats {
	s := w.Marker.Stats()
	if w.cyc.detached {
		s.Add(w.par.AggStats())
	}
	return s
}
