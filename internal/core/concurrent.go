package core

import (
	"fmt"
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
//     (markHeldLocked: the sweep at the finale must keep them), and the
//     roots are scanned onto w.Marker, whose stack is the cycle's gray
//     set from then on. The mutators then resume.
//  2. Marking between the pauses. An allocation slow path that owes
//     the pacer marking (pacerAssistLocked), or a ConcurrentStep,
//     drains a bounded chunk of gray objects from w.Marker
//     (MarkQuantum) under the world lock and releases it. Nothing else
//     marks: the collector starts no goroutine, and each chunk runs on
//     a goroutine that allocates or steps. Mutators run between chunks:
//     their allocation fast path touches no collector structure, and
//     their slow paths and heap stores take the world lock. A store
//     shades the value it writes (storeLocked → shadeLocked): if that
//     is the address of an unmarked object, the object is marked on the
//     spot and left gray for the next chunk. Fresh objects are zero-filled, so there is nothing to
//     scan at birth. One whose caller gets a bare address is born
//     black, at the cache carve or in allocateLocked; one AllocateRooted
//     stores into a root slot is born white, and its carve marks
//     nothing. A cache records which it holds (allocCache.black), and a
//     plain allocation takes only black slots. Slow-path allocations
//     repay marking debt through the pacer in proportion to what they
//     allocate, not by a fixed per-allocation chunk.
//  3. Final pause. When the gray set drains — the chunk that drains it
//     runs the finale on its own goroutine — or an allocation runs out
//     of memory, or an explicit collection wants the cycle over, the
//     world stops, the (possibly changed) roots are scanned again, the
//     marking drains to the fixpoint on the goroutine that holds the
//     pause, the slots the caches hold are marked (rooted carves left
//     them white), and the cycle closes (closeCycleLocked: the same
//     sweep and bookkeeping every collection ends with). What the pause
//     marks is what became reachable only from roots since the
//     snapshot — rooted fresh objects still rooted among it — plus
//     whatever gray objects a forced finale found left.
//
// There is one marker, as in [8]: every chunk runs on w.Marker under
// w.mu. Worker goroutines that marked without the world lock, by
// compare-and-swap, were measured against it and deleted — on two
// processors they lost on every end-to-end metric that moved — and so
// was the background goroutine that drove those chunks beside the
// mutators: it only took turns with them on w.mu, and every store that
// met it mid-chunk waited (DESIGN.md §5g and §5h have the readings).
// The trade: a cycle that stops receiving allocation stays open, its
// stores still taking the barrier, until Collect, FinishConcurrentCycle,
// a measurement or exhaustion lands it. Nothing waits on its reclaim,
// because nothing is allocating.
//
// Tricolor soundness (Dijkstra's insertion barrier). The invariant is
// that no black object — scanned, or allocated during the cycle — holds
// the only pointer to a white one when the finale's drain ends. A
// pointer reaches a black object's field in one way only: a store, and
// the store shaded its value, so the target is gray or black from that
// moment on, whichever of its old paths the mutator then erases. A
// pointer held only in a root (a register, a stack word, a root
// segment) needs no barrier: roots are scanned again with the world
// stopped. That covers an object AllocateRooted hands out, born white
// and held from birth by a root slot. An object whose caller gets a
// bare address is held by a Go local no root scan sees, so it is born
// marked; it is zero-filled, so it holds nothing until a store —
// shaded — puts it there. A store into a white or gray object is
// shaded too; the later scan of that object finds the value marked
// already. Every store and every mark chunk runs under w.mu, so the
// argument is about a total order. DESIGN.md §5g has the full
// argument; the lost-object battery runs every case, and a closure
// oracle re-derives "marked ⊇ reachable" at every finale of the
// concurrent batteries.
//
// A concurrent world is not generational: NewWorld rejects the pair,
// and cards, the remembered set of a minor cycle, play no part here.
//
// When a cycle starts is a headroom rule (triggerLocked): a concurrent
// world opens it once the free space the last close left has fallen to
// a runway of runwayShare of it — not after a fixed allocation
// interval, which re-marked the live graph while most of the free
// space still stood unused — and never earlier than the GCDivisor
// interval. The pacer then schedules the snapshot's marking across a
// share of the free space actually left at the snapshot
// (pacerInitLocked), not across the allocation that triggered the
// cycle: the cycle's own allocation can spend that space, and the
// trigger is only where that spending starts.
const (
	// pacerMaxRounds bounds how many assist chunks one slow-path
	// allocation runs repaying its debt, so a mutator that fell far
	// behind amortises the repayment over its next few allocations
	// instead of stalling once for all of it.
	pacerMaxRounds = 4
	// pacerShare is the share of the heap's free space at the snapshot
	// over which the pacer schedules the snapshot's marking. Chosen on
	// the curve (DESIGN.md §5h): up to about a half the pause holds
	// level; from 0.6 the cycle's own allocation runs out of memory
	// before marking ends ever more often, and each such cycle ends in a
	// long forced finale.
	pacerShare = 0.5
)

// StartConcurrentCycle begins a mostly-concurrent collection and
// returns with the mutators resumed and marking pending. Nothing marks
// it in the background: ConcurrentStep advances it a chunk at a time,
// the pacer assists of later allocations' slow paths do the same, and
// FinishConcurrentCycle or Collect lands it. No-op if a cycle is
// already active. Outside ConcurrentMark mode it is an error.
func (w *World) StartConcurrentCycle() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.cfg.ConcurrentMark {
		return fmt.Errorf("core: StartConcurrentCycle outside concurrent-mark mode")
	}
	w.startConcurrentLocked()
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
	defer w.mu.Unlock()
	return w.concChunkLocked(quantum)
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
func (w *World) startConcurrentLocked() {
	if w.cyc.active {
		return
	}
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	c := w.openCycleLocked(kindConcurrent)
	w.markHeldLocked()
	w.pacerInitLocked()
	w.Marker.Reset()
	if w.prov.enabled {
		w.Marker.StartRecording()
	}
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), 1, int64(kindConcurrent))
	// Snapshot root scan, under the pause: the gray set it builds stays on
	// the marker's stack for the chunks to drain.
	w.markRoots()
	c.snapMarked = w.Marker.Stats().ObjectsMarked
	c.active = true
	c.snapNs = time.Since(c.start).Nanoseconds()
}

// concChunkLocked advances the cycle by one bounded chunk of marking
// and returns whether the cycle is now complete: the chunk that finds
// the gray set drained runs the finale. The gray set is the marker's
// stack, which also holds what the barrier shaded since the last chunk.
// The chunk's marked bytes are the pacer's credit, whether an assist or
// a ConcurrentStep ran it. Callers hold w.mu.
func (w *World) concChunkLocked(quantum int) bool {
	c := &w.cyc
	if !c.active {
		return true
	}
	if quantum <= 0 {
		quantum = w.cfg.MarkQuantum
	}
	before := w.Marker.Stats().BytesMarked
	drained := w.Marker.DrainN(quantum)
	c.pacerCredit += int64(w.Marker.Stats().BytesMarked - before)
	if !drained {
		return false
	}
	w.landCycleLocked()
	return true
}

// shadeLocked is the insertion barrier: v is about to be stored at a.
// If v is the address of an unmarked object (under the world's pointer
// policy, as a scan of the stored-into word would judge it), the object
// is marked now and left gray on w.Marker for the paths that drain it
// anyway: the next chunk or assist, and the finale however it is
// forced. A near-heap non-pointer is blacklisted, as a scan would.
// Callers hold w.mu with a concurrent cycle active.
func (w *World) shadeLocked(a mem.Addr, v mem.Word) {
	var org mark.RootOrigin
	var index int32
	if w.prov.enabled {
		org, index = w.storeOriginLocked(a)
	}
	if w.Marker.Shade(org, index, v) {
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
// every mutator parked (landCycleLocked is the way in). The drain is
// followed by marking what the caches hold: a rooted carve since the
// snapshot left its slots white (mutator.go), and the sweep must keep
// them.
func (w *World) finishConcurrentLocked() CollectionStats {
	c := &w.cyc
	c.pauseStart = time.Now()
	c.active = false
	c.preFinaleMarked = w.Marker.Stats().ObjectsMarked
	// Scan the (possibly changed) roots again and drain to the fixpoint.
	// However the finale was reached — the chunk that drained the gray
	// set, exhausted memory, an explicit collection — whatever is left on
	// the marker's stack is marked here.
	w.markRoots()
	w.Marker.Drain()
	w.markHeldLocked()
	c.markNs = time.Since(c.pauseStart).Nanoseconds()
	c.marks = w.Marker.Stats()
	return w.closeCycleLocked()
}

// pacerInitLocked arms the pacer at a cycle's snapshot: zero credit,
// the allocation cursor at the current total, and a ratio provisioning
// the snapshot's marking across pacerShare of the heap's free space
// left at the snapshot — committed bytes less the last close's live
// bytes and everything allocated since, at least a page. That, not the
// trigger budget, is what the cycle's own allocation can spend before
// it runs out of memory, so it is what the schedule is measured
// against; a cycle that starts at the runway point (triggerLocked) has
// spent the rest already. The marking is at most the last close's live
// bytes plus everything allocated since (at least 64 KiB): on a heap
// that only grows, all of it is live, and counting only the last
// close's survivors left a cycle its marking after the free space was
// gone. Callers hold w.mu.
func (w *World) pacerInitLocked() {
	c := &w.cyc
	st := w.Heap.Stats()
	c.pacerLastAlloc = st.BytesAllocated
	c.pacerCredit = 0
	free := uint64(mem.PageBytes)
	if heap, used := uint64(st.HeapBytes), st.BytesLive+st.BytesSinceGC; heap > used+free {
		free = heap - used
	}
	work := max(st.BytesLive+st.BytesSinceGC, 64<<10)
	c.pacerRatio = float64(work) / (pacerShare * float64(free))
	w.met.pacerCreditB.Set(0)
}

// pacerAssistLocked is the allocation slow path's assist: debit the
// pacer by the marking debt the allocation since its last look implies
// (bytes allocated × ratio) and, while the credit is negative, repay it
// with bounded mark chunks. Marking done by ConcurrentStep accrues as
// credit too, so an allocation behind a stepped cycle may owe nothing;
// otherwise the assists are all the marking an allocation-triggered
// cycle gets, in proportion to what the slow paths allocate. Callers
// hold w.mu with a concurrent cycle active.
func (w *World) pacerAssistLocked() {
	c := &w.cyc
	alloced := w.Heap.BytesAllocated()
	if alloced > c.pacerLastAlloc {
		debt := float64(alloced-c.pacerLastAlloc) * c.pacerRatio
		c.pacerLastAlloc = alloced
		c.pacerCredit -= int64(debt)
	}
	owed := -c.pacerCredit
	if owed <= 0 {
		w.met.pacerCreditB.Set(c.pacerCredit)
		return
	}
	start := time.Now()
	for round := 0; round < pacerMaxRounds && c.pacerCredit < 0; round++ {
		if w.concChunkLocked(w.cfg.MarkQuantum) {
			break // the chunk completed the cycle
		}
	}
	ns := time.Since(start).Nanoseconds()
	w.met.pacerAssistNs.Add(uint64(ns))
	w.met.pacerCreditB.Set(c.pacerCredit)
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.EvPacerAssist, ns, owed, c.pacerCredit)
	}
}
