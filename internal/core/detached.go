package core

import (
	"runtime"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Detached background marking, the rate-based assist pacer, and the
// concurrent sweeper (Config.ConcMarkWorkers, Config.ConcurrentSweep).
//
// The lock-chunked concurrent cycle (concurrent.go) interleaves every
// mark chunk with mutator execution under w.mu, so marking throughput
// is bounded by one driver goroutine's share of the lock. Detached
// marking shards the background phase across ConcMarkWorkers
// goroutines that hold no world lock while scanning:
//
//   - Mark bits are CAS transitions and heap words are read/written
//     atomically (alloc.Config.AtomicWords makes the mutator's store
//     path atomic; the mark loop always loads that way), so racing a
//     store against a scan is data-race-free; a scan that reads the
//     pre-store value is sound because the store dirtied its block's
//     card under w.mu and dirty blocks are rescanned before the cycle
//     can finish (the usual insertion-barrier argument).
//   - Heap *structure* — block table, free lists, extents, bitmaps —
//     is guarded by w.heapMu: each DetachedChunk runs inside one
//     read-hold, and every allocator mutation that can run during a
//     detached phase takes the write side through lockHeapLocked.
//     Lock order is w.mu strictly before heapMu, never the reverse.
//   - Retirement never waits for goroutine exit: concGenA is the
//     atomic mirror of the active cycle generation, workers re-check
//     it after acquiring the read-hold, and storing 0 (never an active
//     generation) followed by one write-lock acquisition certifies
//     that no chunk is in flight and none can start. A straggler that
//     acquires its read-hold later sees the stale generation and exits
//     without touching the heap.
//   - The fixpoint certificate is "write-lock held and the shared
//     queue empty": every chunk ends with spillAll, so between chunks
//     no worker hides gray objects in a local stack.
const (
	// pacerMaxRounds bounds how many assist chunks one slow-path
	// allocation runs repaying its debt, so a mutator that fell far
	// behind amortises the repayment over its next few allocations
	// instead of stalling once for all of it.
	pacerMaxRounds = 4
	// pacerSafety scales the assist ratio: marking is provisioned to
	// finish after safety× less allocation than the budget that
	// triggered the cycle, absorbing rate estimation error.
	pacerSafety = 2.0
	// concSweepChunk is how many deferred blocks the background sweeper
	// classifies per world-lock hold.
	concSweepChunk = 8
	// workerIdleSleep and workerIdleAfter pace a detached worker that
	// keeps finding the queue empty (the cycle is waiting on dirty
	// rescans or the finale): back off to a sleep after this many
	// consecutive empty chunks instead of burning a processor.
	workerIdleAfter = 8
	workerIdleSleep = 100 * time.Microsecond
)

// lockHeapLocked runs fn, holding the heap-structure write lock around
// it when a detached phase is active (otherwise fn runs bare: no
// detached reader exists, and w.mu already excludes everything else).
// Callers hold w.mu; fn must not nest another lockHeapLocked and must
// not run a finale (retireDetachedLocked takes the same write lock).
func (w *World) lockHeapLocked(fn func()) {
	if w.concDetached {
		w.heapMu.Lock()
		fn()
		w.heapMu.Unlock()
		return
	}
	fn()
}

// retireDetachedLocked ends the detached phase: workers observe the
// cleared generation and exit, and one write-lock acquisition waits
// out any chunk still in flight — after it, no worker touches the
// heap again. Callers hold w.mu. No-op outside a detached phase.
func (w *World) retireDetachedLocked() {
	if !w.concDetached {
		return
	}
	w.concGenA.Store(0)
	w.heapMu.Lock()
	// All in-flight chunks have completed and spilled; any straggler
	// re-checks the generation under its read-hold and exits.
	w.heapMu.Unlock()
	w.concDetached = false
}

// markWorker is one detached background marking goroutine: pull
// bounded chunks from the shared gray queue under the heap-structure
// read lock until the cycle's generation retires. The marked bytes
// feed the pacer as credit. par and gen are captured at spawn so a
// rebuilt parallel marker or a later cycle never aliases this worker.
func (w *World) markWorker(par parChunker, gen uint64, i int) {
	idle := 0
	for {
		if w.concGenA.Load() != gen {
			return
		}
		w.heapMu.RLock()
		if w.concGenA.Load() != gen {
			w.heapMu.RUnlock()
			return
		}
		objects, bytes := par.DetachedChunk(i, w.cfg.MarkQuantum)
		w.heapMu.RUnlock()
		if bytes > 0 {
			w.pacerCredit.Add(int64(bytes))
		}
		if objects == 0 {
			idle++
			if idle > workerIdleAfter {
				time.Sleep(workerIdleSleep)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		runtime.Gosched()
	}
}

// parChunker is the slice of mark.Parallel a detached worker uses;
// an interface so the worker provably touches nothing else.
type parChunker interface {
	DetachedChunk(i, budget int) (objects int, bytes uint64)
}

// concDetachedAdvanceLocked is concChunkLocked's detached-mode body:
// contribute one assist chunk, then decide whether the cycle can
// advance — the queue must be empty both before and after a write-lock
// acquisition (the quiescence certificate) for the gray set to be
// provably drained. Callers hold w.mu (and no heap read/write hold).
func (w *World) concDetachedAdvanceLocked(quantum int) bool {
	if !w.concActive {
		return true
	}
	if quantum <= 0 {
		quantum = w.cfg.MarkQuantum
	}
	if _, bytes := w.par.AssistChunk(quantum); bytes > 0 {
		w.pacerCredit.Add(int64(bytes))
	}
	if w.par.QueueSize() != 0 {
		return false
	}
	// The queue looks empty. Certify: with the write lock held no chunk
	// is in flight, and chunks end with spillAll, so an empty queue
	// under the lock means the gray set is empty.
	w.heapMu.Lock()
	empty := w.par.QueueSize() == 0
	w.heapMu.Unlock()
	if !empty {
		return false
	}
	if w.concPasses < concMaxPasses && w.Heap.CountDirty() > concFinaleDirtyBudget {
		w.concPasses++
		w.stageDirtyRescanLocked()
		// Staged tasks are invisible to detached workers (they pop the
		// queue directly); publish them.
		w.par.FlushStaged()
		return false
	}
	w.stwFinishConcurrent()
	return true
}

// pacerInitLocked arms the pacer at a cycle's snapshot: zero credit,
// the allocation cursor at the current total, and a ratio provisioning
// the live heap's worth of marking across the allocation budget that
// triggers cycles (heap/GCDivisor, or heap/MinorDivisor for minor
// cycles), scaled by pacerSafety. Callers hold w.mu.
func (w *World) pacerInitLocked(minor bool) {
	st := w.Heap.Stats()
	w.pacerLastAlloc = st.BytesAllocated
	w.pacerCredit.Store(0)
	div := w.cfg.GCDivisor
	if minor && w.cfg.MinorDivisor > 0 {
		div = w.cfg.MinorDivisor
	}
	if div <= 0 {
		// Explicitly driven cycles (tests, benchmarks) have no trigger
		// budget; fall back to the expansion headroom policy.
		div = w.cfg.FreeSpaceDivisor
	}
	budget := st.HeapBytes / div
	if budget < mem.PageBytes {
		budget = mem.PageBytes
	}
	live := st.BytesLive
	if live < 64<<10 {
		live = 64 << 10
	}
	w.pacerRatio = pacerSafety * float64(live) / float64(budget)
	w.met.pacerCreditB.Set(0)
}

// pacerAssistLocked is the allocation slow path's assist: debit the
// pacer by the marking debt the allocation since its last look implies
// (bytes allocated × ratio) and, while the credit is negative, repay
// it with bounded mark chunks. Marking done by the background workers
// and driver accrues as credit, so a mutator allocating against a
// healthy background phase never assists; an allocation burst that
// outruns the workers assists proportionally. Callers hold w.mu with
// a concurrent cycle active.
func (w *World) pacerAssistLocked() {
	alloced := w.Heap.Stats().BytesAllocated
	if alloced > w.pacerLastAlloc {
		debt := float64(alloced-w.pacerLastAlloc) * w.pacerRatio
		w.pacerLastAlloc = alloced
		w.pacerCredit.Add(-int64(debt))
	}
	owed := -w.pacerCredit.Load()
	if owed <= 0 {
		w.met.pacerCreditB.Set(w.pacerCredit.Load())
		return
	}
	start := time.Now()
	for round := 0; round < pacerMaxRounds && w.pacerCredit.Load() < 0; round++ {
		if w.concDetached {
			_, bytes := w.par.AssistChunk(w.cfg.MarkQuantum)
			if bytes == 0 {
				// Nothing to pull: the gray set may be drained. Advance
				// the cycle state (rescan staging or the finale) once and
				// stop repaying — the debt is against work that no longer
				// exists.
				w.concDetachedAdvanceLocked(w.cfg.MarkQuantum)
				break
			}
			w.pacerCredit.Add(int64(bytes))
		} else {
			// Lock-chunked cycles credit marked bytes inside
			// concChunkLocked itself (the background driver shares the
			// same accounting path).
			if w.concChunkLocked(w.cfg.MarkQuantum) {
				break // the chunk completed the cycle
			}
		}
	}
	ns := time.Since(start).Nanoseconds()
	w.met.pacerAssistNs.Add(uint64(ns))
	w.met.pacerCreditB.Set(w.pacerCredit.Load())
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.EvPacerAssist, ns, int64(owed), w.pacerCredit.Load())
	}
}

// driveSweep is the background sweeper (Config.ConcurrentSweep): after
// a cycle's finale resumes the world, classify deferred lazy-sweep
// blocks a chunk at a time under the world lock until the backlog is
// drained, the cycle generation moves on, or the allocator's free
// lists are all stocked (SweepChunk then yields to the demand drain,
// which keeps allocation addresses bit-identical to the eager sweep).
func (w *World) driveSweep(gen int) {
	for {
		w.mu.Lock()
		if w.collections != gen || w.Heap.SweepPending() == 0 {
			w.mu.Unlock()
			return
		}
		n := 0
		w.lockHeapLocked(func() { n = w.Heap.SweepChunk(concSweepChunk) })
		if n > 0 {
			w.met.concSweepBlocks.Add(uint64(n))
		}
		w.mu.Unlock()
		if n == 0 {
			return
		}
		runtime.Gosched()
	}
}
