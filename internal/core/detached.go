package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Detached background marking, the rate-based assist pacer, and the
// concurrent sweeper (Config.ConcMarkWorkers, Config.ConcurrentSweep).
//
// The serial lock-chunked concurrent cycle (concurrent.go) interleaves
// every mark chunk with mutator execution under w.mu, so marking
// throughput is bounded by one driver goroutine's share of the lock.
// Detached marking shards the background phase across ConcMarkWorkers
// goroutines that hold no world lock while scanning:
//
//   - Mark bits are CAS transitions and heap words are read/written
//     atomically (alloc.Config.AtomicWords makes the mutator's store
//     path atomic; the mark loop always loads that way), so racing a
//     store against a scan is data-race-free; a scan that reads the
//     pre-store value is sound because the store shaded the new value
//     under w.mu before writing it (the insertion barrier, shadeLocked).
//   - Heap *structure* — block table, free lists, extents, bitmaps —
//     is guarded by w.heapMu: each DetachedChunk runs inside one
//     read-hold, and every allocator mutation that can run during a
//     detached phase takes the write side through lockHeapLocked.
//     Lock order is w.mu strictly before heapMu, never the reverse.
//   - A read-hold yields to a waiting writer. The writer raises
//     heapWant before it asks for the lock and lowers it once it holds
//     it (lockHeapWrite); a worker looks at the flag between steps of at
//     most 64 objects of its chunk and ends the hold early when it is
//     up. sync.RWMutex turns new readers away while a writer waits, so
//     a slow-path allocation waits for one such step, not for a
//     MarkQuantum chunk, and the workers are back the moment it is
//     done. The look is in mark.chunkWorker, outside the scan loop.
//   - A worker's mark stack survives the end of its hold (nothing is
//     copied back to the shared queue just because a writer came by);
//     it tells the coordinator through a flag whether it holds grays.
//   - A worker that keeps finding nothing parks on the shared queue's
//     wake channel (a token per push, one per worker per FlushStaged)
//     or on its cycle's retire channel, whichever comes first.
//   - Retirement never waits for goroutine exit: cycle.genA is the
//     atomic mirror of the active cycle generation, workers re-check
//     it after acquiring the read-hold, and storing 0 (never an active
//     generation), closing the retire channel that parked workers wait
//     on, and one write-lock acquisition certify that no chunk is in
//     flight and none can start. A straggler that acquires its
//     read-hold later sees the stale generation and exits without
//     touching the heap. What the workers' stacks still hold then is
//     drained by the finale's DrainKept on the goroutine holding the
//     pause, through the assist shard: no goroutine starts in a pause.
//   - The fixpoint certificate is "write lock held, shared queue empty,
//     every worker's stack and the assist shard's stack empty"
//     (mark.Parallel.Quiescent): with the write lock held no chunk is
//     in flight, so the stacks can be read. Nobody takes the write lock
//     to ask while work is visibly left (WorkOutstanding).
//
// The pacer (either shape) schedules the snapshot's marking across a
// share of the heap's free space at the snapshot (pacerInitLocked), not
// across the allocation that triggered the cycle: the cycle's own
// allocation can spend the free space, and the trigger is only where
// that spending starts.
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
	// concSweepChunk is how many deferred blocks the background sweeper
	// classifies per world-lock hold.
	concSweepChunk = 8
	// workerIdleAfter paces a detached worker that keeps finding nothing
	// to do (the gray set is on other markers' stacks, or the cycle is
	// waiting for its finale): after this many consecutive empty chunks
	// it parks until work is published or its cycle retires, instead of
	// burning a processor.
	workerIdleAfter = 8
)

// lockHeapLocked runs fn, holding the heap-structure write lock around
// it while a detached cycle's workers run (otherwise fn runs bare: no
// detached reader exists, and w.mu already excludes everything else).
// Callers hold w.mu; fn must not nest another lockHeapLocked and must
// not run a finale (retireDetachedLocked takes the same write lock).
func (w *World) lockHeapLocked(fn func()) {
	if w.cyc.active && w.cyc.detached {
		w.lockHeapWrite()
		fn()
		w.heapMu.Unlock()
		return
	}
	fn()
}

// lockHeapWrite takes the heap-structure write lock of a detached
// phase, asking the workers' read-holds to yield while it waits, and
// adds the wait to the cycle's HeapLockWaitNs. Callers hold w.mu and
// release with w.heapMu.Unlock.
func (w *World) lockHeapWrite() {
	start := time.Now()
	w.heapWant.Store(true)
	w.heapMu.Lock()
	w.heapWant.Store(false)
	w.cyc.heapWaitNs += time.Since(start).Nanoseconds()
}

// retireDetachedLocked ends the detached phase: workers observe the
// cleared generation and exit — a parked one is woken by the close of
// its cycle's retire channel — and one write-lock acquisition waits
// out any chunk still in flight; after it, no worker touches the heap
// again. Callers hold w.mu. No-op for a serial cycle.
func (w *World) retireDetachedLocked() {
	c := &w.cyc
	if !c.detached {
		return
	}
	c.genA.Store(0)
	close(c.retire)
	c.retire = make(chan struct{})
	w.lockHeapWrite()
	// All in-flight chunks have ended; any straggler re-checks the
	// generation under its read-hold and exits.
	w.heapMu.Unlock()
}

// markWorker is one detached background marking goroutine: pull
// bounded chunks from the shared gray queue under the heap-structure
// read lock until the cycle's generation retires. The marked bytes
// feed the pacer as credit. par, gen and retire are captured at spawn
// so a rebuilt parallel marker or a later cycle never aliases this
// worker: an idle worker parks on par's wake channel or on its own
// cycle's retire channel, never on a field the world rewrites.
func (w *World) markWorker(par parChunker, gen uint64, i int, retire <-chan struct{}) {
	idle := 0
	for {
		if w.cyc.genA.Load() != gen {
			return
		}
		w.heapMu.RLock()
		if w.cyc.genA.Load() != gen {
			w.heapMu.RUnlock()
			return
		}
		work, bytes := par.DetachedChunk(i, w.cfg.MarkQuantum, &w.heapWant)
		w.heapMu.RUnlock()
		if bytes > 0 {
			w.cyc.pacerCredit.Add(int64(bytes))
		}
		if workerIdle(&idle, work) {
			select {
			case <-par.Wake():
			case <-retire:
			}
		} else {
			runtime.Gosched()
		}
	}
}

// workerIdle keeps a detached worker's count of consecutive chunks that
// found nothing to do and says when to park on it. Idleness is judged
// on work done — objects scanned or tasks taken — not on first-marks
// won: a chunk that scanned a budget of objects whose children were all
// marked already, or that a writer cut short after a few, was not idle.
func workerIdle(idle *int, work int) (park bool) {
	if work > 0 {
		*idle = 0
		return false
	}
	*idle++
	return *idle > workerIdleAfter
}

// parChunker is the slice of mark.Parallel a detached worker uses;
// an interface so the worker provably touches nothing else.
type parChunker interface {
	DetachedChunk(i, budget int, yield *atomic.Bool) (work int, bytes uint64)
	Wake() <-chan struct{}
}

// concCertifyLocked asks whether a detached cycle's gray set is
// provably empty and, if so, runs the finale. It first hands the assist
// shard's grays — what the barrier shaded since that shard last ran —
// to the workers. It takes the write lock only when no work is visibly
// left (the queue is empty and no worker said it holds grays), and
// believes only what it then reads under the lock. Callers hold w.mu
// (and no heap read/write hold).
func (w *World) concCertifyLocked() bool {
	if !w.cyc.active {
		return true
	}
	w.par.PublishAssist()
	if w.par.WorkOutstanding() {
		return false
	}
	w.lockHeapWrite()
	done := w.par.Quiescent()
	w.heapMu.Unlock()
	if !done {
		return false
	}
	w.landCycleLocked()
	return true
}

// pacerInitLocked arms the pacer at a cycle's snapshot: zero credit,
// the allocation cursor at the current total, and a ratio provisioning
// the snapshot's marking across pacerShare of the heap's free space —
// committed bytes less the last close's live bytes, at least a page.
// The free space, not the trigger budget, is what the cycle's own
// allocation can spend before it runs out of memory, so it is what the
// schedule is measured against. The marking is at most the last
// close's live bytes plus everything allocated since (at least 64 KiB):
// on a heap that only grows, all of it is live, and counting only the
// last close's survivors left a cycle its marking after the free space
// was gone. Callers hold w.mu.
func (w *World) pacerInitLocked() {
	c := &w.cyc
	st := w.Heap.Stats()
	c.pacerLastAlloc = st.BytesAllocated
	c.pacerCredit.Store(0)
	free := uint64(mem.PageBytes)
	if heap := uint64(st.HeapBytes); heap > st.BytesLive+free {
		free = heap - st.BytesLive
	}
	work := max(st.BytesLive+st.BytesSinceGC, 64<<10)
	c.pacerRatio = float64(work) / (pacerShare * float64(free))
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
	c := &w.cyc
	alloced := w.Heap.BytesAllocated()
	if alloced > c.pacerLastAlloc {
		debt := float64(alloced-c.pacerLastAlloc) * c.pacerRatio
		c.pacerLastAlloc = alloced
		c.pacerCredit.Add(-int64(debt))
	}
	owed := -c.pacerCredit.Load()
	if owed <= 0 {
		w.met.pacerCreditB.Set(c.pacerCredit.Load())
		return
	}
	start := time.Now()
	for round := 0; round < pacerMaxRounds && c.pacerCredit.Load() < 0; round++ {
		if c.detached {
			work, bytes := w.par.AssistChunk(w.cfg.MarkQuantum)
			if work == 0 {
				// Nothing to pull: the gray set may be drained. Ask for the
				// certificate (and with it the finale) once and stop
				// repaying — the debt is against work this caller cannot
				// reach.
				w.concCertifyLocked()
				break
			}
			c.pacerCredit.Add(int64(bytes))
		} else {
			// Serial cycles credit marked bytes inside
			// concChunkLocked itself (the background driver shares the
			// same accounting path).
			if w.concChunkLocked(w.cfg.MarkQuantum) {
				break // the chunk completed the cycle
			}
		}
	}
	ns := time.Since(start).Nanoseconds()
	w.met.pacerAssistNs.Add(uint64(ns))
	w.met.pacerCreditB.Set(c.pacerCredit.Load())
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.EvPacerAssist, ns, int64(owed), c.pacerCredit.Load())
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
