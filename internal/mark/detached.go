// Detached marking: background workers pulling from the persistent
// gray set without holding the central lock.
//
// The serial lock-chunked concurrent cycle (one Marker, driven by core)
// interleaves marking with mutator execution but never overlaps a mark
// chunk with a store: every chunk runs under the world lock. Detached
// marking shards the background work across goroutines that hold no
// world lock at all.
// The synchronisation contract, owned by core:
//
//   - mark-bit transitions are CAS (atomicMark), so racing workers
//     admit exactly one winner per object — the fixpoint is the same
//     monotone closure as always — and the mark bit is the only shared
//     word a mark writes (the allocator recounts its per-block
//     summaries from the bitmaps afterwards);
//   - heap *words* are read atomically (the scan loop always loads
//     that way) and the mutator store path writes them atomically
//     (alloc.Config.AtomicWords), so a torn read is impossible; a
//     stale-but-consistent read is sound because the insertion barrier
//     shades the stored value at the store (Shade): whichever value a
//     racing scan reads, the new one is already marked and gray;
//   - heap *structure* (block table, free lists, extents, bitmaps) is
//     protected by a reader-writer lock in core: each DetachedChunk
//     call runs entirely inside one read-hold, and every allocator
//     mutation takes the write side. A hold yields to a waiting writer:
//     the chunk looks at core's writer flag between steps of at most
//     yieldStep objects and returns early when it is raised. The look
//     lives here, in the chunk driver, not in the scan loop's pop path,
//     where it was priced at 5–10 % of a stop-the-world pause.
//   - a worker's local mark stack survives the end of its chunk — the
//     whole stack copied into queue tasks every few microseconds was
//     priced too, and lost — so the gray set lives in the shared queue,
//     the workers' stacks and the assist shard's stack. A worker sheds
//     the older half of its stack to the queue only when the queue is
//     empty and it holds shedMin grays or more, which is when another
//     marker could be idle for want of them. The coordinator's
//     quiescence certificate (Quiescent) is therefore "write lock held
//     — no chunk in flight, so the stacks are readable — and the queue,
//     every worker's stack and the assist shard's stack are empty";
//     WorkOutstanding is the lock-free hint that keeps anyone from
//     taking the write lock while work is visibly left.
//   - an idle worker parks: the shared queue has a wake channel with
//     one slot per worker (Wake), a push posts a token without blocking
//     and FlushStaged one per worker, so a worker that found nothing
//     wakes when work is published, or when core retires its cycle.
//
// A stop-the-world phase hands Run the whole closure at once; a
// detached cycle's gray set persists across its chunks. ResetCycle
// clears it when the cycle starts, AddGrays and FlushStaged feed it,
// statistics accumulate across the cycle, and when the world stops for
// the finale DrainKept gathers whatever is left — staged, queued, on
// the workers' stacks, on the assist shard's — onto the assist shard
// and drains it to the fixpoint on the goroutine that holds the pause.
//
// AssistChunk is the same bounded pull through a dedicated marker
// shard, used by callers that already hold the world lock (the pacer's
// debt repayment, the insertion barrier through Shade); it needs no
// read-hold because every allocator mutation also holds the world lock,
// and it hands its leftovers to the queue, where the workers — who are
// not on a request's critical path — can take them.
package mark

import (
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/mem"
)

const (
	// yieldStep is how many objects a chunk scans between looks at the
	// writer flag: the longest a slow-path allocation waits for a
	// read-hold to end, a few microseconds.
	yieldStep = 64
	// shedMin is the local stack depth from which a worker shares its
	// older half when the shared queue has run dry.
	shedMin = 64
)

// ResetCycle prepares the phase for a new concurrent cycle: worker
// stats and stacks reset, shared queue and staged tasks cleared.
// Statistics then accumulate across every chunk of the cycle.
func (p *Parallel) ResetCycle() {
	p.queue.mu.Lock()
	p.queue.tasks = p.queue.tasks[:0]
	p.queue.size.Store(0)
	p.queue.mu.Unlock()
	p.staged = p.staged[:0]
	for _, w := range p.workers {
		w.m.Reset()
		w.holds.Store(false)
	}
	p.assist.m.Reset()
}

// AddGrays stages already-marked objects for scanning — the snapshot
// pause hands the root-reachable gray set to the detached workers this
// way, and the final pause what its root rescan found
// (Marker.TakePending's slice, copied here and nowhere else).
func (p *Parallel) AddGrays(grays []alloc.Gray) {
	grayTasks(grays, func(t task) { p.staged = append(p.staged, t) })
}

// DrainKept is the finale of a detached cycle: with the world stopped
// and the detached workers retired, drain the cycle's persistent gray
// set to the fixpoint on the calling goroutine, then flush every
// blacklist buffer. The workers' kept stacks move onto the assist
// shard's, the staged tasks onto the queue, and the assist shard takes
// tasks from the queue until both are empty — what a forced finale
// typically finds is a few dozen grays, not worth a goroutine. The
// marked set is Run's: the same monotone closure, one CAS winner per
// object. Unlike Run it leaves the statistics accumulating.
func (p *Parallel) DrainKept() {
	a := p.assist
	for _, w := range p.workers {
		a.m.stack = append(a.m.stack, w.m.stack...)
		w.m.stack = w.m.stack[:0]
		w.holds.Store(false)
	}
	p.queue.tasks = append(p.queue.tasks, p.staged...)
	p.staged = p.staged[:0]
	p.queue.size.Store(int32(len(p.queue.tasks)))
	for {
		a.m.Drain()
		t, ok := p.queue.pop()
		if !ok {
			break
		}
		p.steals.Add(1)
		p.process(a, t)
	}
	p.flushPending()
}

// FlushStaged moves staged tasks onto the shared queue immediately, so
// detached workers (which pop the queue directly rather than entering
// through Run) can see work staged by AddGrays or AddDirtyBlock, and
// wakes every parked worker. Call under the same exclusion as the
// staging itself.
func (p *Parallel) FlushStaged() {
	if len(p.staged) == 0 {
		return
	}
	p.queue.mu.Lock()
	p.queue.tasks = append(p.queue.tasks, p.staged...)
	p.queue.size.Store(int32(len(p.queue.tasks)))
	p.queue.mu.Unlock()
	p.staged = p.staged[:0]
	for range p.workers {
		p.queue.signal()
	}
}

// Wake is the channel an idle detached worker parks on: every push onto
// the shared queue posts a token, FlushStaged one per worker.
func (p *Parallel) Wake() <-chan struct{} { return p.queue.wake }

// Shade runs the insertion barrier's step (Marker.Shade) through the
// assist shard, for a caller holding the world lock. A won gray stays on
// that shard's stack until PublishAssist, the next AssistChunk or the
// finale's DrainKept hands it on.
func (p *Parallel) Shade(org RootOrigin, index int32, v mem.Word) bool {
	return p.assist.m.Shade(org, index, v)
}

// PublishAssist moves the assist shard's grays — what the barrier
// shaded since the shard last ran — onto the shared queue, where
// detached workers find them. Callers hold the world lock.
func (p *Parallel) PublishAssist() {
	m := p.assist.m
	grayTasks(m.stack, p.queue.push)
	m.stack = m.stack[:0]
}

// grayOffWorkers reports whether gray objects sit anywhere but on the
// workers' stacks: in the shared queue, staged for it, or on the assist
// shard. Callers hold the world lock, which guards the last two.
func (p *Parallel) grayOffWorkers() bool {
	return p.queue.size.Load() > 0 || len(p.staged) > 0 || len(p.assist.m.stack) > 0
}

// WorkOutstanding is the lock-free hint that gray objects are visibly
// left: the shared queue is non-empty, or a worker said at the end of
// its last hold (or on taking a task) that its stack holds some, or the
// assist shard holds some. False means only that it is worth taking the
// write lock to ask Quiescent. Callers hold the world lock (the assist
// shard's stack is read).
func (p *Parallel) WorkOutstanding() bool {
	if p.grayOffWorkers() {
		return true
	}
	for _, w := range p.workers {
		if w.holds.Load() {
			return true
		}
	}
	return false
}

// Quiescent is the fixpoint certificate of a detached phase: no gray
// object anywhere. Callers hold the world lock and the heap-structure
// write lock, so no chunk is in flight and every worker's stack can be
// read.
func (p *Parallel) Quiescent() bool {
	if p.grayOffWorkers() {
		return false
	}
	for _, w := range p.workers {
		if len(w.m.stack) > 0 {
			return false
		}
	}
	return true
}

// DetachedChunk runs worker i for one bounded chunk: drain its own
// stack, refilling from the shared queue, for up to budget objects or
// until yield reads true, whichever is first. It returns how much it
// did — objects scanned plus tasks taken, zero only if there was nothing
// to do — and the bytes this shard marked (the pacer's credit). The
// worker's stack is left as it stands. The caller owns the read-hold
// for the whole call and must not run the same worker index
// concurrently (core spawns one goroutine per index).
func (p *Parallel) DetachedChunk(i, budget int, yield *atomic.Bool) (work int, bytes uint64) {
	return p.chunkWorker(p.workers[i], budget, yield)
}

// AssistChunk is DetachedChunk through the dedicated assist shard, for
// callers holding the world lock: it never yields (its caller is the
// writer) and it ends by moving what it did not scan to the shared
// queue. Safe to run concurrently with detached workers: they share
// only the CAS bits, the task queue and the locked blacklist.
func (p *Parallel) AssistChunk(budget int) (work int, bytes uint64) {
	work, bytes = p.chunkWorker(p.assist, budget, nil)
	p.PublishAssist()
	return work, bytes
}

// chunkWorker is the shared bounded pull: each caller has a budget of
// its own, so concurrent callers never starve each other's pacing.
func (p *Parallel) chunkWorker(w *worker, budget int, yield *atomic.Bool) (work int, bytes uint64) {
	m := w.m
	before := m.stats.BytesMarked
	for budget > 0 {
		if len(m.stack) == 0 {
			t, ok := p.queue.pop()
			if !ok {
				break
			}
			w.holds.Store(true)
			p.steals.Add(1)
			p.process(w, t)
			work++
		}
		step := min(budget, yieldStep)
		scanned := step - m.drain(step)
		budget -= scanned
		work += scanned
		if len(m.stack) >= shedMin && p.queue.size.Load() == 0 {
			p.spill(m)
		}
		if yield != nil && yield.Load() {
			break
		}
	}
	w.holds.Store(len(m.stack) > 0)
	return work, m.stats.BytesMarked - before
}
