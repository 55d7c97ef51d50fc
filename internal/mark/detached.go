// Detached marking: background workers pulling from the persistent
// gray set without holding the central lock.
//
// The lock-chunked concurrent cycle (bounded.go) interleaves marking
// with mutator execution but never overlaps a mark chunk with a store:
// every chunk runs under the world lock. Detached marking shards the
// background work across goroutines that hold no world lock at all.
// The synchronisation contract, owned by core:
//
//   - mark-bit transitions are CAS (atomicMark), so racing workers
//     admit exactly one winner per object — the fixpoint is the same
//     monotone closure as always;
//   - heap *words* are read atomically (the scan loop always loads
//     that way) and the mutator store path writes them atomically
//     (alloc.Config.AtomicWords), so a torn or stale read is
//     impossible; a stale-but-consistent read is sound because the
//     insertion barrier dirties the stored-to block, and dirty blocks
//     are rescanned before the cycle can finish;
//   - heap *structure* (block table, free lists, extents, bitmaps) is
//     protected by a reader-writer lock in core: each DetachedChunk
//     call runs entirely inside one read-hold, and every allocator
//     mutation takes the write side. The coordinator's quiescence
//     certificate is "write-lock acquired (no chunk in flight) and the
//     shared queue is empty": a chunk ends with spillAll, so between
//     chunks no worker hides gray objects in a local stack.
//
// AssistChunk is the same bounded pull through a dedicated marker
// shard, used by mutator slow-path assists that already hold the world
// lock (the pacer's debt repayment); it needs no read-hold because
// every allocator mutation also holds the world lock.
package mark

// FlushStaged moves staged tasks onto the shared queue immediately, so
// detached workers (which pop the queue directly rather than entering
// through Run/RunBounded) can see work staged by AddGrays or
// AddDirtyBlock. Call under the same exclusion as the staging itself.
func (p *Parallel) FlushStaged() {
	if len(p.staged) == 0 {
		return
	}
	p.queue.mu.Lock()
	p.queue.tasks = append(p.queue.tasks, p.staged...)
	p.queue.size.Store(int32(len(p.queue.tasks)))
	p.queue.mu.Unlock()
	p.staged = p.staged[:0]
}

// QueueSize returns the shared queue's current task count (a lock-free
// hint; exact only under external quiescence).
func (p *Parallel) QueueSize() int { return int(p.queue.size.Load()) }

// DetachedChunk runs worker i for one bounded chunk: pop tasks from the
// shared queue and scan up to budget objects, then spill any remainder
// back. It returns the objects and bytes this chunk marked (first-marks
// won by this shard only). The caller owns the read-hold for the whole
// call and must not run the same worker index concurrently (core spawns
// one goroutine per index).
func (p *Parallel) DetachedChunk(i, budget int) (objects int, bytes uint64) {
	return p.chunkWorker(p.workers[i], budget)
}

// AssistChunk is DetachedChunk through the dedicated assist shard, for
// callers holding the world lock. Safe to run concurrently with
// detached workers: they share only the CAS bits, the task queue and
// the locked blacklist.
func (p *Parallel) AssistChunk(budget int) (objects int, bytes uint64) {
	return p.chunkWorker(p.assist, budget)
}

// chunkWorker is the shared bounded pull: local budget, no shared
// credit pool (unlike RunBounded, concurrent callers must not starve
// each other's pacing), spillAll before returning so the worker holds
// no grays between chunks.
func (p *Parallel) chunkWorker(w *worker, budget int) (objects int, bytes uint64) {
	m := w.m
	before := m.stats
	remaining := budget
	for remaining > 0 {
		remaining = m.drain(remaining)
		if len(m.stack) > 0 {
			break // budget exhausted with grays left
		}
		t, ok := p.queue.pop()
		if !ok {
			break
		}
		p.steals.Add(1)
		p.process(w, t)
	}
	p.spillAll(w)
	return int(m.stats.ObjectsMarked - before.ObjectsMarked),
		m.stats.BytesMarked - before.BytesMarked
}
