// Bounded parallel marking: the concurrent-cycle drain loop.
//
// A mostly-concurrent cycle cannot hand the workers the whole closure
// at once — the driver interleaves bounded mark chunks with mutator
// execution. RunBounded is Run with a shared scan budget: workers claim
// credits from an atomic pool in small chunks and scan local gray
// objects until the pool runs dry, then shed their remaining stack back
// onto the shared queue and retire. Because the queue persists between
// bounded runs (AddGrays and leftover spills accumulate rather than
// overwrite), the cycle's gray set lives in exactly two places at a
// chunk boundary of a lock-chunked cycle: the shared queue, and the
// assist shard's stack, where the insertion barrier leaves what it
// shades between chunks (Shade) and from where the next run collects it.
// Every worker's local stack is empty when a run that exhausted its
// budget returns. A run also starts from whatever the workers' stacks
// hold: that is how the finale of a detached cycle, whose workers keep
// their stacks between chunks (detached.go), drains them.
//
// Termination of one bounded run reuses the idle-count fixpoint from
// Run, with one extension: a worker that exhausts the budget counts
// itself permanently idle after spilling, so "all idle" is reached even
// when gray objects remain queued. A waiting worker that grabs a task
// it has no credits to scan pushes it straight back and retires, so the
// handoff cannot livelock.
//
// The budget bounds *traced objects*, not tasks: a claimed dirty-block
// or root-chunk task is processed whole (its grays land on the local
// stack and are scanned against the budget), so a chunk may overshoot
// by at most one task's own candidates. Overshoot is a pacing blur,
// never a correctness issue — the fixpoint is monotone.
package mark

import "repro/internal/alloc"

// boundedClaim is how many scan credits a worker claims at a time:
// large enough that the shared counter is off the hot path, small
// enough that the budget spreads across workers.
const boundedClaim = 64

// ResetCycle prepares the phase for a new concurrent cycle: worker
// stats and stacks reset, shared queue and staged tasks cleared.
// Statistics then accumulate across every bounded run of the cycle.
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

// AddGrays stages already-marked objects for scanning by the next
// bounded run — the snapshot pause hands the root-reachable gray set to
// the background workers this way (Marker.TakePending's slice, copied
// here and nowhere else).
func (p *Parallel) AddGrays(grays []alloc.Gray) {
	grayTasks(grays, func(t task) { p.staged = append(p.staged, t) })
}

// RunBounded drains staged and queued work — and what the assist shard
// and the workers' own stacks hold — scanning at most budget objects
// across all workers, and reports whether the gray set is exhausted.
// Unlike Run it appends staged tasks to the persistent queue, does not
// reset worker statistics, and may return with work remaining (done ==
// false). Call with an effectively infinite budget to force completion
// (the finale does).
func (p *Parallel) RunBounded(budget int) (done bool) {
	p.PublishAssist()
	p.queue.mu.Lock()
	p.queue.tasks = append(p.queue.tasks, p.staged...)
	p.queue.size.Store(int32(len(p.queue.tasks)))
	p.queue.mu.Unlock()
	p.staged = p.staged[:0]
	p.credits.Store(int64(budget))
	p.idle.Store(0)
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		go w.runBounded()
	}
	p.wg.Wait()
	if p.queue.size.Load() > 0 {
		return false
	}
	for _, w := range p.workers {
		w.pending.flush()
	}
	p.assist.pending.flush()
	return true
}

// runBounded is one worker goroutine's bounded-run entry point.
func (w *worker) runBounded() {
	defer w.p.wg.Done()
	w.p.runBoundedWorker(w)
}

// runBoundedWorker is runWorker under a budget: scan while credits
// last, then spill the local stack and retire as permanently idle.
func (p *Parallel) runBoundedWorker(w *worker) {
	for {
		if !p.drainBounded(w) {
			p.spillAll(w)
			p.idle.Add(1)
			return
		}
		t, ok := p.queue.pop()
		if !ok {
			if p.goIdle() {
				return
			}
			continue
		}
		p.steals.Add(1)
		p.process(w, t)
	}
}

// drainBounded scans the worker's local stack while credits remain.
// It returns true when the stack emptied and false when the budget ran
// out first (the stack may still hold gray objects).
func (p *Parallel) drainBounded(w *worker) bool {
	m := w.m
	for len(m.stack) > 0 {
		n := p.claim(boundedClaim)
		if n == 0 {
			return false
		}
		if left := m.drain(int(n)); left > 0 {
			p.credits.Add(int64(left))
		}
	}
	return true
}

// claim takes up to want credits from the shared pool, returning how
// many it got (zero when the pool is dry).
func (p *Parallel) claim(want int64) int64 {
	for {
		c := p.credits.Load()
		if c <= 0 {
			return 0
		}
		n := want
		if n > c {
			n = c
		}
		if p.credits.CompareAndSwap(c, c-n) {
			return n
		}
	}
}

// spillAll sheds the worker's entire local stack onto the shared queue
// in grayChunk pieces, so a budget-exhausted worker leaves no hidden
// gray objects behind.
func (p *Parallel) spillAll(w *worker) {
	grayTasks(w.m.stack, p.queue.push)
	w.m.stack = w.m.stack[:0]
}
