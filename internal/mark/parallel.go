// Parallel marking: the mark phase sharded across several workers.
//
// Boehm's figure-2 algorithm is embarrassingly parallel once the mark
// bits are set with compare-and-swap: every candidate can be classified
// independently, and the transitive closure is a monotone fixpoint, so
// any interleaving of workers marks exactly the serial object set. The
// shape here follows the standard parallel tracer design (as in the
// real collector's parallel mark and Nofl-style block tracers):
//
//   - each worker owns a Marker shard with a private mark stack, so the
//     hot push/pop path is uncontended;
//   - a worker whose stack grows past spillThreshold sheds chunks of
//     gray objects onto a shared, mutex-guarded overflow queue, from
//     which idle workers steal;
//   - root areas and dirty-page rescans are enqueued as chunk tasks, so
//     initial work is balanced dynamically rather than statically. The
//     root areas include every stopped mutator handle's registers and
//     simulated stack (core's safepoint protocol parks and flushes the
//     handles before any worker starts, so the sources are quiescent);
//   - termination is detected with an idle-worker count: when every
//     worker is idle and the shared queue is empty, no gray objects can
//     exist anywhere, so the fixpoint is reached;
//   - per-worker statistics and blacklist additions are aggregated at
//     the barrier. Near-heap misses buffer locally and flush to the
//     shared (mutex-wrapped) blacklist either when the buffer fills or
//     at the barrier; the blacklist is cycle-stamped and therefore
//     order-independent, so the final pages equal the serial run's.
//
// Equivalence with serial marking (asserted by the differential tests):
// ObjectsMarked, BytesMarked, AtomicSkipped and the marked object set
// are bit-for-bit identical — the CAS admits exactly one winner per
// object. Root-scan counters (WordsScanned, Candidates) are identical
// too, because chunking preserves the candidate sequence (including
// unaligned straddles, via one word of chunk overlap). Only dirty-page
// rescans in minor cycles may scan an object that a racing worker
// marked moments earlier — the same double scan a serial minor cycle
// performs for large objects spanning several dirty pages — which can
// shift FieldsScanned but never the marked set.
package mark

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/trace"
)

const (
	// rootChunkWords is the root-area task granularity: small enough
	// that a handful of root segments spread across all workers, large
	// enough that queue traffic is negligible against scan cost.
	rootChunkWords = 2048
	// grayChunk is the number of gray objects a spilling worker sheds
	// per queue task.
	grayChunk = 512
	// flushAt bounds a worker's local blacklist buffer; beyond it the
	// buffer drains to the shared locked list mid-cycle.
	flushAt = 1024
)

// taskKind discriminates queue entries.
type taskKind uint8

const (
	taskRoots  taskKind = iota // scan words as a root chunk
	taskSparse                 // registers: nonzero words only, no straddles
	taskGray                   // already-marked objects awaiting scanning
	taskDirty                  // minor cycle: rescan marked objects of one block
)

// task is one unit of stealable work.
type task struct {
	kind  taskKind
	words []mem.Word
	tail  int // taskRoots: trailing straddle-context words
	grays []alloc.Gray
	block int // taskDirty: block index
	// org and off attribute the chunk for provenance recording:
	// the root area's identity and the index of words[0] within it.
	// Ignored (zero) when the cycle does not record.
	org RootOrigin
	off int32
}

// taskQueue is the shared overflow/work queue. A mutex-guarded LIFO is
// sufficient here: workers touch it only to refill an empty local stack
// or shed a over-full one, both rare against the per-object work.
type taskQueue struct {
	mu    sync.Mutex
	tasks []task
	size  atomic.Int32 // mirrored length, readable without the lock
	// wake has one slot per worker. A push signals it without blocking,
	// so an idle detached worker parked on it (Parallel.Wake) sees the
	// work: a token sent while nobody waits is kept for the next to park,
	// and one dropped on a full channel is not needed by anyone.
	wake chan struct{}
}

func (q *taskQueue) push(t task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.size.Store(int32(len(q.tasks)))
	q.mu.Unlock()
	q.signal()
}

// signal posts one wake token unless every slot already holds one.
func (q *taskQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *taskQueue) pop() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return task{}, false
	}
	t := q.tasks[len(q.tasks)-1]
	q.tasks[len(q.tasks)-1] = task{}
	q.tasks = q.tasks[:len(q.tasks)-1]
	q.size.Store(int32(len(q.tasks)))
	return t, true
}

// addrBuffer is a worker-local blacklist that batches Add calls,
// flushing to the shared locked list when full; Parallel.Run drains the
// remainder at the barrier. Queries pass through (the marker never
// issues them during a cycle).
type addrBuffer struct {
	addrs  []mem.Addr
	shared *blacklist.Locked
}

var _ blacklist.List = (*addrBuffer)(nil)

func (b *addrBuffer) Add(a mem.Addr) {
	b.addrs = append(b.addrs, a)
	if len(b.addrs) >= flushAt {
		b.flush()
	}
}

func (b *addrBuffer) flush() {
	for _, a := range b.addrs {
		b.shared.Add(a)
	}
	b.addrs = b.addrs[:0]
}

func (b *addrBuffer) Contains(a mem.Addr) bool           { return b.shared.Contains(a) }
func (b *addrBuffer) ContainsRange(lo, hi mem.Addr) bool { return b.shared.ContainsRange(lo, hi) }
func (b *addrBuffer) Len() int                           { return b.shared.Len() }
func (b *addrBuffer) Clear()                             { b.addrs = b.addrs[:0]; b.shared.Clear() }
func (b *addrBuffer) BeginCycle()                        { b.shared.BeginCycle() }
func (b *addrBuffer) Expire(maxAge uint32) int           { return b.shared.Expire(maxAge) }
func (b *addrBuffer) Stats() blacklist.Stats             { return b.shared.Stats() }

// worker couples a Marker shard with its blacklist buffer. The back
// pointer lets Run spawn `go w.run()` — a closure-free go statement —
// so a cycle's only per-worker allocation is the spawn itself.
type worker struct {
	m       *Marker
	pending *addrBuffer
	p       *Parallel
	// holds is a detached worker's word to the coordinator that its stack
	// held gray objects when its last hold ended (detached.go).
	holds atomic.Bool
}

// run is one worker goroutine's cycle entry point.
func (w *worker) run() {
	defer w.p.wg.Done()
	w.p.runWorker(w)
}

// Parallel is a reusable parallel mark phase over one heap. Build it
// once, then per collection cycle: AddRoots / AddSparseRoots /
// AddDirtyBlock, then Run.
type Parallel struct {
	heap    *alloc.Allocator
	cfg     Config
	shared  *blacklist.Locked
	workers []*worker
	// assist is a dedicated marker shard for whoever holds the world
	// lock during a detached concurrent cycle (detached.go): the insertion
	// barrier shades through it (Shade), and mutator slow-path assists
	// drain through it while detached workers own the regular shards, and
	// a detached cycle's finale (DrainKept) drains the whole gray set
	// through it on the caller. It shares the queue and blacklist like a
	// worker but is never spawned by Run.
	assist *worker
	queue  taskQueue
	idle   atomic.Int32
	staged []task // tasks accumulated between cycles, moved to queue by Run
	// steals counts tasks fetched from the shared queue, cumulatively
	// across cycles: root chunks claimed, gray chunks stolen, dirty
	// blocks taken. It is the registry's mark-steal metric.
	steals atomic.Uint64
	tracer *trace.Recorder
	wg     sync.WaitGroup // reused across cycles so Run does not allocate it
}

// NewParallel creates a parallel marker with the given worker count
// (minimum 2; use a plain Marker for serial marking).
func NewParallel(heap *alloc.Allocator, cfg Config, workers int) *Parallel {
	if workers < 2 {
		workers = 2
	}
	bl := cfg.Blacklist
	if bl == nil {
		bl = blacklist.Disabled{}
	}
	p := &Parallel{heap: heap, cfg: cfg, shared: blacklist.NewLocked(bl)}
	p.queue.wake = make(chan struct{}, workers)
	for i := 0; i <= workers; i++ {
		buf := &addrBuffer{shared: p.shared}
		wcfg := cfg
		wcfg.Blacklist = buf
		m := New(heap, wcfg)
		m.atomicMark = true
		m.overflow = p.spill
		w := &worker{m: m, pending: buf, p: p}
		if i == workers {
			p.assist = w
		} else {
			p.workers = append(p.workers, w)
		}
	}
	return p
}

// Workers returns the worker count.
func (p *Parallel) Workers() int { return len(p.workers) }

// Steals returns the cumulative number of tasks workers fetched from
// the shared queue (root chunks, stolen gray chunks, dirty blocks).
func (p *Parallel) Steals() uint64 { return p.steals.Load() }

// SetTracer attaches r to the phase and every worker's marker (nil
// detaches): workers emit blacklist additions and spill events, the
// phase itself nothing — core emits the span events around Run.
func (p *Parallel) SetTracer(r *trace.Recorder) {
	p.tracer = r
	for _, w := range p.workers {
		w.m.SetTracer(r)
	}
	p.assist.m.SetTracer(r)
}

// EachWorkerStats calls fn with every worker's statistics from the
// last Run, in worker order. A callback rather than a slice so the
// trace path stays allocation-free.
func (p *Parallel) EachWorkerStats(fn func(i int, s Stats)) {
	for i, w := range p.workers {
		fn(i, w.m.Stats())
	}
}

// AddRoots stages a root area for the next Run, chunked for dynamic
// balancing. Under the unaligned regime each chunk carries one word of
// straddle context so chunk boundaries hide no candidates.
func (p *Parallel) AddRoots(words []mem.Word) {
	p.AddRootsOrigin(RootOrigin{}, words)
}

// AddRootsOrigin is AddRoots with the area's provenance identity, so a
// recording cycle can attribute first-marks to the exact root word even
// when the area is split across workers.
func (p *Parallel) AddRootsOrigin(org RootOrigin, words []mem.Word) {
	overlap := 0
	if p.cfg.Alignment == AnyByteOffset {
		overlap = 1
	}
	for lo := 0; lo < len(words); lo += rootChunkWords {
		hi := lo + rootChunkWords
		tail := overlap
		if hi >= len(words) {
			hi = len(words)
			tail = 0
		}
		p.staged = append(p.staged, task{
			kind: taskRoots, words: words[lo : hi+tail], tail: tail,
			org: org, off: int32(lo),
		})
	}
}

// AddSparseRoots stages a register file: nonzero words are marked as
// individual candidates, with no word-count or straddle accounting,
// mirroring the serial collector's register scan.
func (p *Parallel) AddSparseRoots(words []mem.Word) {
	p.AddSparseRootsOrigin(RootOrigin{}, words)
}

// AddSparseRootsOrigin is AddSparseRoots with the register file's
// provenance identity.
func (p *Parallel) AddSparseRootsOrigin(org RootOrigin, words []mem.Word) {
	if len(words) > 0 {
		p.staged = append(p.staged, task{kind: taskSparse, words: words, org: org})
	}
}

// StartRecording begins provenance recording on every worker for the
// next Run. The mark-bit CAS admits exactly one winner per object, and
// only the winner appends a record, so the merged set is duplicate-free
// without further synchronisation.
func (p *Parallel) StartRecording() {
	for _, w := range p.workers {
		w.m.StartRecording()
	}
	p.assist.m.StartRecording()
}

// Recording reports whether the workers are recording provenance.
func (p *Parallel) Recording() bool { return p.workers[0].m.Recording() }

// StopRecording ends recording and returns every worker's records,
// merged (order is worker-major and otherwise unspecified; each marked
// object appears exactly once).
func (p *Parallel) StopRecording() []ParentRecord {
	var out []ParentRecord
	for _, w := range p.workers {
		out = append(out, w.m.StopRecording()...)
	}
	out = append(out, p.assist.m.StopRecording()...)
	return out
}

// AddDirtyBlock stages a minor-cycle rescan of the marked objects in
// block bi.
func (p *Parallel) AddDirtyBlock(bi int) {
	p.staged = append(p.staged, task{kind: taskDirty, block: bi})
}

// grayTasks cuts grays into taskGray tasks of at most grayChunk entries
// — each a private copy, so the caller may reuse grays at once — and
// hands them to emit. It is how every gray set changes hands: a worker's
// spill, an assist chunk's leftovers, the snapshot pause's hand-off.
func grayTasks(grays []alloc.Gray, emit func(task)) {
	for len(grays) > 0 {
		n := min(len(grays), grayChunk)
		emit(task{kind: taskGray, grays: append([]alloc.Gray(nil), grays[:n]...)})
		grays = grays[n:]
	}
}

// spill sheds the older half of a worker's mark stack onto the shared
// queue in grayChunk pieces, keeping the newest (hottest) entries
// local.
func (p *Parallel) spill(m *Marker) {
	half := len(m.stack) / 2
	p.tracer.Emit(trace.EvMarkSpill, int64(half), 0, 0)
	grayTasks(m.stack[:half], p.queue.push)
	n := copy(m.stack, m.stack[half:])
	m.stack = m.stack[:n]
}

// Run executes the mark phase over the staged tasks and returns the
// aggregated statistics. At return every reachable object is marked,
// all blacklist buffers are flushed, and the Parallel is ready for the
// next cycle.
func (p *Parallel) Run() Stats {
	p.queue.tasks = append(p.queue.tasks[:0], p.staged...)
	p.staged = p.staged[:0]
	p.assist.m.Reset()
	for _, w := range p.workers {
		w.m.Reset()
	}
	p.runToFixpoint()
	return p.AggStats()
}

// runToFixpoint runs every worker over the queue and its own stack
// until no gray object is left anywhere, then flushes the blacklist
// buffers. No worker is running when it is called, so the queue is the
// caller's to have filled bare.
func (p *Parallel) runToFixpoint() {
	p.queue.size.Store(int32(len(p.queue.tasks)))
	p.idle.Store(0)
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		go w.run()
	}
	p.wg.Wait()
	p.flushPending()
}

// flushPending drains every shard's blacklist buffer, the assist
// shard's included, into the shared list.
func (p *Parallel) flushPending() {
	for _, w := range p.workers {
		w.pending.flush()
	}
	p.assist.pending.flush()
}

// AggStats sums every worker's statistics. After Run it equals the
// cycle's totals; during a detached concurrent cycle it is the running
// total across the chunks executed so far (ResetCycle zeroes it).
func (p *Parallel) AggStats() Stats {
	var agg Stats
	for _, w := range p.workers {
		agg.Add(w.m.Stats())
	}
	agg.Add(p.assist.m.Stats())
	return agg
}

// Add accumulates o into s field by field.
func (s *Stats) Add(o Stats) {
	s.WordsScanned += o.WordsScanned
	s.Candidates += o.Candidates
	s.ObjectsMarked += o.ObjectsMarked
	s.BytesMarked += o.BytesMarked
	s.FieldsScanned += o.FieldsScanned
	s.FalseNearHeap += o.FalseNearHeap
	s.AtomicSkipped += o.AtomicSkipped
	s.InteriorResolved += o.InteriorResolved
}

// runWorker is one worker's loop: drain the local stack, then steal
// from the shared queue, then negotiate termination.
func (p *Parallel) runWorker(w *worker) {
	for {
		w.m.Drain()
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

// goIdle registers this worker as out of work and waits until either
// the shared queue has work again (return false: retry) or every
// worker is idle with an empty queue (return true: the fixpoint is
// reached). Tasks are pushed only by non-idle workers, so "all idle and
// queue empty" is stable once observed.
func (p *Parallel) goIdle() (done bool) {
	p.idle.Add(1)
	for {
		if p.queue.size.Load() > 0 {
			p.idle.Add(-1)
			return false
		}
		if p.idle.Load() == int32(len(p.workers)) {
			return true
		}
		runtime.Gosched()
	}
}

// process executes one stolen task; any gray objects it produces land
// on the worker's local stack, drained by the caller.
func (p *Parallel) process(w *worker, t task) {
	switch t.kind {
	case taskRoots:
		w.m.markRootChunk(t.org, t.off, t.words, t.tail)
	case taskSparse:
		w.m.MarkSparseRoots(t.org, t.words)
	case taskGray:
		w.m.stack = append(w.m.stack, t.grays...)
	case taskDirty:
		p.heap.ForEachMarkedObjectAtomic(t.block, w.m.ScanObject)
	}
}
