// The shard engine of the detached concurrent cycle (detached.go).
//
// Boehm's figure-2 algorithm parallelises once the mark bits are set
// with compare-and-swap: every candidate can be classified
// independently, and the transitive closure is a monotone fixpoint, so
// any interleaving of markers marks exactly the serial object set. A
// detached cycle's background marking is sharded that way:
//
//   - each worker owns a Marker shard with a private mark stack, so the
//     hot push/pop path is uncontended, and one more shard (the assist
//     shard) belongs to whoever holds the world lock;
//   - a shard whose stack grows past spillThreshold sheds chunks of
//     gray objects onto a shared, mutex-guarded queue, from which the
//     other markers take them;
//   - the gray set arrives as queue tasks: the snapshot's root scan
//     (serial, in core) hands over its gray objects, a minor cycle its
//     remembered set one dirty block per task;
//   - near-heap misses buffer per shard and flush to the shared
//     (mutex-wrapped) blacklist when the buffer fills or at the finale;
//     the blacklist is cycle-stamped and therefore order-independent, so
//     the final pages equal the serial run's.
//
// The CAS admits exactly one winner per object, so ObjectsMarked,
// BytesMarked, AtomicSkipped and the marked object set equal a serial
// drain's from the same gray set (the differential tests assert it).
// Only dirty-block rescans of a minor cycle may scan an object a racing
// marker marked moments earlier — the same double scan a serial minor
// cycle performs for a large object spanning several dirty blocks —
// which can shift FieldsScanned but never the marked set.
//
// The stop-the-world mark phase does not use any of this: it is serial,
// as the paper's collector is. On the benchmark's live graph a second
// stop-the-world worker was slower on every reading and got no work,
// because the graph's mark stack never reaches spillThreshold (DESIGN.md
// §5a has the readings).
package mark

import (
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/trace"
)

const (
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
	taskGray  taskKind = iota // already-marked objects awaiting scanning
	taskDirty                 // minor cycle: rescan marked objects of one block
)

// task is one unit of stealable work.
type task struct {
	kind  taskKind
	grays []alloc.Gray
	block int // taskDirty: block index
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
// flushing to the shared locked list when full; DrainKept drains the
// remainder at the finale. Queries pass through (the marker never
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

// worker couples a Marker shard with its blacklist buffer.
type worker struct {
	m       *Marker
	pending *addrBuffer
	// holds is a detached worker's word to the coordinator that its stack
	// held gray objects when its last hold ended (detached.go).
	holds atomic.Bool
}

// Parallel is the sharded marker of detached concurrent cycles over one
// heap: built once per worker count, reset by ResetCycle at each
// cycle's snapshot, driven by DetachedChunk, AssistChunk and DrainKept.
type Parallel struct {
	heap    *alloc.Allocator
	shared  *blacklist.Locked
	workers []*worker
	// assist is a dedicated marker shard for whoever holds the world
	// lock during a detached concurrent cycle (detached.go): the insertion
	// barrier shades through it (Shade), and mutator slow-path assists
	// drain through it while detached workers own the regular shards, and
	// a detached cycle's finale (DrainKept) drains the whole gray set
	// through it on the caller. It shares the queue and blacklist like a
	// worker but never runs on a goroutine of its own.
	assist *worker
	queue  taskQueue
	staged []task // tasks accumulated under the world lock, moved to queue by FlushStaged
	// steals counts tasks fetched from the shared queue, cumulatively
	// across cycles: gray chunks taken and dirty blocks rescanned. It is
	// the registry's mark-steal metric.
	steals atomic.Uint64
	tracer *trace.Recorder
}

// NewParallel creates a sharded marker with the given worker count
// (minimum 2; a serial cycle marks on a plain Marker).
func NewParallel(heap *alloc.Allocator, cfg Config, workers int) *Parallel {
	if workers < 2 {
		workers = 2
	}
	bl := cfg.Blacklist
	if bl == nil {
		bl = blacklist.Disabled{}
	}
	p := &Parallel{heap: heap, shared: blacklist.NewLocked(bl)}
	p.queue.wake = make(chan struct{}, workers)
	for i := 0; i <= workers; i++ {
		buf := &addrBuffer{shared: p.shared}
		wcfg := cfg
		wcfg.Blacklist = buf
		m := New(heap, wcfg)
		m.atomicMark = true
		m.overflow = p.spill
		w := &worker{m: m, pending: buf}
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

// Steals returns the cumulative number of tasks markers fetched from
// the shared queue (gray chunks, dirty blocks).
func (p *Parallel) Steals() uint64 { return p.steals.Load() }

// SetTracer attaches r to every shard's marker (nil detaches): shards
// emit blacklist additions and spill events, core the span events
// around the cycle.
func (p *Parallel) SetTracer(r *trace.Recorder) {
	p.tracer = r
	for _, w := range p.workers {
		w.m.SetTracer(r)
	}
	p.assist.m.SetTracer(r)
}

// EachWorkerStats calls fn with every worker's statistics of the
// current cycle, in worker order (the assist shard is not a worker). A
// callback rather than a slice so the trace path stays allocation-free.
func (p *Parallel) EachWorkerStats(fn func(i int, s Stats)) {
	for i, w := range p.workers {
		fn(i, w.m.Stats())
	}
}

// StartRecording begins provenance recording on every shard for the
// current cycle. The mark-bit CAS admits exactly one winner per object,
// and only the winner appends a record, so the merged set is
// duplicate-free without further synchronisation.
func (p *Parallel) StartRecording() {
	for _, w := range p.workers {
		w.m.StartRecording()
	}
	p.assist.m.StartRecording()
}

// Recording reports whether the shards are recording provenance.
func (p *Parallel) Recording() bool { return p.workers[0].m.Recording() }

// StopRecording ends recording and returns every shard's records,
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

// spill sheds the older half of a shard's mark stack onto the shared
// queue in grayChunk pieces, keeping the newest (hottest) entries
// local.
func (p *Parallel) spill(m *Marker) {
	half := len(m.stack) / 2
	p.tracer.Emit(trace.EvMarkSpill, int64(half), 0, 0)
	grayTasks(m.stack[:half], p.queue.push)
	n := copy(m.stack, m.stack[half:])
	m.stack = m.stack[:n]
}

// flushPending drains every shard's blacklist buffer, the assist
// shard's included, into the shared list.
func (p *Parallel) flushPending() {
	for _, w := range p.workers {
		w.pending.flush()
	}
	p.assist.pending.flush()
}

// AggStats sums every shard's statistics: the running total across the
// chunks of the current detached cycle (ResetCycle zeroes it).
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

// process executes one task taken from the queue; any gray objects it
// produces land on the shard's local stack, drained by the caller.
func (p *Parallel) process(w *worker, t task) {
	switch t.kind {
	case taskGray:
		w.m.stack = append(w.m.stack, t.grays...)
	case taskDirty:
		p.heap.ForEachMarkedObjectAtomic(t.block, w.m.ScanObject)
	}
}
