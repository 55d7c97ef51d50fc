// Package core assembles the conservative collector: the simulated
// address space, the mutator machine, the block allocator, the marker
// with blacklisting, and the collection policy.
//
// A World is the analogue of one process image in the paper: static
// data segments, a mutator stack and register file, and a collected
// heap. Collection scans registers, the live stack, and every root
// segment conservatively, then scans reached heap objects
// conservatively (except pointer-free "atomic" objects), then sweeps.
//
// The collection-ordering technique of the paper's section 3 is
// honoured: "we ensure that garbage collections take place at regular
// intervals, with at least one (normally very fast) garbage collection
// occurring just after system start up before any allocation has taken
// place" — platform profiles call Collect immediately after
// constructing and polluting a world, so false references from static
// data are blacklisted before they can pin anything.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// BlacklistMode selects the blacklist representation.
type BlacklistMode int

// Blacklist modes.
const (
	// BlacklistOff disables blacklisting (the paper's comparison rows).
	BlacklistOff BlacklistMode = iota
	// BlacklistDense uses the bit-array form ("implemented as a bit
	// array, indexed by page numbers").
	BlacklistDense
	// BlacklistHashed uses the hash-table form recommended "if the heap
	// is discontinuous".
	BlacklistHashed
)

func (m BlacklistMode) String() string {
	switch m {
	case BlacklistDense:
		return "dense"
	case BlacklistHashed:
		return "hashed"
	default:
		return "off"
	}
}

// Config parameterises a World. The zero value is completed by
// reasonable defaults (see withDefaults).
type Config struct {
	// HeapBase, InitialHeapBytes, ReserveHeapBytes and ExpandIncrement
	// configure the heap geometry (see alloc.Config).
	HeapBase         mem.Addr
	InitialHeapBytes int
	ReserveHeapBytes int
	ExpandIncrement  int

	// Pointer and Alignment select the conservativism operating point.
	Pointer   mark.PointerPolicy
	Alignment mark.AlignPolicy

	// Blacklisting selects the blacklist mode; Granule its granularity
	// in bytes (default one page); HashBuckets the hashed table size.
	Blacklisting BlacklistMode
	Granule      uint32
	HashBuckets  int
	// ExpireAge removes blacklist entries not re-observed within this
	// many collections; 0 keeps them forever.
	ExpireAge uint32

	// AllowAtomicOnBlacklisted and AtomicBlacklistMaxWords, FreeBlocks,
	// SkipPageBoundarySlot pass through to the allocator.
	AllowAtomicOnBlacklisted bool
	AtomicBlacklistMaxWords  int
	FreeBlocks               alloc.FreeBlockPolicy
	SkipPageBoundarySlot     bool
	// DiscontiguousGrowth lets the heap grow by mapping extents at
	// non-adjacent addresses once the first reservation is spent — the
	// paper's second collector, whose discontinuous heap is why "it
	// makes sense to implement [the blacklist] as a hash table". It
	// therefore requires BlacklistHashed (or BlacklistOff): a dense
	// list covers only the first extent.
	DiscontiguousGrowth bool

	// GCDivisor triggers a collection when allocation since the last
	// one exceeds heapSize/GCDivisor (default 2; a negative value
	// disables automatic collection). In a ConcurrentMark world a cycle
	// starts at the later of that interval and the runway point — the
	// free space left falling to a quarter of what the last collection
	// left — so that a cycle marks once the free space is mostly spent,
	// not while most of it stands unused (triggerLocked, DESIGN.md §5h).
	GCDivisor int
	// FreeSpaceDivisor expands the heap after a collection that leaves
	// less than heapSize/FreeSpaceDivisor free (default 4), so that a
	// mostly-live heap does not thrash.
	FreeSpaceDivisor int

	// AllocatorResidue simulates the allocator's own call frames: each
	// allocation briefly pushes a frame holding the fresh pointer and
	// pops it, leaving the pointer as stack residue — "often the
	// initial pointer value that is then accidentally preserved is
	// stored by the allocator or collector itself" (section 3.1).
	AllocatorResidue bool
	// AllocatorSelfClean makes that frame clear itself before exit,
	// the paper's countermeasure.
	AllocatorSelfClean bool

	// DesperateFallback lets an allocation use blacklisted pages when
	// collection and expansion have both failed, instead of reporting
	// exhaustion — the real collector's behaviour (it warns "needed to
	// allocate blacklisted block" and proceeds).
	DesperateFallback bool

	// Generational enables sticky-mark-bit minor collections in the
	// style of the paper's reference [13] (Demers et al., POPL 1990):
	// marked objects are "old" and are only rescanned when their page
	// was written since the last collection; unmarked objects are
	// "young" and are collected by cheap minor cycles. The paper's
	// section 3.1 observes that stray stack pointers place "a ceiling
	// on the effectiveness" of exactly this scheme — experiment E12.
	Generational bool
	// MinorDivisor triggers a minor collection when allocation since
	// the last collection exceeds heapSize/MinorDivisor (default 8).
	MinorDivisor int
	// FullEvery makes every n-th collection a full one in generational
	// mode (default 8).
	FullEvery int

	// MarkQuantum is the marking work one chunk of a concurrent cycle
	// does, in objects (default 64; NewWorld rejects a negative one):
	// the size of the assist chunks a slow-path allocation runs when the
	// pacer finds marking behind allocation, and of a ConcurrentStep
	// that names no quantum. The cached fast path never assists. Only
	// meaningful with ConcurrentMark.
	MarkQuantum int

	// ConcurrentMark enables mostly-concurrent cycles (see
	// concurrent.go), after the design of the paper's reference [8]: a
	// cycle opens with a short snapshot pause that scans the roots and
	// resumes the mutators; one marker then marks in chunks under the
	// world lock, run by the allocation slow paths' pacer assists (or
	// ConcurrentStep), with every Store shading the value it writes and
	// fresh objects born marked unless AllocateRooted roots them; and a
	// bounded final pause scans the roots again, drains to the fixpoint,
	// and sweeps. No goroutine marks beside the mutators: a cycle that
	// stops receiving allocation stays open until Collect,
	// FinishConcurrentCycle, a measurement or exhaustion lands it.
	// Composes with LazySweep; NewWorld rejects it beside Generational,
	// whose minor cycles mark stop-the-world.
	ConcurrentMark bool

	// ConcMarkWorkers selects nothing: every count >= 0 runs the one
	// concurrent cycle on one marker (DESIGN.md §5a; TestInertKnobs). It
	// remains while cmd/perfbench's workloads set it.
	ConcMarkWorkers int

	// ConcurrentSweep implies LazySweep and selects nothing else
	// (DESIGN.md §5h; TestInertKnobs). It remains while cmd/perfbench's
	// workloads set it.
	ConcurrentSweep bool

	// MarkWorkers is the stop-the-world mark phase's worker count, and
	// that phase is serial, as the paper's collector is: 0 and 1 mean the
	// same and NewWorld rejects anything else. A second stop-the-world
	// worker measured slower on every reading (DESIGN.md §5a). The field
	// remains only because cmd/perfbench's workloads set it to 1, and
	// goes once they no longer do.
	MarkWorkers int

	// LazySweep moves the per-slot sweep work out of the stop-the-world
	// pause. After marking, every sweep classifies blocks in O(1) each
	// from their mark summaries — empty blocks released at the barrier,
	// fully-live blocks left untouched — and the setting decides only
	// what happens to mixed blocks: off (the default, as in the paper's
	// collector), they are swept in the pause; on, they are queued, and
	// the allocator sweeps them on demand as it refills its lists,
	// finishing any remainder before the next cycle's mark phase.
	// Reclamation totals (CollectionStats.Sweep) and allocation
	// addresses are the same either way; only the timing of the per-slot
	// work moves.
	LazySweep bool

	// LineAlloc selects nothing: the line heap it chose is folded into
	// the one small-object allocator, whose caches bump through whole
	// holes of free slots (DESIGN.md §5f). The field remains only
	// because cmd/perfbench's workloads set it, and goes with
	// ConcurrentSweep once they no longer do.
	LineAlloc bool
}

func (c Config) withDefaults() Config {
	if c.HeapBase == 0 {
		c.HeapBase = 0x400000
	}
	if c.InitialHeapBytes == 0 {
		c.InitialHeapBytes = 1 << 20
	}
	if c.ReserveHeapBytes == 0 {
		c.ReserveHeapBytes = 64 << 20
	}
	if c.Granule == 0 {
		c.Granule = mem.PageBytes
	}
	if c.HashBuckets == 0 {
		c.HashBuckets = 1 << 14
	}
	if c.GCDivisor == 0 {
		c.GCDivisor = 2
	}
	if c.FreeSpaceDivisor == 0 {
		c.FreeSpaceDivisor = 4
	}
	if c.MinorDivisor == 0 {
		c.MinorDivisor = 8
	}
	if c.FullEvery == 0 {
		c.FullEvery = 8
	}
	if c.MarkQuantum == 0 {
		c.MarkQuantum = 64
	}
	if c.ConcurrentSweep {
		c.LazySweep = true
	}
	return c
}

// RootSource is the machine state the collector scans in addition to
// the root segments: a register file and a live stack.
// internal/machine.Machine implements it. A world scans the source
// attached with SetMutator plus one per Mutator handle (see
// mutator.go).
type RootSource interface {
	// Registers returns the full register file.
	Registers() []mem.Word
	// LiveStack returns the live stack words [SP, stack top) and the
	// address of the first word.
	LiveStack() ([]mem.Word, mem.Addr)
	// OnAllocate is invoked on every allocation (stack-clearing hook).
	OnAllocate()
}

// residueSimulator is implemented by mutators that can simulate the
// allocator's own transient stack frames.
type residueSimulator interface {
	SimulateCallResidue(clean bool, ptr, size mem.Word)
}

// CollectionStats describes one collection.
type CollectionStats struct {
	Mark      mark.Stats
	Sweep     alloc.SweepResult
	Blacklist blacklist.Stats // cumulative at end of cycle
	Duration  time.Duration
	HeapBytes int
	// Minor is true for generational minor collections.
	Minor bool
	// DirtyBlocks is how many heap blocks the write barrier recorded
	// (minor collections only).
	DirtyBlocks int
	// Promoted counts objects newly marked by a minor collection: young
	// survivors promoted to the old generation.
	Promoted uint64
	// Concurrent is true when the cycle ran mostly-concurrently:
	// a snapshot pause, marking in chunks between, a final pause.
	// MarkedConcurrent is how many objects were marked outside the two
	// pauses (the >90% acceptance metric). RescanPasses and
	// FinalDirtyBlocks counted a concurrent cycle's card rescans and
	// always read 0: a concurrent world is not generational, and a
	// cycle's own stores are shaded, not carded. Both fields stay
	// because cmd/perfbench reads them.
	Concurrent       bool
	RescanPasses     int
	FinalDirtyBlocks int
	MarkedConcurrent uint64
	// ConcPhaseNs is the wall-clock length of the concurrent marking
	// phase between the snapshot and final pauses.
	ConcPhaseNs int64
	// PauseSnapshotNs and PauseFinalNs are the concurrent cycle's two
	// stop-the-world windows; Duration is their sum for such cycles.
	PauseSnapshotNs int64
	PauseFinalNs    int64
	// PauseMarkNs is the part of the pause spent in the mark phase (for
	// concurrent cycles: the final pause's root rescan and drain only).
	PauseMarkNs int64
	// PauseSweepNs is the part of the pause spent in the sweep phase:
	// the O(blocks) classification barrier under LazySweep, the full
	// per-slot heap walk otherwise.
	PauseSweepNs int64
	// PauseStopNs is the time spent stopping registered Mutator
	// handles before the cycle: parking each at its next allocation
	// point and publishing its allocation counts (caches are kept, not
	// flushed). Zero when no Mutator handles exist (Duration covers the
	// pause from the point the world is stopped).
	PauseStopNs int64
	// PauseReconcileNs is the time the collection barrier spent
	// crediting tenants for the owned objects the cycle reclaimed
	// (alloc.ReconcileOwners). It runs after the sweep with mutators
	// still stopped and after Duration is sampled, so it is stopped-world
	// time Duration does not include. Zero when no ownership records
	// exist.
	PauseReconcileNs int64
	// SweepDeferredBlocks is how many blocks this cycle's sweep left
	// pending for lazy sweeping (always 0 with LazySweep off).
	SweepDeferredBlocks int
	// Provenance is true when the cycle recorded retention provenance
	// (World.EnableProvenance); ProvenanceRecords is how many
	// first-marking parent records its mark phase captured.
	Provenance        bool
	ProvenanceRecords uint64
}

// World is one simulated process image under garbage collection.
type World struct {
	Space     *mem.AddressSpace
	Heap      *alloc.Allocator
	Marker    *mark.Marker
	Blacklist blacklist.List

	// mu is the central lock: it guards every collector structure —
	// the allocator, marker, blacklist, address space, and all the
	// fields below. Single-threaded use never contends on it. Mutator
	// handles (mutator.go) take it only on their slow path; their
	// common allocation is a pointer bump under the handle's own lock.
	// Lock order: mu strictly before any Mutator.mu.
	mu sync.Mutex
	// muts holds every Mutator handle ever created on this world, in
	// creation order. parkMutatorsLocked parks them all (locking each
	// handle in order) before any phase that marks, sweeps, reclassifies
	// blocks or moves heap memory.
	muts []*Mutator
	// lastStopNs is the duration of the most recent safepoint stop,
	// recorded into the next cycle's CollectionStats.
	lastStopNs int64

	cfg Config
	mut RootSource
	// mutResidue is mut's residue simulator, resolved when mut is
	// attached: nil unless Config.AllocatorResidue is on and mut
	// simulates the allocator's frames.
	mutResidue      residueSimulator
	collections     int
	minorsSinceFull int
	// trigAt, trigKind and trigArmed are triggerLocked's result, kept
	// because its inputs (the committed heap, the last sweep's live
	// bytes, minorsSinceFull) change only at a close and at heap growth:
	// retriggerLocked recomputes them there and in NewWorld, and every
	// allocation's trigger check (dueCycleLocked) and every handle's
	// mirror (Mutator.resyncLocked) read them.
	trigAt    uint64
	trigKind  cycleKind
	trigArmed bool
	// cyc is the collection in progress (cycle.go): what a
	// stop-the-world kind fills and consumes inside one pause, and what a
	// concurrent kind keeps between its two.
	cyc         cycle
	last        CollectionStats
	finalizable map[mem.Addr]struct{}
	reclaimed   []mem.Addr
	hook        func(CollectionStats)
	// finaleAudit, when set, runs at every cycle's close once marking has
	// reached its fixpoint and before the sweep consumes the mark bits —
	// the one point where "marked ⊇ reachable" can be checked. The test
	// batteries hang their closure oracle on it; nil otherwise, one
	// compare per collection.
	finaleAudit func()
	// Multi-tenant serving state (tenant.go): tenants in creation order
	// (a Tenant's id is its 1-based index here); ownerCreditSet records
	// that the allocator's owner-credit callback was installed (done
	// lazily by the first budgeted tenant, so untenanted worlds keep a
	// nil ownership table).
	tenants        []*Tenant
	ownerCreditSet bool

	// Observability (see DESIGN.md section 5c). tracer is nil unless
	// SetTracer/EnableTracing installed one: every emit site nil-checks,
	// so un-traced collections pay one compare per site and allocate
	// nothing. gctrace, when set, receives one text line per cycle.
	// met is the always-on metrics view; epoch anchors gctrace
	// timestamps.
	tracer  *trace.Recorder
	gctrace io.Writer
	met     worldMetrics
	epoch   time.Time

	// prov is the retention-provenance state (provenance.go): enabled
	// turns recording on for subsequent collections, records maps each
	// marked object to its first-marking parent as of the cycle in
	// provCycle (rebuilt by full cycles, merged by minors), valid says
	// the map describes a completed cycle.
	prov struct {
		enabled bool
		valid   bool
		cycle   int
		records map[mem.Addr]mark.ParentRecord
	}

	// watch is the online retention watcher (watch.go), nil unless
	// StartRetentionWatch installed one: the collection barrier
	// nil-checks it, so an unwatched collection pays one compare and
	// allocates nothing (asserted by TestCollectZeroAllocsUnwatched).
	watch *retWatch
}

// worldMetrics is the world's registry plus direct handles to every
// metric it maintains, so the per-cycle recording path is plain atomic
// adds with no map lookups (and no allocation).
type worldMetrics struct {
	reg *metrics.Registry

	// Cycle counters, accumulated from each CollectionStats as it is
	// produced: the registry is a running sum of the per-cycle view
	// (asserted by TestMetricsMatchCollectionStats).
	cycles, minorCycles, allocTriggered *metrics.Counter
	objectsMarked, bytesMarked          *metrics.Counter
	objectsSwept, bytesSwept            *metrics.Counter
	pauseNs, markPauseNs, sweepNs       *metrics.Counter

	// Concurrent-mark counters: cycles run concurrently, the summed
	// final pauses, and stores whose target the write barrier marked.
	concCycles, finalPauseNs *metrics.Counter
	barrierShades            *metrics.Counter

	// Pacer observability: time mutators spent in slow-path assists,
	// the pacer's current credit (negative = debt), and concurrent
	// cycles whose finale an allocation's ErrNeedMemory forced.
	pacerAssistNs *metrics.Counter
	pacerCreditB  *metrics.Gauge
	forcedFinales *metrics.Counter

	// Safepoint and allocation-cache counters, maintained at the stop,
	// refill and flush sites rather than per cycle (a safepoint also
	// parks the handles for heap growth, the integrity audit and the
	// measurement passes; refills and explicit flushes happen between
	// cycles). Refills count a World.Run region's as well as the
	// handles' (cacheSet.fill); flushed slots are the handles' alone.
	stwStops, stwPauseNs           *metrics.Counter
	cacheRefills, cacheRefillSlots *metrics.Counter
	cacheFlushSlots                *metrics.Counter
	// Allocation-path lock waits (lockAwake): acquisitions that found
	// the lock held, their time to acquire, and those that slept.
	lockWaits, lockWaitNs, lockWaitSleeps *metrics.Counter

	// Provenance counters: cycles that recorded, and the first-mark
	// records they captured (running sums of CollectionStats.Provenance
	// and .ProvenanceRecords, like the cycle counters above).
	provCycles, provRecords *metrics.Counter

	// Retention-watch observability (watch.go): collections the watcher
	// sampled, alerts raised and their summed windowed growth, alerts
	// dropped by a slow subscriber, and the current positive-growth
	// suspect count. leakDiffHist is the snapshot-diff cost
	// distribution (build totals + trend update, nanoseconds).
	leakWatched, leakAlerts *metrics.Counter
	leakAlertBytes          *metrics.Counter
	leakDropped             *metrics.Counter
	leakSuspects            *metrics.Gauge
	leakDiffHist            *metrics.Histogram

	// Multi-tenant serving (tenant.go): registered tenants, the bytes
	// currently charged against their budgets, allocations denied over
	// budget, wholesale evictions, and the barrier time spent crediting
	// tenants (the running sum of CollectionStats.PauseReconcileNs).
	tenants, tenantLiveBytes       *metrics.Gauge
	budgetDenials, tenantEvictions *metrics.Counter
	ownerReconcileNs               *metrics.Counter

	// Pause-time histograms (log₂ buckets, nanoseconds): the
	// distribution complement to the *_pause_ns running sums. Not part
	// of Snapshot; see Registry.Histogram. finalHist is the concurrent
	// cycles' bounded-final-pause distribution.
	markHist, sweepHist, stopHist *metrics.Histogram
	finalHist                     *metrics.Histogram

	// Level gauges, refreshed from the allocator and blacklist at each
	// cycle barrier and on Metrics()/MetricsSnapshot().
	heapBytes, liveBytes, liveObjects *metrics.Gauge
	pendingSweepBlocks, lazySweptBlk  *metrics.Gauge
	blacklistPages, blAdds, blHits    *metrics.Gauge
	bytesAllocated, objectsAllocated  *metrics.Gauge
	heapExpansions, desperateAllocs   *metrics.Gauge
	mutators                          *metrics.Gauge
}

func newWorldMetrics() worldMetrics {
	reg := metrics.NewRegistry()
	return worldMetrics{
		reg:                reg,
		cycles:             reg.Counter("gc_cycles"),
		minorCycles:        reg.Counter("gc_minor_cycles"),
		allocTriggered:     reg.Counter("gc_alloc_triggered"),
		objectsMarked:      reg.Counter("objects_marked"),
		bytesMarked:        reg.Counter("bytes_marked"),
		objectsSwept:       reg.Counter("objects_swept"),
		bytesSwept:         reg.Counter("bytes_swept"),
		pauseNs:            reg.Counter("pause_ns"),
		markPauseNs:        reg.Counter("mark_pause_ns"),
		sweepNs:            reg.Counter("sweep_pause_ns"),
		concCycles:         reg.Counter("gc_concurrent_cycles"),
		finalPauseNs:       reg.Counter("stw_final_pause_ns"),
		barrierShades:      reg.Counter("barrier_shades"),
		pacerAssistNs:      reg.Counter("pacer_assist_ns"),
		pacerCreditB:       reg.Gauge("pacer_credit_bytes"),
		forcedFinales:      reg.Counter("gc_forced_finales"),
		stwStops:           reg.Counter("stw_stops"),
		stwPauseNs:         reg.Counter("stw_pause_ns"),
		cacheRefills:       reg.Counter("cache_refills"),
		cacheRefillSlots:   reg.Counter("cache_refill_slots"),
		cacheFlushSlots:    reg.Counter("cache_flush_slots"),
		lockWaits:          reg.Counter("lock_waits"),
		lockWaitNs:         reg.Counter("lock_wait_ns"),
		lockWaitSleeps:     reg.Counter("lock_wait_sleeps"),
		provCycles:         reg.Counter("provenance_cycles"),
		provRecords:        reg.Counter("provenance_records"),
		leakWatched:        reg.Counter("leak_watched_cycles"),
		leakAlerts:         reg.Counter("leak_alerts"),
		leakAlertBytes:     reg.Counter("leak_alerted_bytes"),
		leakDropped:        reg.Counter("leak_alerts_dropped"),
		leakSuspects:       reg.Gauge("leak_suspects"),
		tenants:            reg.Gauge("tenants"),
		tenantLiveBytes:    reg.Gauge("tenant_live_bytes"),
		budgetDenials:      reg.Counter("budget_denials"),
		tenantEvictions:    reg.Counter("tenant_evictions"),
		ownerReconcileNs:   reg.Counter("owner_reconcile_ns"),
		markHist:           reg.Histogram("mark_pause_ns_hist"),
		sweepHist:          reg.Histogram("sweep_pause_ns_hist"),
		stopHist:           reg.Histogram("stop_pause_ns_hist"),
		finalHist:          reg.Histogram("final_pause_ns_hist"),
		leakDiffHist:       reg.Histogram("leak_snapshot_diff_ns_hist"),
		heapBytes:          reg.Gauge("heap_bytes"),
		liveBytes:          reg.Gauge("live_bytes"),
		liveObjects:        reg.Gauge("live_objects"),
		pendingSweepBlocks: reg.Gauge("pending_sweep_blocks"),
		lazySweptBlk:       reg.Gauge("lazy_swept_blocks"),
		blacklistPages:     reg.Gauge("blacklist_pages"),
		blAdds:             reg.Gauge("blacklist_adds"),
		blHits:             reg.Gauge("blacklist_hits"),
		bytesAllocated:     reg.Gauge("bytes_allocated"),
		objectsAllocated:   reg.Gauge("objects_allocated"),
		heapExpansions:     reg.Gauge("heap_expansions"),
		desperateAllocs:    reg.Gauge("desperate_allocs"),
		mutators:           reg.Gauge("mutators"),
	}
}

// SetCollectionHook registers fn to be invoked after every collection
// (full or minor, stop-the-world or concurrent) with its statistics; nil
// unregisters. The inspect package provides a gctrace-style formatter
// for the common logging case. It takes the world lock — the hook runs
// with that lock held, on whichever goroutine closes the cycle — so,
// like Collections, it may not be called from a collection hook.
func (w *World) SetCollectionHook(fn func(CollectionStats)) {
	w.mu.Lock()
	w.hook = fn
	w.mu.Unlock()
}

// SetTracer attaches a structured event trace to the whole collection
// pipeline: the world's phase spans, the marker's blacklist additions,
// the allocator's expansions and lazy sweep drains. nil detaches. Set
// it outside an active cycle.
func (w *World) SetTracer(r *trace.Recorder) {
	w.tracer = r
	w.Marker.SetTracer(r)
	w.Heap.SetTracer(r)
	// The recorder's JSON dump carries this world's histogram
	// distributions (pause times, snapshot-diff costs) alongside the
	// events; when worlds share a recorder the last attach wins, same
	// as the events themselves.
	r.SetHistogramSource(w.met.reg.HistogramSnapshot)
}

// Tracer returns the attached trace recorder (nil when disabled).
func (w *World) Tracer() *trace.Recorder { return w.tracer }

// EnableTracing attaches a fresh recorder holding the last capacity
// events (trace.DefaultCapacity if capacity <= 0) and returns it.
func (w *World) EnableTracing(capacity int) *trace.Recorder {
	r := trace.New(capacity)
	w.SetTracer(r)
	return r
}

// SetGCTrace directs a one-line-per-cycle text trace to out (nil
// disables), in the spirit of the Go runtime's GODEBUG=gctrace=1:
//
//	gc 3 @0.412s full: 1.84ms pause (mark 1.72ms, sweep 0.06ms): 5000 live (40 KiB), 120 freed, heap 1024 KiB, 14 blacklisted
//
// The line is written with the world lock held, on whichever goroutine
// closes the cycle, and SetGCTrace takes that lock: like
// SetCollectionHook, it may not be called from a collection hook.
func (w *World) SetGCTrace(out io.Writer) {
	w.mu.Lock()
	w.gctrace = out
	w.mu.Unlock()
}

// Metrics returns the world's counter/gauge registry, with the level
// gauges freshly synchronised. The counters are running sums of every
// cycle's CollectionStats; the gauges mirror the allocator's and
// blacklist's current state.
func (w *World) Metrics() *metrics.Registry {
	w.mu.Lock()
	w.syncGauges()
	w.mu.Unlock()
	return w.met.reg
}

// MetricsSnapshot synchronises the gauges and returns every metric's
// current value in registration order.
func (w *World) MetricsSnapshot() []metrics.Sample {
	w.mu.Lock()
	w.syncGauges()
	w.mu.Unlock()
	return w.met.reg.Snapshot()
}

// syncGauges refreshes the level gauges from their owning subsystems.
// Callers hold w.mu.
func (w *World) syncGauges() {
	st := w.Heap.Stats()
	bl := w.Blacklist.Stats()
	m := &w.met
	m.heapBytes.Set(int64(st.HeapBytes))
	m.liveBytes.Set(int64(st.BytesLive))
	m.liveObjects.Set(int64(st.ObjectsLive))
	m.pendingSweepBlocks.Set(int64(w.Heap.SweepPending()))
	m.lazySweptBlk.Set(int64(st.LazySweptBlocks))
	m.blacklistPages.Set(int64(w.Blacklist.Len()))
	m.blAdds.Set(int64(bl.Adds))
	m.blHits.Set(int64(bl.Hits))
	m.bytesAllocated.Set(int64(st.BytesAllocated))
	m.objectsAllocated.Set(int64(st.ObjectsAllocated))
	m.heapExpansions.Set(int64(st.Expansions))
	m.desperateAllocs.Set(int64(st.DesperateAllocs))
	m.pacerCreditB.Set(w.cyc.pacerCredit)
	if len(w.tenants) > 0 {
		var live uint64
		for _, t := range w.tenants {
			live += t.live.Load()
		}
		m.tenantLiveBytes.Set(int64(live))
	}
}

// recordCycle folds one completed collection into the counters. Plain
// atomic adds on pre-registered metrics: no allocation, so an un-traced
// collection stays allocation-free.
func (w *World) recordCycle(st CollectionStats) {
	m := &w.met
	switch {
	case st.Concurrent:
		m.concCycles.Inc()
		m.finalPauseNs.Add(uint64(st.PauseFinalNs))
		m.finalHist.Record(uint64(st.PauseFinalNs))
	case st.Minor:
		m.minorCycles.Inc()
	default:
		m.cycles.Inc()
	}
	m.objectsMarked.Add(st.Mark.ObjectsMarked)
	m.bytesMarked.Add(st.Mark.BytesMarked)
	m.objectsSwept.Add(st.Sweep.ObjectsFreed)
	m.bytesSwept.Add(st.Sweep.BytesFreed)
	m.pauseNs.Add(uint64(st.Duration.Nanoseconds()))
	m.markPauseNs.Add(uint64(st.PauseMarkNs))
	m.sweepNs.Add(uint64(st.PauseSweepNs))
	m.ownerReconcileNs.Add(uint64(st.PauseReconcileNs))
	m.markHist.Record(uint64(st.PauseMarkNs))
	m.sweepHist.Record(uint64(st.PauseSweepNs))
	if st.Provenance {
		m.provCycles.Inc()
		m.provRecords.Add(st.ProvenanceRecords)
	}
}

// writeGCTrace renders the one-line cycle summary to w.gctrace.
func (w *World) writeGCTrace(st CollectionStats) {
	fmt.Fprintf(w.gctrace,
		"gc %d @%.3fs %s: %.2fms pause (mark %.2fms, sweep %.2fms): %d live (%d KiB), %d freed, heap %d KiB, %d blacklisted",
		w.collections, time.Since(w.epoch).Seconds(), st.Kind(),
		float64(st.Duration.Nanoseconds())/1e6,
		float64(st.PauseMarkNs)/1e6, float64(st.PauseSweepNs)/1e6,
		st.Sweep.ObjectsLive, st.Sweep.BytesLive/1024,
		st.Sweep.ObjectsFreed, st.HeapBytes/1024, w.Blacklist.Len())
	if st.Minor {
		fmt.Fprintf(w.gctrace, ", %d dirty blocks, %d promoted", st.DirtyBlocks, st.Promoted)
	}
	if st.SweepDeferredBlocks > 0 {
		fmt.Fprintf(w.gctrace, ", %d deferred", st.SweepDeferredBlocks)
	}
	if st.Concurrent {
		fmt.Fprintf(w.gctrace, ", snap %.2fms final %.2fms",
			float64(st.PauseSnapshotNs)/1e6, float64(st.PauseFinalNs)/1e6)
	}
	if st.PauseStopNs > 0 {
		fmt.Fprintf(w.gctrace, ", stop %.2fms", float64(st.PauseStopNs)/1e6)
	}
	if st.PauseReconcileNs > 0 {
		fmt.Fprintf(w.gctrace, ", recon %.2fms", float64(st.PauseReconcileNs)/1e6)
	}
	fmt.Fprintln(w.gctrace)
}

// GCTraceSummary renders a one-line pause-distribution summary from
// the world's histograms — the complement to the per-cycle gctrace
// line, typically printed once at the end of a run:
//
//	gc summary: 12 cycles: mark p50 0.42ms p95 1.84ms max 2.10ms; sweep ...; stop 3 stops p50 ...
func (w *World) GCTraceSummary() string {
	m := &w.met
	dist := func(h *metrics.Histogram) string {
		return fmt.Sprintf("p50 %.2fms p95 %.2fms max %.2fms",
			float64(h.Quantile(0.5))/1e6, float64(h.Quantile(0.95))/1e6, float64(h.Max())/1e6)
	}
	s := fmt.Sprintf("gc summary: %d cycles: mark %s; sweep %s; stop %d stops %s",
		m.markHist.Count(), dist(m.markHist), dist(m.sweepHist),
		m.stopHist.Count(), dist(m.stopHist))
	if n := m.finalHist.Count(); n > 0 {
		s += fmt.Sprintf("; final %d pauses %s", n, dist(m.finalHist))
	}
	if n := m.tenants.Load(); n > 0 {
		s += fmt.Sprintf("; tenants %d (%d KiB live)", n, m.tenantLiveBytes.Load()/1024)
	}
	if c, f := m.pacerCreditB.Load(), m.forcedFinales.Load(); c != 0 || f != 0 {
		s += fmt.Sprintf("; pacer credit %d KiB, forced finales %d", c/1024, f)
	}
	if n := m.leakDiffHist.Count(); n > 0 {
		s += fmt.Sprintf("; leakwatch %d samples diff %s", n, dist(m.leakDiffHist))
	}
	return s
}

// fireHook finalises the completed collection: fold it into the
// metrics, render the gctrace line and report it to the registered
// hook.
func (w *World) fireHook() {
	if w.Heap.HasOwners() {
		// Tenant policy hook at the collection barrier: credit each
		// tenant for the owned objects this cycle reclaimed (a lazy
		// barrier's pending blocks reconcile from their mark bits), so
		// budgets free up without waiting for the owner's next
		// over-budget slow path. No-op for untenanted worlds. Mutators
		// are still stopped and Duration is already sampled, so the time
		// is reported on its own.
		start := time.Now()
		w.Heap.ReconcileOwners()
		w.last.PauseReconcileNs = time.Since(start).Nanoseconds()
	}
	if w.watch != nil {
		// Online retention watcher (watch.go): snapshot-diff this cycle's
		// provenance if it is a sampled one. Nil for unwatched worlds, so
		// the barrier pays one pointer compare and allocates nothing.
		w.watchSampleLocked()
	}
	w.recordCycle(w.last)
	w.syncGauges()
	if w.gctrace != nil {
		w.writeGCTrace(w.last)
	}
	if w.hook != nil {
		w.hook(w.last)
	}
}

// NewWorld builds a world in the given address space (a fresh one if
// space is nil).
func NewWorld(space *mem.AddressSpace, cfg Config) (*World, error) {
	c := cfg.withDefaults()
	if space == nil {
		space = mem.NewAddressSpace()
	}
	var bl blacklist.List
	var err error
	switch c.Blacklisting {
	case BlacklistOff:
		bl = blacklist.Disabled{}
	case BlacklistDense:
		bl, err = blacklist.NewDense(c.HeapBase, c.HeapBase+mem.Addr(c.ReserveHeapBytes), c.Granule)
	case BlacklistHashed:
		bl, err = blacklist.NewHashed(c.HashBuckets, c.Granule)
	default:
		err = fmt.Errorf("core: unknown blacklist mode %d", c.Blacklisting)
	}
	if err != nil {
		return nil, err
	}
	if c.DiscontiguousGrowth && c.Blacklisting == BlacklistDense {
		return nil, fmt.Errorf("core: a discontinuous heap needs the hashed blacklist (paper, section 3)")
	}
	if c.ConcMarkWorkers < 0 {
		return nil, fmt.Errorf("core: ConcMarkWorkers must be >= 0, got %d", c.ConcMarkWorkers)
	}
	if c.MarkQuantum < 0 {
		return nil, fmt.Errorf("core: MarkQuantum must be >= 0, got %d", c.MarkQuantum)
	}
	if c.MarkWorkers < 0 || c.MarkWorkers > 1 {
		return nil, fmt.Errorf("core: MarkWorkers must be 0 or 1 (the stop-the-world mark is serial), got %d", c.MarkWorkers)
	}
	if c.ConcurrentMark && c.Generational {
		return nil, fmt.Errorf("core: ConcurrentMark and Generational are separate designs; set one")
	}
	heap, err := alloc.New(space, alloc.Config{
		HeapBase:                 c.HeapBase,
		InitialBytes:             c.InitialHeapBytes,
		ReserveBytes:             c.ReserveHeapBytes,
		ExpandIncrement:          c.ExpandIncrement,
		Blacklist:                bl,
		InteriorPointers:         c.Pointer == mark.PointerInterior,
		AllowAtomicOnBlacklisted: c.AllowAtomicOnBlacklisted,
		AtomicBlacklistMaxWords:  c.AtomicBlacklistMaxWords,
		FreeBlocks:               c.FreeBlocks,
		SkipPageBoundarySlot:     c.SkipPageBoundarySlot,
		DiscontiguousGrowth:      c.DiscontiguousGrowth,
		LazySweep:                c.LazySweep,
	})
	if err != nil {
		return nil, err
	}
	w := &World{
		Space:       space,
		Heap:        heap,
		Marker:      mark.New(heap, mark.Config{Policy: c.Pointer, Alignment: c.Alignment, Blacklist: bl}),
		Blacklist:   bl,
		cfg:         c,
		finalizable: map[mem.Addr]struct{}{},
		met:         newWorldMetrics(),
		epoch:       time.Now(),
	}
	w.retriggerLocked()
	return w, nil
}

// Config returns the world's effective configuration.
func (w *World) Config() Config { return w.cfg }

// SetMutator attaches the root source whose registers and stack are
// scanned (concurrent mutator goroutines attach theirs through their
// Mutator handle instead; see World.NewMutator).
func (w *World) SetMutator(m RootSource) {
	w.mu.Lock()
	w.mut = m
	w.mutResidue = w.residueOf(m)
	w.mu.Unlock()
}

// residueOf resolves src's residue simulator once, when src is
// attached, so that no allocation asserts its type: nil unless
// Config.AllocatorResidue is on and src simulates the allocator's
// frames.
func (w *World) residueOf(src RootSource) residueSimulator {
	if !w.cfg.AllocatorResidue {
		return nil
	}
	rs, _ := src.(residueSimulator)
	return rs
}

// RootSource returns the root source attached with SetMutator
// (possibly nil).
func (w *World) RootSource() RootSource {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.mut
}

// Allocate allocates an object of nwords words, collecting and/or
// expanding the heap as needed. atomic marks the object pointer-free.
func (w *World) Allocate(nwords int, atomic bool) (mem.Addr, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.allocateDirect(nwords, atomic)
}

// allocateDirect is the body of Allocate and Region.Allocate; callers
// hold w.mu.
func (w *World) allocateDirect(nwords int, atomic bool) (mem.Addr, error) {
	if w.mut != nil {
		w.mut.OnAllocate()
	}
	return w.allocateLocked(nwords, w.mutResidue, false,
		func() (mem.Addr, error) { return w.Heap.Alloc(nwords, atomic) },
		func() (mem.Addr, error) { return w.Heap.AllocDesperate(nwords, atomic) })
}

// RegisterLayout registers an object layout (one pointer flag per
// word) for typed allocation; see AllocateTyped. It takes the world
// lock, under which the marker reads the descriptor table, so it is
// safe while a concurrent cycle marks.
func (w *World) RegisterLayout(ptrMask []bool) (alloc.DescID, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Heap.RegisterDescriptor(ptrMask)
}

// AllocateTyped allocates an object with exact layout information: the
// collector scans only the registered pointer words. This is the
// "complete information on the location of pointers in the heap"
// operating point of the paper's introduction.
func (w *World) AllocateTyped(id alloc.DescID) (mem.Addr, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.allocateTypedDirect(id)
}

// allocateTypedDirect is the body of AllocateTyped and
// Region.AllocateTyped; callers hold w.mu.
func (w *World) allocateTypedDirect(id alloc.DescID) (mem.Addr, error) {
	d, err := w.Heap.Descriptor(id)
	if err != nil {
		return 0, err
	}
	if w.mut != nil {
		w.mut.OnAllocate()
	}
	return w.allocateLocked(d.Words, w.mutResidue, false,
		func() (mem.Addr, error) { return w.Heap.AllocTyped(id) },
		nil)
}

// errHeapExhausted is what an allocation returns when the heap is at its
// reservation and a collection freed too little: alloc's sentinel,
// wrapped once — a world pinned there fails every request, and should
// not format a string for each.
var errHeapExhausted = fmt.Errorf("allocating: %w", alloc.ErrHeapExhausted)

// allocateLocked runs the collection/expansion retry policy around one
// allocation primitive. Callers hold w.mu and have already invoked the
// OnAllocate hook; rs is the allocating mutator's residue simulator
// (nil: none) — the attached RootSource's for the direct World entry
// points, the handle's source's for Mutator ones.
// rooted says the caller stores the object into a root segment before
// it releases w.mu (Mutator.AllocateRooted): such an object is born
// white, not black (DESIGN.md §5g).
func (w *World) allocateLocked(nwords int, rs residueSimulator, rooted bool, try, desperate func() (mem.Addr, error)) (mem.Addr, error) {
	// collected records that a full collection ran inside this call: the
	// exhaustion arm below runs one before giving up unless one has.
	collected := false
	if w.cyc.active {
		// Rate-based assist (concurrent.go): the pacer debits this
		// allocation's share of the cycle's marking and repays it with
		// bounded chunks. Nothing else marks an allocation-triggered
		// cycle, so the slow paths carry all of it, in proportion to what
		// they allocate. A repayment chunk that drains the gray set runs
		// the finale right here, on the allocating goroutine.
		w.pacerAssistLocked()
	} else if kind, due := w.dueCycleLocked(); due {
		// Regular-interval trigger. A concurrent kind opens with its
		// snapshot pause and is marked from then on by the assists of
		// the slow paths that follow; a stop-the-world kind runs to
		// completion here.
		w.allocTrigger(kind)
		if kind.concurrent() {
			w.startConcurrentLocked()
		} else {
			w.collectLocked(kind)
			if !kind.minor() {
				w.expandIfTight()
				collected = true
			}
		}
	}
	p, err := try()
	if err == alloc.ErrNeedMemory && w.landCycleLocked() {
		// The in-flight concurrent cycle is complete: its close swept. Its
		// finale was forced — the cycle's own allocation outran its
		// marking, which is what the pacer is there to prevent.
		w.met.forcedFinales.Inc()
		p, err = try()
	}
	if err == alloc.ErrNeedMemory {
		// Collect only if enough allocation has happened since the last
		// cycle to make one worthwhile; otherwise the heap is simply too
		// small for the live data and must grow (the real collector's
		// GC_collect_or_expand makes the same distinction).
		if since, heap := w.Heap.SinceGC(); since > uint64(heap/8) {
			w.collectLocked(kindFull)
			collected = true
			p, err = try()
		}
	}
	for err == alloc.ErrNeedMemory {
		_, heap := w.Heap.SinceGC()
		grow := nwords * mem.WordBytes
		if amortized := heap / 8; grow < amortized {
			grow = amortized
		}
		if eerr := w.expandLocked(grow); eerr != nil {
			if !collected {
				// The heap cannot grow and this call has not looked for
				// garbage (too little was allocated since the last cycle to
				// make that worthwhile while growing was an option). Collect
				// before giving up, as GC_collect_or_expand does: a failed
				// allocation adds nothing to the trigger, so without this a
				// full heap of garbage would refuse every request from here
				// on. A cycle in flight is landed first — collectLocked
				// would take its finale, which frees only what its snapshot
				// saw dead, for the collection.
				w.landCycleLocked()
				w.collectLocked(kindFull)
				collected = true
				p, err = try()
				continue
			}
			if w.cfg.DesperateFallback && desperate != nil {
				if p, derr := desperate(); derr == nil {
					return p, nil
				}
			}
			if eerr == alloc.ErrHeapExhausted {
				return 0, errHeapExhausted
			}
			return 0, fmt.Errorf("allocating %d words: %w", nwords, eerr)
		}
		p, err = try()
	}
	if err != nil {
		return 0, err
	}
	if w.cyc.active && !rooted {
		// Born black: the fresh object is zero-filled, so there is
		// nothing to scan at birth, and the mark bit keeps this cycle's
		// sweep off it. Later stores into it are caught by the write
		// barrier like stores into any other black object.
		w.Heap.Mark(p)
	}
	if rs != nil {
		rs.SimulateCallResidue(w.cfg.AllocatorSelfClean, mem.Word(p), mem.Word(nwords))
	}
	return p, nil
}

// expandIfTight grows the heap when a collection left too little free
// space, per the FreeSpaceDivisor policy.
func (w *World) expandIfTight() {
	st := w.Heap.Stats()
	free := uint64(st.HeapBytes) - st.BytesLive
	if free < uint64(st.HeapBytes/w.cfg.FreeSpaceDivisor) && w.Heap.CanExpand() {
		w.expandLocked(st.HeapBytes / 2)
	}
}

// expandLocked is the one way the world grows the heap: Allocator.Expand
// with every handle parked. Growth reallocates a heap segment's backing
// array or maps a new extent into the address space, and handles read
// and write heap words under their own locks alone (Mutator.Store,
// Mutator.Load); parking flushes nothing, so no address or free list
// differs from an unparked growth. Callers hold w.mu and no handle's
// lock.
func (w *World) expandLocked(bytes int) error {
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	err := w.Heap.Expand(bytes)
	w.retriggerLocked() // before the resume re-mirrors it
	return err
}

// Collect runs a full stop-the-world collection: park every mutator
// handle at its next allocation point (its caches kept and marked),
// then mark from registers, live stacks and root segments; drain;
// handle finalisable objects; sweep; age the blacklist. A concurrent
// cycle in flight is completed instead, and its statistics returned.
func (w *World) Collect() CollectionStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.collectLocked(kindFull)
}

// CollectMinor runs a generational minor collection: old (marked)
// objects on pages written since the last collection are rescanned for
// old-to-young pointers, the roots are scanned as usual, and the sweep
// preserves mark bits, so every young survivor is promoted to the old
// generation (the sticky-mark-bit scheme of the paper's reference
// [13]). Outside generational mode it behaves like Collect.
func (w *World) CollectMinor() CollectionStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	kind := kindFull
	if w.cfg.Generational {
		kind = kindMinor
	}
	return w.collectLocked(kind)
}

// MarkOnly marks from the roots and returns the apparently-accessible
// object count and bytes, then clears the marks without sweeping. The
// paper's section 3.1 reports exactly this quantity ("apparently
// accessible cons-cells").
func (w *World) MarkOnly() (objects, bytes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// The measurement would clobber an in-flight cycle's mark bits;
	// complete the cycle first.
	w.landCycleLocked()
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	// Carved slots not yet handed out are not accessible objects, and
	// pending bits are the previous cycle's, not this one's.
	w.flushMutatorsLocked()
	w.Heap.FinishSweep()
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), 1, int64(kindFull))
	mstats, _ := w.markPhase(false)
	w.traceMarkEnd(mstats)
	objects, bytes = w.Heap.CountMarked()
	w.Heap.ClearMarks()
	// The measurement's marks are gone, so any provenance it recorded
	// describes nothing; drop it rather than harvesting.
	w.stopRecording()
	return objects, bytes
}

// Collections returns how many collections have run. Like
// LastCollection, RegisterFinalizable and DrainReclaimed it takes the
// world lock — a concurrent cycle closes on whichever goroutine's
// allocation assist drains it — so none of the four may be called from
// a collection hook, which runs with the lock held.
func (w *World) Collections() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.collections
}

// LastCollection returns statistics for the most recent collection
// (not from a collection hook; see Collections).
func (w *World) LastCollection() CollectionStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// RegisterFinalizable registers an object base address for reclamation
// tracking: when a collection finds it unreachable, it is queued and
// reported by DrainReclaimed (not from a collection hook; see
// Collections).
func (w *World) RegisterFinalizable(a mem.Addr) {
	w.mu.Lock()
	w.finalizable[a] = struct{}{}
	w.mu.Unlock()
}

// FinishSweep completes any deferred (lazy) sweep work immediately and
// returns the number of blocks swept; a no-op with LazySweep off.
// Collections finish the remainder automatically before marking, so
// explicit calls are only needed by tests and measurements that must
// observe final reclamation state without running another cycle.
// Deferred sweeps rebuild free lists but touch nothing the allocation
// fast path reads: a cached slot may sit in a sweep-pending block, but
// it is marked there (alloc.CheckIntegrity checks it), so the sweep
// keeps it and writes none of its words. Mutators need not stop.
func (w *World) FinishSweep() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Heap.FinishSweep()
}

// DrainReclaimed returns and clears the queue of reclaimed registered
// objects (not from a collection hook; see Collections).
func (w *World) DrainReclaimed() []mem.Addr {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.drainReclaimedLocked()
}

func (w *World) drainReclaimedLocked() []mem.Addr {
	out := w.reclaimed
	w.reclaimed = nil
	return out
}

// Load reads a heap or segment word (convenience for workloads).
func (w *World) Load(a mem.Addr) (mem.Word, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Space.Load(a)
}

// Store writes a heap or segment word (convenience for workloads). It
// is also the write barrier (storeLocked): in generational mode heap
// stores dirty their page, like the VM-dirty-bit barrier of the PCR
// collector; during a concurrent cycle the stored value is shaded.
func (w *World) Store(a mem.Addr, v mem.Word) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.storeLocked(a, v)
}

// storeLocked is the write barrier + store body; callers hold w.mu.
// There is one barrier per design. While a concurrent cycle is marking
// it is Dijkstra's insertion barrier, exact: the stored value is shaded
// (shadeLocked). In a generational world the written-to block's card is
// dirtied: the cards are the remembered set the next minor cycle
// rescans.
func (w *World) storeLocked(a mem.Addr, v mem.Word) error {
	if w.cyc.active {
		w.shadeLocked(a, v)
	} else if w.cfg.Generational {
		w.Heap.MarkDirty(a)
	}
	return w.Space.Store(a, v)
}

// barrierFree reports whether a store may skip storeLocked; callers hold w.mu or a handle's lock.
func (w *World) barrierFree() bool { return !w.cyc.active && !w.cfg.Generational }
