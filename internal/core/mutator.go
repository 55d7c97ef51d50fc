package core

import (
	"math/bits"
	"runtime"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Concurrent mutators. The paper's collector serves multi-threaded PCR
// programs — section 5 scans "all thread stacks" — and the original
// Boehm collector gives each thread free-list caches refilled in
// batches from the central size-class lists. The same design here:
//
//   - A Mutator handle holds one cached span of carved free slots per
//     (size class, atomic) pair: a cacheSet (caches.go), the mechanism
//     a World.Run region shares. The common allocation is a pointer
//     bump along the span under the handle's own mutex: no central
//     lock, no heap-memory access at all (every free slot is zero), so
//     concurrent mutators never contend.
//   - Stores and loads take the handle's mutex too, not the central
//     lock. A load has no barrier, so it always does; a store does
//     whenever it has no barrier to run — no concurrent cycle is
//     marking and the world is not generational. A cycle becomes
//     active or inactive only with every handle parked
//     (parkMutatorsLocked holds every handle's mutex), so the
//     condition cannot change under a store. A barrier store takes the
//     central lock and runs storeLocked, as World.Store does.
//   - Heap memory moves in one place only: Allocator.Expand grows the
//     heap segment's backing array. It runs with every
//     handle parked (expandLocked), so a handle may read and write heap
//     words under its own mutex alone.
//   - The slow path — an empty cache, a large or typed object, heap
//     expansion, any collection — takes the world's central lock and
//     runs the original single-threaded code, with the cache refilled
//     by one carve of the class's next hole (alloc.AllocSpan).
//   - There is one safepoint, parkMutatorsLocked: it parks every
//     handle at its next allocation, store or load boundary (by
//     acquiring its mutex) and publishes its locally-counted
//     allocation stats — to the heap, and a tenant handle's to its
//     tenant. It flushes nothing. Collections, heap growth, the
//     integrity audit and the measurement passes all stop the world
//     this way. A goroutine that finds its handle's mutex or, on a slow
//     path, the central lock held waits awake (lockAwake).
//   - Caches survive a collection. The sweep classifies blocks from
//     their bitmaps, and a cached slot — allocated, reachable from
//     nothing — would be reclaimed and later carved a second time, so
//     every cached slot is marked as the first act of each mark step
//     (markHeldLocked), after the open has landed deferred sweeps and
//     cleared a full generational cycle's marks. A concurrent cycle
//     marks them in its snapshot pause and again at the end of its
//     finale's drain: a carve in between is born black only when it
//     serves a plain Allocate. A carve for AllocateRooted is left
//     white, since its slots go straight into a root, and the cache
//     then serves plain allocations no more until the finale marks its
//     remainder (caches.go, allocCache.black). At every sweep, every cached slot
//     is therefore marked, and the sweep keeps it. The close takes the
//     held slots back out of the survey, so sweep results and live
//     statistics read what they would with empty caches, and a
//     generational close unmarks them, so that what the cache hands
//     out later is young (settleHeldLocked).
//   - A cache is flushed back to its list only where an empty
//     cache is needed: an explicit Free (the freed slot must land on
//     top of the list per-object allocation would have left), tenant
//     eviction, an over-budget tenant charge (the caches' slots are
//     paid for, tenant.go), and the measurement passes (MarkOnly, the
//     retention report, the heap snapshot), which must not see carved
//     slots as objects. A slow path also returns the one class it
//     refills.
//
// Single-mutator equivalence. With one handle, every address up to the
// first collection is bit-for-bit what the direct World entry points
// produce, and every collection marks, frees and keeps the same
// objects and bytes (asserted by TestMutatorDifferential): a refill
// carves the next hole, the slots per-object allocation would take
// next, in their order, ReturnSpan restores the untouched tail exactly,
// stats are published before any point that reads them, and the fast
// path diverts to the slow path at precisely the allocation where the
// direct path would trigger a collection — the handle mirrors the
// central BytesSinceGC trigger in sinceGC/trigger, resynchronised after
// every slow path and whenever a stop resumes it. After a collection
// the addresses part ways: the handle's held slots are not on the
// rebuilt lists, and how many it holds — the rest of a whole hole —
// decides what the lists hand out next.

// MutatorStats counts one handle's allocation activity.
type MutatorStats struct {
	// FastAllocs is how many allocations were served from a cached span
	// without taking the central lock.
	FastAllocs uint64
	// SlowAllocs is how many allocations took the central lock: cache
	// refills, large/typed objects, and collection-trigger diversions.
	SlowAllocs uint64
	// Refills counts cache refills; RunSlots the slots they carved.
	Refills  uint64
	RunSlots uint64
	// FlushedSlots counts unconsumed cached slots returned to the
	// central lists by explicit flushes (Free, tenant eviction,
	// the measurement passes). A collection flushes nothing.
	FlushedSlots uint64
}

// Mutator is one allocating goroutine's handle onto a World. Create
// one per goroutine with World.NewMutator; a handle must not be shared
// between goroutines (the collector may use any goroutine's handle —
// that is what the safepoint protocol synchronises — but each handle
// has at most one owner issuing calls on it).
//
// All methods are safe to call while other mutators allocate and
// collect concurrently.
type Mutator struct {
	cacheSet // the handle's caches and its world w (caches.go)
	// src is the simulated machine scanned as this mutator's roots
	// (nil for a pure allocation handle). Guarded by both w.mu and
	// m.mu: the fast path reads it under m.mu; root scans read it
	// under w.mu with the mutator stopped.
	src RootSource
	// residue is src's residue simulator (World.residueOf), guarded
	// like src.
	residue residueSimulator
	// ten is the tenant this handle charges (nil for an untenanted
	// handle; see tenant.go). Immutable after creation, so both the
	// fast path (under m.mu) and the slow path (under w.mu) read it
	// without further coordination.
	ten *Tenant

	// mu makes the owner goroutine's fast path visible to the
	// safepoint protocol: parkMutatorsLocked acquires it (after w.mu —
	// always that order) to park the mutator at an allocation
	// boundary. The fast path, and every store without a barrier and
	// every load, holds it alone; the slow path holds only w.mu, which
	// is safe because every other-goroutine access to this struct holds
	// w.mu too.
	mu sync.Mutex
	// seg is the segment the handle's last store or load found (nil
	// before the first); stores and loads try it before searching the
	// address space. Guarded by mu. A segment must not be unmapped
	// while a handle may still address it.
	seg *mem.Segment
	// unpubObjects/unpubBytes count fast-path allocations not yet
	// folded into the central allocator stats and the tenant's counts;
	// published (under w.mu) at every slow path and safepoint, so the
	// stats are exact at every point the collector reads them.
	unpubObjects uint64
	unpubBytes   uint64
	// sinceGC mirrors the central BytesSinceGC as of the last slow
	// path, advanced locally by fast-path consumption; trigger is the
	// byte threshold at which the world would start a collection
	// (hasTrigger false: none). When sinceGC crosses trigger the fast path
	// diverts to the slow path, which re-evaluates the trigger
	// centrally — with one mutator this reproduces the direct path's
	// collection points exactly; with several it is a slightly stale
	// heuristic that the next refill corrects.
	sinceGC    uint64
	trigger    uint64
	hasTrigger bool
	stats      MutatorStats
}

// NewMutator registers and returns a new mutator handle. Handles are
// permanent: they stay registered (and their stacks stay roots) for
// the world's lifetime.
func (w *World) NewMutator() *Mutator { return w.newMutator(nil) }

// newMutator is the shared body of World.NewMutator and
// Tenant.NewMutator: t non-nil binds the handle to that tenant.
func (w *World) newMutator(t *Tenant) *Mutator {
	m := &Mutator{cacheSet: newCacheSet(w), ten: t}
	w.mu.Lock()
	w.muts = append(w.muts, m)
	if t != nil {
		t.muts = append(t.muts, m)
	}
	m.resyncLocked()
	w.met.mutators.Set(int64(len(w.muts)))
	w.mu.Unlock()
	return m
}

// SetRootSource attaches the simulated machine whose registers and
// stack are scanned as this mutator's roots (nil detaches).
func (m *Mutator) SetRootSource(src RootSource) {
	m.w.mu.Lock()
	m.mu.Lock()
	m.src = src
	m.residue = m.w.residueOf(src)
	m.mu.Unlock()
	m.w.mu.Unlock()
}

// RootSource returns the attached machine (possibly nil).
func (m *Mutator) RootSource() RootSource {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.src
}

// Allocate allocates an object of nwords words, like World.Allocate.
// Small objects are usually served from the handle's cached span
// without touching the central lock.
func (m *Mutator) Allocate(nwords int, atomic bool) (mem.Addr, error) {
	return m.allocate(nwords, atomic, nil, 0)
}

// AllocateRooted allocates like Allocate and stores the new object's
// address at dst[at] before returning — atomically with respect to
// safepoints, so there is no window in which the object exists but no
// root reaches it. This is the simulated equivalent of an allocation
// whose result lands directly in a register or rooted stack slot;
// programs with several allocating goroutines need it to keep objects
// provably live (a root written after Allocate returns could come too
// late: another mutator's collection may already have reclaimed the
// object).
//
// dst must be a mapped non-heap segment (typically a root data
// segment) and the slot at `at` must be owned by this mutator's
// goroutine. Root segments are rescanned in full by every collector
// mode, so the store needs no write barrier, and an object allocated
// this way while a concurrent cycle marks is born white: the finale's
// root rescan marks it if dst[at] (or anything it was stored into
// since) still holds it, and the close frees it otherwise.
func (m *Mutator) AllocateRooted(dst *mem.Segment, at mem.Addr, nwords int, atomic bool) (mem.Addr, error) {
	return m.allocate(nwords, atomic, dst, at)
}

// allocate is the shared body of Allocate and AllocateRooted: dst nil
// means no rooting store.
func (m *Mutator) allocate(nwords int, atomic bool, dst *mem.Segment, at mem.Addr) (mem.Addr, error) {
	if !m.mu.TryLock() {
		m.w.lockAwake(&m.mu)
	}
	if m.src != nil {
		m.src.OnAllocate()
	}
	if nwords >= 1 && !alloc.IsLarge(nwords) {
		c, _ := m.cacheFor(nwords, atomic)
		// Divert to the slow path at the allocation where the central
		// trigger would fire: the collection must happen now, not when
		// the cache next empties. A plain allocation while a cycle marks
		// also diverts from a white cache, to be re-carved black. A
		// budgeted tenant's cached slots were paid for at their carve,
		// so a tenant handle only checks its cancellation token here: a
		// cancelled tenant diverts to the slow path, which reports it.
		if c.cursor < c.limit && !(m.hasTrigger && m.sinceGC > m.trigger) &&
			(dst != nil || c.black || !m.w.cyc.active) &&
			(m.ten == nil || !m.ten.cancelled.Load()) {
			// Root before consuming: m.mu is held, so no safepoint can
			// intervene between the store and the hand-out. The store
			// touches only the caller's own segment slot, never shared
			// heap structures (see the fast-path rules above).
			if dst != nil {
				if err := dst.Store(at, mem.Word(c.cursor)); err != nil {
					m.mu.Unlock()
					return 0, err
				}
			}
			p := c.bump()
			bytes := uint64(c.words) * mem.WordBytes
			m.sinceGC += bytes
			m.unpubObjects++
			m.unpubBytes += bytes
			m.stats.FastAllocs++
			if m.residue != nil {
				m.residue.SimulateCallResidue(m.w.cfg.AllocatorSelfClean, mem.Word(p), mem.Word(nwords))
			}
			m.mu.Unlock()
			return p, nil
		}
	}
	m.mu.Unlock()
	return m.allocateSlow(nwords, atomic, dst, at)
}

// allocateSlow is every allocation that needs the central lock. The
// owner goroutine holds no locks on entry (never m.mu — a collection
// triggered here re-acquires it through the safepoint protocol).
func (m *Mutator) allocateSlow(nwords int, atomic bool, dst *mem.Segment, at mem.Addr) (mem.Addr, error) {
	w := m.w
	if !w.mu.TryLock() {
		w.lockAwake(&w.mu)
	}
	defer w.mu.Unlock()
	m.publishLocked()
	defer m.resyncLocked()
	m.stats.SlowAllocs++

	// Tenant accounting: resolve cancellation and the budget before
	// touching the heap. The charge is undone if the allocation below
	// fails.
	tenCharge, err := m.chargeTenantLocked(nwords)
	if err != nil {
		return 0, err
	}

	// tagged records that p already carries its owner tag (the carve
	// tags every slot it keeps, including the one handed out now).
	tagged := false
	try := func() (mem.Addr, error) { return w.Heap.Alloc(nwords, atomic) }
	if nwords >= 1 && !alloc.IsLarge(nwords) {
		c, idx := m.cacheFor(nwords, atomic)
		// Return any cached remainder first: the carve must start
		// from exactly the list state per-object allocation would see
		// (the cache may be non-empty on a trigger diversion).
		m.returnCacheLocked(idx)
		try = func() (mem.Addr, error) {
			// One carve: the whole next hole. The first slot is handed
			// out now; the rest is the fast path's.
			s, err := w.Heap.AllocSpan(nwords, atomic)
			if err != nil {
				return 0, err
			}
			if m.ten != nil && m.ten.budgeted() {
				// A budgeted tenant pays for its carve now: the first slot
				// was charged above, the rest as far as the budget has room.
				// What it cannot pay for goes straight back, untagged and
				// unmarked. Every slot it keeps is tagged with the tenant as
				// it was charged; a flush untags and uncharges whatever
				// returns unconsumed, and until then the slots are owned and
				// paid (Tenant.OwnedBytes counts them).
				slotBytes := mem.Addr(s.Words * mem.WordBytes)
				n := int((s.Limit - s.Cursor) / slotBytes)
				if paid := 1 + m.ten.chargeUpTo(n-1, uint64(slotBytes)); paid < n {
					cut := s.Cursor + mem.Addr(paid)*slotBytes
					w.Heap.ReturnSpan(cut, s.Limit)
					s.Limit = cut
				}
				w.Heap.TagOwnerSpan(s.Cursor, s.Limit, m.ten.id)
				tagged = true
			}
			// Born black: a concurrent cycle is marking, and the carve
			// serves a plain allocation, whose caller roots it nowhere
			// the collector sees, so the finale must not sweep what the
			// fast path hands out. Carved slots are zeroed, so marking
			// without scanning is sound; ReturnSpan unmarks whatever the
			// flush gives back. A rooted carve stays white (allocCache).
			if c.black = w.cyc.active && dst == nil; c.black {
				w.Heap.MarkHeldSpan(s.Cursor, s.Limit, true)
			}
			p, n := m.fill(idx, s)
			m.stats.Refills++
			m.stats.RunSlots += uint64(n)
			return p, nil
		}
	}
	p, err := w.allocateLocked(nwords, m.residue, dst != nil, try,
		func() (mem.Addr, error) { return w.Heap.AllocDesperate(nwords, atomic) })
	m.settleTenantLocked(p, err, tenCharge, tagged)
	if err != nil {
		return 0, err
	}
	if dst != nil {
		// Root while still holding w.mu: no collection can run before
		// the store lands. dst is a root segment, so the store needs no
		// barrier, as on the fast path: the object stays white.
		if serr := dst.Store(at, mem.Word(p)); serr != nil {
			return 0, serr
		}
	}
	return p, nil
}

// AllocateTyped allocates an object with exact layout information,
// like World.AllocateTyped. Typed allocation always takes the central
// lock: its free lists are shared per (class, descriptor).
func (m *Mutator) AllocateTyped(id alloc.DescID) (mem.Addr, error) {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	d, err := w.Heap.Descriptor(id)
	if err != nil {
		return 0, err
	}
	if m.src != nil {
		m.src.OnAllocate()
	}
	m.publishLocked()
	defer m.resyncLocked()
	m.stats.SlowAllocs++
	tenCharge, err := m.chargeTenantLocked(d.Words)
	if err != nil {
		return 0, err
	}
	p, err := w.allocateLocked(d.Words, m.residue, false,
		func() (mem.Addr, error) { return w.Heap.AllocTyped(id) }, nil)
	m.settleTenantLocked(p, err, tenCharge, false)
	return p, err
}

// chargeTenantLocked charges a tenant handle's budget for one slow-path
// allocation of nwords words before the heap is touched, returning the
// bytes charged. An over-budget charge flushes the tenant's caches and
// then runs the tenant's policy (tenant.go), which may collect, evict,
// or deny right here. Callers hold w.mu and settle the charge with
// settleTenantLocked.
func (m *Mutator) chargeTenantLocked(nwords int) (uint64, error) {
	if m.ten == nil {
		return 0, nil
	}
	charge := tenantChargeBytes(nwords)
	return charge, m.w.tenantChargeLocked(m.ten, charge)
}

// settleTenantLocked finishes a slow-path tenant allocation: uncharge
// on failure, count and tag on success. tagged says p already carries
// its owner tag — the carve paths tag every slot they carve — so only
// an object from no carve (large, typed, desperate) is tagged here.
// Callers hold w.mu and have charged tenCharge via chargeTenantLocked.
func (m *Mutator) settleTenantLocked(p mem.Addr, err error, tenCharge uint64, tagged bool) {
	t := m.ten
	if t == nil {
		return
	}
	if err != nil {
		if t.budgeted() && tenCharge > 0 {
			t.uncharge(tenCharge)
		}
		return
	}
	t.noteAllocs(1, tenCharge)
	if t.budgeted() && !tagged {
		m.w.Heap.TagOwner(p, t.id)
	}
}

// Free explicitly frees an object, like Allocator.Free. The handle's
// caches flush first so the freed slot lands on top of exactly the
// list per-object allocation would have left — the next allocation of
// its class returns it, as in single-threaded use.
func (m *Mutator) Free(base mem.Addr) error {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	m.flushLocked()
	defer m.resyncLocked()
	var err error
	var ownerID int32
	var ownerBytes uint64
	var owned bool
	if err = w.Heap.Free(base); err == nil {
		ownerID, ownerBytes, owned = w.Heap.TakeOwner(base)
	}
	if owned {
		// An explicit free credits the owning tenant immediately — no
		// need to wait for a collection barrier to reconcile it.
		w.creditTenant(ownerID, 1, ownerBytes)
	}
	return err
}

// Store writes a heap or segment word through the write barrier, like
// World.Store. With no barrier to run it holds only the handle's own
// lock, so it is ordered against another goroutine's access to the
// same word only by a safepoint or by the program's own
// synchronisation — as AllocateRooted's root store already was.
func (m *Mutator) Store(a mem.Addr, v mem.Word) error {
	w := m.w
	if !m.mu.TryLock() {
		w.lockAwake(&m.mu)
	}
	if w.barrierFree() {
		if s := m.segment(a); s != nil {
			err := s.Store(a, v)
			m.mu.Unlock()
			return err
		}
	}
	m.mu.Unlock()
	// The barrier path (and an unmapped address, which it reports).
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.storeLocked(a, v)
}

// Load reads a heap or segment word, like World.Load, under the
// handle's own lock (there is no read barrier).
func (m *Mutator) Load(a mem.Addr) (mem.Word, error) {
	if !m.mu.TryLock() {
		m.w.lockAwake(&m.mu)
	}
	if s := m.segment(a); s != nil {
		v, err := s.Load(a)
		m.mu.Unlock()
		return v, err
	}
	m.mu.Unlock()
	return m.w.Load(a) // unmapped: the world's lookup reports it
}

// segment returns the segment whose reserved region holds a, or nil,
// trying the handle's last one first. Callers hold m.mu: the lookup
// reads the address space's segment table, which the collector changes
// only in Allocator.Expand, with every handle parked.
func (m *Mutator) segment(a mem.Addr) *mem.Segment {
	s := m.w.Space.Lookup(m.seg, a)
	if s != nil {
		m.seg = s
	}
	return s
}

// Collect runs a full collection, like World.Collect (which is equally
// safe to call from any goroutine; this is a convenience).
func (m *Mutator) Collect() CollectionStats {
	return m.w.Collect()
}

// CollectMinor runs a minor collection, like World.CollectMinor.
func (m *Mutator) CollectMinor() CollectionStats {
	return m.w.CollectMinor()
}

// Stats returns the handle's allocation counters.
func (m *Mutator) Stats() MutatorStats {
	m.w.mu.Lock()
	m.mu.Lock()
	st := m.stats
	m.mu.Unlock()
	m.w.mu.Unlock()
	return st
}

// publishLocked folds the fast path's locally-counted allocations into
// the central allocator stats and the tenant's counts (the bytes are
// the padded sizes both count). Callers hold w.mu (the owner goroutine
// additionally guarantees its own fast path is not running).
func (m *Mutator) publishLocked() {
	if m.unpubObjects != 0 || m.unpubBytes != 0 {
		m.w.Heap.CommitAllocs(m.unpubObjects, m.unpubBytes)
		if m.ten != nil {
			m.ten.noteAllocs(m.unpubObjects, m.unpubBytes)
		}
		m.unpubObjects, m.unpubBytes = 0, 0
	}
}

// resyncLocked re-mirrors the central trigger state after a slow path
// or safepoint: sinceGC restarts from the true central count, and
// trigger becomes the threshold at which allocateLocked would start a
// collection (the world's kept trigger, the one both read). Callers
// hold w.mu.
func (m *Mutator) resyncLocked() {
	m.sinceGC, _ = m.w.Heap.SinceGC()
	m.hasTrigger = false
	m.trigger = 0
	if m.w.cyc.active {
		// A concurrent cycle is in flight: BytesSinceGC keeps growing
		// until the finale resets it, so any trigger armed now would fire
		// on the very next fast-path allocation and divert every
		// allocation to the slow path for the rest of the cycle. The
		// barrier and born-black carves keep the fast path sound without
		// a trigger; the first slow path after the finale re-arms it.
		return
	}
	m.trigger, m.hasTrigger = m.w.trigAt, m.w.trigArmed
}

// returnCacheLocked flushes one class's cached remainder back to its
// central list and empties the cache, returning how many slots went
// back, and uncharges them from a budgeted tenant. Callers hold w.mu.
func (m *Mutator) returnCacheLocked(idx int) int {
	c := &m.caches[idx]
	budgeted := m.ten != nil && m.ten.budgeted()
	if budgeted {
		// Unconsumed slots were tagged and charged at carve; drop the
		// tags before the slots rejoin their list, the charge after.
		m.w.Heap.UntagOwnerSpan(c.cursor, c.limit)
	}
	rest := m.put(idx)
	if budgeted && rest > 0 {
		m.ten.uncharge(uint64(rest * c.words * mem.WordBytes))
	}
	return rest
}

// flushLocked publishes the handle's pending stats and returns every
// cached slot to the central lists: the explicit flush, for the
// callers that need an empty cache (see the header). Called under w.mu
// — with the handle parked, or by the owner goroutine's own slow path.
func (m *Mutator) flushLocked() {
	m.publishLocked()
	flushed := 0
	for m.warm != 0 {
		flushed += m.returnCacheLocked(bits.TrailingZeros64(m.warm))
	}
	m.stats.FlushedSlots += uint64(flushed)
	m.w.met.cacheFlushSlots.Add(uint64(flushed))
}

// parkMutatorsLocked is the one safepoint: acquire every handle's lock
// — parking each owner goroutine at its next allocation, store or load
// boundary, its caches as they are — and publish every handle's
// counts, so the heap's and the tenants' allocation totals are exact
// while the world is stopped. It flushes nothing. Every stop is this
// one: a collection's pauses, heap growth (expandLocked), the
// integrity audit and the measurement passes. The stop's length is
// lastStopNs (the next close's PauseStopNs) and feeds the stop
// counters. Callers hold w.mu; resumeMutatorsLocked must follow. With
// no handles registered this is free (single-threaded worlds pay
// nothing).
func (w *World) parkMutatorsLocked() {
	w.lastStopNs = 0
	if len(w.muts) == 0 {
		return
	}
	start := time.Now()
	for _, m := range w.muts {
		m.mu.Lock()
		m.publishLocked()
	}
	w.lastStopNs = time.Since(start).Nanoseconds()
	w.met.stwStops.Inc()
	w.met.stwPauseNs.Add(uint64(w.lastStopNs))
	w.met.stopHist.Record(uint64(w.lastStopNs))
	if w.tracer.Enabled() {
		var held int
		for _, m := range w.muts {
			m.eachHeld(func(c *allocCache) { held += c.held() })
		}
		w.tracer.Emit(trace.EvSafepoint, int64(len(w.muts)), int64(held), w.lastStopNs)
	}
}

// resumeMutatorsLocked releases the handles parkMutatorsLocked parked,
// in reverse order, re-mirroring each one's collection trigger first:
// its cache may have survived a collection, and a stale sinceGC would
// divert its next allocation to the slow path, which returns the
// cache.
func (w *World) resumeMutatorsLocked() {
	for i := len(w.muts) - 1; i >= 0; i-- {
		m := w.muts[i]
		m.resyncLocked()
		m.mu.Unlock()
	}
}

// markHeldLocked is the first act of every mark step, and a concurrent
// finale's last: it marks every slot the handles' caches hold, not yet
// handed out, so the sweep keeps it for them (see the header), and
// makes each such cache black. Callers hold w.mu with every handle
// parked, after the open — whose FinishSweep would clear the marks of
// the blocks it sweeps, and whose ClearMarks a full generational cycle
// runs.
func (w *World) markHeldLocked() {
	for _, m := range w.muts {
		m.eachHeld(func(c *allocCache) {
			w.Heap.MarkHeldSpan(c.cursor, c.limit, true)
			c.black = true
		})
	}
}

// settleHeldLocked is the held slots' part of the close, right after
// the sweep that kept them: it takes them out of the survey r and out
// of the heap's live statistics, which then read what they would had
// every cache been empty. A generational world's sweep leaves what it
// keeps marked — old — so there it also clears their marks: an object
// the cache hands out later is young, and a minor cycle may reclaim it.
// Callers hold w.mu with every handle parked and no marker running.
func (w *World) settleHeldLocked(r *alloc.SweepResult) {
	var objects, bytes uint64
	for _, m := range w.muts {
		m.eachHeld(func(c *allocCache) {
			n := uint64(c.held())
			objects += n
			bytes += n * uint64(c.words*mem.WordBytes)
			if w.cfg.Generational {
				w.Heap.MarkHeldSpan(c.cursor, c.limit, false)
			}
		})
	}
	r.ObjectsLive -= objects
	r.BytesLive -= bytes
	w.Heap.ExcludeHeld(objects, bytes)
}

// flushMutatorsLocked flushes every handle's caches, for a measurement
// pass that must not see carved slots as objects. Callers hold w.mu
// with every handle parked.
func (w *World) flushMutatorsLocked() {
	for _, m := range w.muts {
		m.flushLocked()
	}
}

// VerifyIntegrity parks every mutator and audits the allocator's slot
// accounting against their caches as they are (no double-carve of any
// slot; conservation: live + cached + free slots account for every
// block — see alloc.CheckIntegrity). Not flushing is the point: the
// check must see the mid-flight cached state the concurrency battery
// wants validated. The park publishes each handle's allocation counts,
// so the heap's and the tenants' allocation totals are exact when it
// returns.
func (w *World) VerifyIntegrity() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	return w.verifyIntegrityLocked()
}

// verifyIntegrityLocked is VerifyIntegrity's audit. Callers hold w.mu
// with every handle parked.
func (w *World) verifyIntegrityLocked() error {
	var cached []mem.Addr
	for _, m := range w.muts {
		m.eachHeld(func(c *allocCache) { cached = c.appendHeld(cached) })
	}
	return w.Heap.CheckIntegrity(cached)
}

// awakeWait bounds lockAwake's poll: Go's own Mutex starvation threshold.
const awakeWait = time.Millisecond

// lockAwake acquires mu, which the caller's inlined TryLock found held:
// it yields and retries for at most awakeWait, then sleeps in Lock. A
// goroutine woken from that sleep waits tens of microseconds more while
// its waker runs on (DESIGN.md §5d, "Waiting awake").
func (w *World) lockAwake(mu *sync.Mutex) {
	start := time.Now()
	w.met.lockWaits.Inc()
	for !mu.TryLock() {
		if time.Since(start) > awakeWait {
			w.met.lockWaitSleeps.Inc()
			mu.Lock()
			break
		}
		runtime.Gosched()
	}
	w.met.lockWaitNs.Add(uint64(time.Since(start)))
}
