package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Multi-tenant serving (DESIGN.md section 5i). A Tenant wraps one or
// more Mutator handles with a declared heap budget: every allocation a
// tenant performs charges its padded object bytes against the budget
// atomically, every object it loses to a collection (or frees
// explicitly) is credited back, and an allocation that would exceed
// the budget runs the tenant's over-budget policy instead of touching
// the heap. The accounting follows the starlark safety-contract idiom
// (per-thread budgets, cancellation tokens, best-effort contracts
// upheld through testing): budgets are enforced exactly at the charge
// boundary, and the contract is proven by the tenant test battery, not
// by convention.
//
// Charging points. The cached fast path charges with one CAS before
// consuming a slot (a failed charge diverts to the slow path) and
// counts the allocation in the handle, which publishes its count to the
// tenant with its heap statistics (Tenant.Stats has the contract); the
// slow path charges under the central lock before allocating, after
// first crediting any owned objects that already died (the allocator's
// ownership table, alloc/owners.go, maps each consumed object back to
// its tenant). Unbudgeted tenants (BudgetBytes == 0) skip both the
// charge and the ownership tagging entirely, so the plumbing provably
// costs nothing when unused — the differential test pins an unbudgeted
// tenant bit-identical to a bare Mutator.
//
// Cancellation. Cancel sets a token checked at every allocation point
// — the safepoints of this design — so a cancelled tenant's next
// allocation on any of its handles fails with ErrTenantCancelled
// without touching the heap. Eviction cancels implicitly.

// TenantPolicy selects what an over-budget allocation does.
type TenantPolicy int

const (
	// TenantFail denies the allocation with a *BudgetError as soon as
	// crediting already-dead owned objects cannot make room: the
	// hard-limit contract, exact at the budget boundary.
	TenantFail TenantPolicy = iota
	// TenantCollectFirst runs a full collection (plus any deferred
	// sweep) to reclaim the tenant's dead objects before deciding; it
	// only fails after that collection leaves the budget still
	// exhausted.
	TenantCollectFirst
	// TenantEvict reclaims the tenant wholesale: every object it still
	// owns is freed, the tenant is cancelled, and the allocation (and
	// every later one) fails with ErrTenantEvicted. The objects are
	// freed regardless of reachability — eviction is the contract that
	// the tenant's graph dies with it — so references other tenants
	// hold into an evicted tenant's objects become dangling, exactly
	// like an explicit Free of a shared object. Conservative pins do
	// not save an evicted object (see DESIGN.md 5i).
	TenantEvict
)

func (p TenantPolicy) String() string {
	switch p {
	case TenantCollectFirst:
		return "collect-first"
	case TenantEvict:
		return "evict"
	default:
		return "fail"
	}
}

// Typed sentinel errors for budget enforcement; match with errors.Is.
var (
	// ErrBudgetExceeded is wrapped by every *BudgetError denial.
	ErrBudgetExceeded = errors.New("core: tenant heap budget exceeded")
	// ErrTenantCancelled reports an allocation on a cancelled tenant.
	ErrTenantCancelled = errors.New("core: tenant cancelled")
	// ErrTenantEvicted reports an allocation on an evicted tenant (the
	// eviction itself returns it too). It wraps ErrTenantCancelled:
	// eviction implies cancellation.
	ErrTenantEvicted = fmt.Errorf("core: tenant evicted: %w", ErrTenantCancelled)
)

// BudgetError is the typed denial TenantFail (and an unlucky
// TenantCollectFirst) returns: the allocation that would have crossed
// the budget, with the accounting at the moment of denial.
type BudgetError struct {
	Tenant    string
	Requested uint64 // bytes the denied allocation would have charged
	Live      uint64 // bytes charged to the tenant at denial
	Budget    uint64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%v: tenant %q: %d requested, %d live of %d budget",
		ErrBudgetExceeded, e.Tenant, e.Requested, e.Live, e.Budget)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// TenantConfig declares one tenant's contract.
type TenantConfig struct {
	Name string
	// BudgetBytes caps the bytes charged to the tenant at any moment
	// (live, in the sense of not-yet-reclaimed). 0 means unbudgeted:
	// no charging, no ownership tagging, no fast-path cost.
	BudgetBytes uint64
	// Policy selects what an over-budget allocation does.
	Policy TenantPolicy
}

// TenantStats is a snapshot of one tenant's accounting.
type TenantStats struct {
	// LiveBytes is the bytes currently charged against the budget:
	// allocated by the tenant and not yet credited back by a sweep,
	// an explicit free, or eviction. Always 0 for unbudgeted tenants.
	LiveBytes uint64
	// AllocatedObjects/AllocatedBytes count every successful
	// allocation (cumulative; bytes are the padded charge sizes), as
	// published by the tenant's handles (see Tenant.Stats).
	AllocatedObjects uint64
	AllocatedBytes   uint64
	// ReclaimedObjects/ReclaimedBytes count owned objects credited
	// back: swept as garbage, explicitly freed, or evicted.
	ReclaimedObjects uint64
	ReclaimedBytes   uint64
	// BudgetDenials counts allocations denied with a *BudgetError.
	BudgetDenials uint64
	// ForcedCollections counts full collections the collect-first
	// policy ran on this tenant's behalf.
	ForcedCollections uint64
	Cancelled         bool
	Evicted           bool
}

// Tenant is one budgeted session sharing the world's heap. Create with
// World.NewTenant, then create per-goroutine handles with NewMutator.
// All methods are safe for concurrent use.
type Tenant struct {
	w   *World
	id  int32 // 1-based index into w.tenants; 0 is never a tenant id
	cfg TenantConfig

	live         atomic.Uint64
	allocObjects atomic.Uint64
	allocBytes   atomic.Uint64
	reclObjects  atomic.Uint64
	reclBytes    atomic.Uint64
	denials      atomic.Uint64
	forcedGCs    atomic.Uint64
	cancelled    atomic.Bool
	evicted      atomic.Bool

	// muts holds the tenant's handles, guarded by w.mu (eviction
	// flushes them, OwnedBytes reads their caches; the safepoint
	// protocol already covers stopping).
	muts []*Mutator
}

// NewTenant registers a tenant with the given contract.
func (w *World) NewTenant(cfg TenantConfig) *Tenant {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := &Tenant{w: w, cfg: cfg}
	w.tenants = append(w.tenants, t)
	t.id = int32(len(w.tenants))
	if cfg.Name == "" {
		t.cfg.Name = fmt.Sprintf("tenant-%d", t.id)
	}
	w.met.tenants.Set(int64(len(w.tenants)))
	if cfg.BudgetBytes > 0 && !w.ownerCreditSet {
		// First budgeted tenant: install the credit path that returns a
		// dead owned object's bytes to its tenant. Worlds that never get
		// here keep a nil ownership table and pay nothing.
		w.ownerCreditSet = true
		w.Heap.SetOwnerCredit(w.creditTenant)
	}
	return t
}

// Tenants returns the world's registered tenants in creation order.
func (w *World) Tenants() []*Tenant {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*Tenant(nil), w.tenants...)
}

// NewMutator creates an allocation handle charged to this tenant; like
// World.NewMutator it is permanent and must not be shared between
// goroutines.
func (t *Tenant) NewMutator() *Mutator { return t.w.newMutator(t) }

// Name returns the tenant's name; ID its 1-based registration index
// (the id trace events carry).
func (t *Tenant) Name() string { return t.cfg.Name }

// ID returns the tenant's 1-based registration index.
func (t *Tenant) ID() int32 { return t.id }

// Config returns the contract the tenant was created with.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// Cancel sets the cancellation token: every later allocation on any of
// the tenant's handles fails with ErrTenantCancelled at its next
// allocation point. Objects the tenant already allocated are
// unaffected (eviction is the policy that reclaims them).
func (t *Tenant) Cancel() { t.cancelled.Store(true) }

// Cancelled reports whether the tenant was cancelled (or evicted).
func (t *Tenant) Cancelled() bool { return t.cancelled.Load() }

// Evicted reports whether the tenant was evicted.
func (t *Tenant) Evicted() bool { return t.evicted.Load() }

// Stats returns a snapshot of the tenant's accounting. It takes no
// lock, so a collection hook may call it. AllocatedObjects and
// AllocatedBytes are published by the tenant's handles, not bumped per
// object: they are exact after each handle's latest slow path or
// safepoint (any collection, heap growth, VerifyIntegrity), and in
// between they lag by at most the fast-path allocations each handle
// made since — the contract the heap's own ObjectsAllocated has.
// LiveBytes, the budget's charge, is not deferred: every allocation
// charges it before returning.
func (t *Tenant) Stats() TenantStats {
	return TenantStats{
		LiveBytes:         t.live.Load(),
		AllocatedObjects:  t.allocObjects.Load(),
		AllocatedBytes:    t.allocBytes.Load(),
		ReclaimedObjects:  t.reclObjects.Load(),
		ReclaimedBytes:    t.reclBytes.Load(),
		BudgetDenials:     t.denials.Load(),
		ForcedCollections: t.forcedGCs.Load(),
		Cancelled:         t.cancelled.Load(),
		Evicted:           t.evicted.Load(),
	}
}

// OwnedBytes returns the bytes of objects the allocator's ownership
// table still attributes to the tenant. After a full collection,
// FinishSweep and barrier reconcile this equals Stats().LiveBytes
// exactly — the zero-attribution-drift invariant the SLO test gates.
// The tenant's handles' caches are left out: their slots are tagged
// when carved but charged only when handed out, and a collection keeps
// them in the caches.
func (t *Tenant) OwnedBytes() uint64 {
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.Heap.OwnedBytes(t.id)
	if t.budgeted() {
		for _, m := range t.muts {
			m.mu.Lock()
			m.eachHeld(func(c *allocCache) { b -= uint64(c.held() * c.words * mem.WordBytes) })
			m.mu.Unlock()
		}
	}
	return b
}

func (t *Tenant) budgeted() bool { return t.cfg.BudgetBytes > 0 }

// fastCharge is the lock-free charge the cached allocation fast path
// performs before consuming a slot: false diverts to the slow path,
// which resolves cancellation or the over-budget policy under the
// central lock. Unbudgeted tenants pay one cancellation load.
func (t *Tenant) fastCharge(bytes uint64) bool {
	if t.cancelled.Load() {
		return false
	}
	if t.cfg.BudgetBytes == 0 {
		return true
	}
	return t.tryCharge(bytes)
}

// tryCharge charges bytes against the budget iff they fit: the pass
// condition is live+bytes <= budget, so enforcement is exact at the
// boundary (a budget of exactly N object charges admits exactly N).
func (t *Tenant) tryCharge(bytes uint64) bool {
	for {
		cur := t.live.Load()
		next := cur + bytes
		if next < cur || next > t.cfg.BudgetBytes {
			return false
		}
		if t.live.CompareAndSwap(cur, next) {
			return true
		}
	}
}

// uncharge returns bytes charged for an allocation that then failed.
func (t *Tenant) uncharge(bytes uint64) {
	t.live.Add(^(bytes - 1))
}

// noteAllocs records successful allocations: one from a slow path, or
// a handle's fast-path run when the handle publishes (publishLocked).
func (t *Tenant) noteAllocs(objects, bytes uint64) {
	t.allocObjects.Add(objects)
	t.allocBytes.Add(bytes)
}

// creditTenant returns reclaimed bytes to a tenant's budget and
// reclamation counters; it is the allocator's owner-credit callback
// (fired per run of a tenant's dead objects by ReconcileOwners, per
// object by tag displacement) and the explicit-free/eviction credit
// path. Credited bytes were always charged first, so the subtraction
// cannot underflow.
func (w *World) creditTenant(id int32, objects, bytes uint64) {
	if id < 1 || int(id) > len(w.tenants) {
		return
	}
	t := w.tenants[id-1]
	if bytes > 0 {
		t.live.Add(^(bytes - 1))
	}
	t.reclObjects.Add(objects)
	t.reclBytes.Add(bytes)
}

// tenantChargeBytes is what one allocation of nwords charges: the
// padded size-class bytes for small (and typed) objects, the exact
// word size for large ones — in both cases the same value the central
// BytesAllocated accounting adds, so budget arithmetic and heap
// arithmetic can never drift.
func tenantChargeBytes(nwords int) uint64 {
	if nwords < 1 {
		return 0 // invalid size: the allocator rejects it downstream
	}
	if !alloc.IsLarge(nwords) {
		_, words := alloc.ClassFor(nwords)
		return uint64(words) * mem.WordBytes
	}
	return uint64(nwords) * mem.WordBytes
}

// tenantChargeLocked is the slow path's charge: cancellation check,
// then the charge, then — over budget — the remedies in order of
// cost: credit already-dead owned objects; for collect-first, a full
// collection plus deferred sweep; for evict, wholesale eviction.
// Callers hold w.mu (never any m.mu). A nil return means bytes were
// charged (or the tenant is unbudgeted) and the caller may allocate;
// it must uncharge if the allocation then fails.
func (w *World) tenantChargeLocked(t *Tenant, bytes uint64) error {
	if t.cancelled.Load() {
		if t.evicted.Load() {
			return ErrTenantEvicted
		}
		return ErrTenantCancelled
	}
	if !t.budgeted() {
		return nil
	}
	if t.tryCharge(bytes) {
		return nil
	}
	// Objects swept since the last barrier reconcile (or classified
	// dead by a lazy barrier) may already cover the charge.
	w.Heap.ReconcileOwners()
	if t.tryCharge(bytes) {
		return nil
	}
	switch t.cfg.Policy {
	case TenantCollectFirst:
		t.forcedGCs.Add(1)
		// Land any in-flight cycle first: its snapshot may predate the
		// tenant's garbage, so completing it proves nothing. The
		// collection the contract promises is a fresh full cycle.
		w.landCycleLocked()
		w.collectLocked(kindFull)
		// The barrier reconciled eagerly-swept objects; under lazy or
		// concurrent sweep some blocks are still pending, so land them
		// and reconcile once more for an exact verdict.
		w.Heap.FinishSweep()
		w.Heap.ReconcileOwners()
		if t.tryCharge(bytes) {
			return nil
		}
	case TenantEvict:
		w.evictTenantLocked(t)
		return ErrTenantEvicted
	}
	t.denials.Add(1)
	w.met.budgetDenials.Inc()
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.EvBudgetExceeded, int64(t.id), int64(bytes), int64(t.live.Load()))
	}
	return &BudgetError{
		Tenant:    t.cfg.Name,
		Requested: bytes,
		Live:      t.live.Load(),
		Budget:    t.cfg.BudgetBytes,
	}
}

// evictTenantLocked reclaims a tenant wholesale: cancel it, finish any
// in-flight cycle (freeing objects mid-mark would leave dangling work
// on the marker's stack), flush the tenant's caches (carved but
// unconsumed slots return to the free lists instead of being freed),
// then free every object the tenant still owns and credit the bytes.
// Callers hold w.mu and no m.mu.
func (w *World) evictTenantLocked(t *Tenant) {
	t.cancelled.Store(true)
	t.evicted.Store(true)
	w.landCycleLocked()
	for _, tm := range t.muts {
		tm.mu.Lock()
		tm.flushLocked()
		tm.resyncLocked()
		tm.mu.Unlock()
	}
	var objects, bytes uint64
	// Land deferred sweeps first: a pending block's bits still encode
	// the previous cycle's liveness, and crediting dead objects now
	// shrinks the explicit free list walk below.
	w.Heap.FinishSweep()
	w.Heap.ReconcileOwners()
	for _, base := range w.Heap.OwnedOf(t.id) {
		if err := w.Heap.Free(base); err != nil {
			continue
		}
		_, b, _ := w.Heap.TakeOwner(base)
		objects++
		bytes += b
	}
	// Line profile: Free parks slots on the freed LIFO with their alloc
	// bits still set (so a reallocation reuses them first). Eviction
	// must be exact — and the victim's roots may still dangle into these
	// slots, which would re-mark them at the next cycle — so land the
	// flush barrier that drops the bits now.
	w.Heap.FlushSpans()
	w.creditTenant(t.id, objects, bytes)
	w.met.tenantEvictions.Inc()
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.EvTenantEvict, int64(t.id), int64(objects), int64(bytes))
	}
}
