package core

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// Tenant battery: budget-enforcement soundness across the collector
// configurations. The contracts under test are exact, not advisory —
// TenantFail denies at precisely the budget boundary, CollectFirst
// fails only after a fresh full collection proved the budget is truly
// exhausted, and Evict reclaims exactly the tenant's objects and
// nothing else.

// settleHeap drives the world to a fully-reconciled state: a fresh
// full collection (landing any in-flight cycle first), the deferred
// sweeps, and one more collection so the barrier reconcile sees the
// final sweep's verdicts.
func settleHeap(w *World) {
	w.Collect()
	w.FinishSweep()
	w.Collect()
	w.FinishSweep()
}

// TestTenantFailBoundary pins the hard-limit contract: a budget of
// exactly K object charges admits exactly K allocations, the K+1st
// fails with a typed *BudgetError, and reclaiming one object's bytes
// re-admits exactly one allocation.
func TestTenantFailBoundary(t *testing.T) {
	const objWords = 8
	const k = 50
	charge := tenantChargeBytes(objWords)
	for _, mode := range Modes {
		name, cfg := mode.Name, mode.Apply(Config{GCDivisor: 6})
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, cfg)
			data := addData(t, w, "roots", 0x2000, (k+1)*4)
			ten := w.NewTenant(TenantConfig{Name: "cap", BudgetBytes: k * charge, Policy: TenantFail})
			m := ten.NewMutator()
			for i := 0; i < k; i++ {
				if _, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*i), objWords, false); err != nil {
					t.Fatalf("allocation %d under budget: %v", i, err)
				}
			}
			if got := ten.Stats().LiveBytes; got != k*charge {
				t.Fatalf("LiveBytes = %d, want %d (budget full)", got, k*charge)
			}
			// The boundary: every object is rooted, so no remedy exists.
			_, err := m.Allocate(objWords, false)
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("over-budget allocation: err = %v, want ErrBudgetExceeded", err)
			}
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("over-budget allocation: err %T does not unwrap to *BudgetError", err)
			}
			if be.Tenant != "cap" || be.Requested != charge || be.Live != k*charge || be.Budget != k*charge {
				t.Fatalf("BudgetError = %+v, want {cap %d %d %d}", be, charge, k*charge, k*charge)
			}
			if st := ten.Stats(); st.BudgetDenials != 1 || st.AllocatedObjects != k {
				t.Fatalf("stats after denial = %+v, want 1 denial, %d allocs", st, k)
			}
			// Unroot one object; after a settled collection its bytes are
			// credited and exactly one more allocation fits.
			if err := w.Store(0x2000, 0); err != nil {
				t.Fatal(err)
			}
			settleHeap(w)
			if got := ten.Stats().ReclaimedObjects; got != 1 {
				t.Fatalf("ReclaimedObjects after unroot+collect = %d, want 1", got)
			}
			if _, err := m.AllocateRooted(data, 0x2000, objWords, false); err != nil {
				t.Fatalf("allocation after reclaim: %v", err)
			}
			if _, err := m.Allocate(objWords, false); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("second over-budget allocation: err = %v, want ErrBudgetExceeded", err)
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTenantBudgetExactWithWarmCaches pins exactness against the
// caches' paid slots: a handle pays for a whole carve when it refills,
// so a cache warmed by one small allocation holds charge for slots it
// never handed out. The budget fits one small object and exactly k big
// ones, and the over-budget charge must give the warm cache's charge
// back before it denies — whether the warm cache is on the allocating
// handle or on a sibling handle of the same tenant.
func TestTenantBudgetExactWithWarmCaches(t *testing.T) {
	const smallWords, bigWords = 2, 8
	const k = 39
	small, big := tenantChargeBytes(smallWords), tenantChargeBytes(bigWords)
	budget := small + k*big
	for _, mode := range Modes {
		name, cfg := mode.Name, mode.Apply(Config{GCDivisor: 6})
		for _, sibling := range []bool{false, true} {
			sub := name + "/same-handle"
			if sibling {
				sub = name + "/sibling-handle"
			}
			t.Run(sub, func(t *testing.T) {
				w := newWorld(t, cfg)
				data := addData(t, w, "roots", 0x2000, (k+2)*4)
				ten := w.NewTenant(TenantConfig{Name: "warm", BudgetBytes: budget, Policy: TenantFail})
				warm := ten.NewMutator()
				m := warm
				if sibling {
					m = ten.NewMutator()
				}
				if _, err := warm.AllocateRooted(data, 0x2000, smallWords, false); err != nil {
					t.Fatal(err)
				}
				if warm.Stats().RunSlots <= 1 {
					t.Fatal("the small allocation left no warm cache")
				}
				admitted := 0
				for ; admitted <= k; admitted++ {
					_, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*(1+admitted)), bigWords, false)
					if errors.Is(err, ErrBudgetExceeded) {
						break
					}
					if err != nil {
						t.Fatalf("big allocation %d: %v", admitted, err)
					}
					if st, owned := ten.Stats(), ten.OwnedBytes(); st.LiveBytes != owned {
						t.Fatalf("after big allocation %d: LiveBytes %d != owned bytes %d", admitted, st.LiveBytes, owned)
					}
				}
				if admitted != k {
					t.Fatalf("admitted %d big objects, want exactly (budget − small)/big = %d", admitted, k)
				}
				if st := ten.Stats(); st.LiveBytes != budget || st.BudgetDenials != 1 {
					t.Fatalf("after denial: LiveBytes %d, denials %d; want %d (only handed-out objects), 1",
						st.LiveBytes, st.BudgetDenials, budget)
				}
				if err := w.VerifyIntegrity(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestTenantCollectFirst pins the collect-first contract in both
// directions: garbage the tenant already dropped is reclaimed by a
// forced collection instead of denying, and a denial happens only
// after a full collection actually ran and proved the budget is
// exhausted by live objects.
func TestTenantCollectFirst(t *testing.T) {
	const objWords = 8
	const k = 40
	charge := tenantChargeBytes(objWords)
	for _, mode := range Modes {
		name, cfg := mode.Name, mode.Apply(Config{GCDivisor: 6})
		t.Run(name, func(t *testing.T) {
			t.Run("reclaims", func(t *testing.T) {
				w := newWorld(t, cfg)
				data := addData(t, w, "roots", 0x2000, k*4)
				ten := w.NewTenant(TenantConfig{BudgetBytes: k * charge, Policy: TenantCollectFirst})
				m := ten.NewMutator()
				for i := 0; i < k; i++ {
					if _, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*i), objWords, false); err != nil {
						t.Fatal(err)
					}
				}
				// Drop every root: the whole budget is garbage now, but
				// only a collection can prove it.
				for i := 0; i < k; i++ {
					if err := w.Store(0x2000+mem.Addr(4*i), 0); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := m.AllocateRooted(data, 0x2000, objWords, false); err != nil {
					t.Fatalf("allocation with reclaimable garbage: %v", err)
				}
				st := ten.Stats()
				if st.ForcedCollections == 0 {
					t.Fatal("no forced collection recorded")
				}
				if st.BudgetDenials != 0 {
					t.Fatalf("BudgetDenials = %d, want 0", st.BudgetDenials)
				}
				if st.ReclaimedObjects < k {
					t.Fatalf("ReclaimedObjects = %d, want >= %d", st.ReclaimedObjects, k)
				}
				if err := w.VerifyIntegrity(); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("denies-only-after-collection", func(t *testing.T) {
				w := newWorld(t, cfg)
				data := addData(t, w, "roots", 0x2000, k*4)
				ten := w.NewTenant(TenantConfig{BudgetBytes: k * charge, Policy: TenantCollectFirst})
				m := ten.NewMutator()
				for i := 0; i < k; i++ {
					if _, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*i), objWords, false); err != nil {
						t.Fatal(err)
					}
				}
				before := w.Collections()
				_, err := m.Allocate(objWords, false)
				if !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("rooted over-budget allocation: err = %v, want ErrBudgetExceeded", err)
				}
				if w.Collections() <= before {
					t.Fatal("denial without a forced full collection")
				}
				if st := ten.Stats(); st.ForcedCollections == 0 || st.BudgetDenials != 1 {
					t.Fatalf("stats = %+v, want forced collection and exactly 1 denial", st)
				}
				if err := w.VerifyIntegrity(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestTenantEvict pins wholesale eviction: the victim's objects — all
// still rooted — are freed anyway, the bystander's objects survive
// untouched, the victim is cancelled permanently, and the heap stays
// sound (integrity audit plus, on the provenance-capable profiles, a
// retention check that the survivors are root-reachable and the
// evicted objects are gone).
func TestTenantEvict(t *testing.T) {
	const objWords = 8
	const k = 30 // victim budget, in objects
	const b = 20 // bystander objects
	charge := tenantChargeBytes(objWords)
	for _, mode := range Modes {
		name, cfg := mode.Name, mode.Apply(Config{GCDivisor: 6})
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, cfg)
			data := addData(t, w, "roots", 0x2000, (k+b+1)*4)
			victim := w.NewTenant(TenantConfig{Name: "victim", BudgetBytes: k * charge, Policy: TenantEvict})
			stander := w.NewTenant(TenantConfig{Name: "bystander", BudgetBytes: 1 << 20, Policy: TenantFail})
			vm, bm := victim.NewMutator(), stander.NewMutator()
			victims := make([]mem.Addr, k)
			standers := make([]mem.Addr, b)
			for i := 0; i < b; i++ {
				p, err := bm.AllocateRooted(data, 0x2000+mem.Addr(4*(k+i)), objWords, false)
				if err != nil {
					t.Fatal(err)
				}
				standers[i] = p
			}
			for i := 0; i < k; i++ {
				p, err := vm.AllocateRooted(data, 0x2000+mem.Addr(4*i), objWords, false)
				if err != nil {
					t.Fatal(err)
				}
				victims[i] = p
			}
			_, err := vm.Allocate(objWords, false)
			if !errors.Is(err, ErrTenantEvicted) || !errors.Is(err, ErrTenantCancelled) {
				t.Fatalf("over-budget allocation: err = %v, want ErrTenantEvicted (wrapping ErrTenantCancelled)", err)
			}
			st := victim.Stats()
			if !st.Evicted || !st.Cancelled {
				t.Fatalf("victim stats = %+v, want evicted and cancelled", st)
			}
			if st.LiveBytes != 0 {
				t.Fatalf("victim LiveBytes = %d after eviction, want 0", st.LiveBytes)
			}
			if st.ReclaimedObjects != k || st.ReclaimedBytes != k*charge {
				t.Fatalf("victim reclaimed %d objects / %d bytes, want %d / %d",
					st.ReclaimedObjects, st.ReclaimedBytes, k, k*charge)
			}
			// Exactly the victim's objects died; rooting did not save them.
			for i, p := range victims {
				if w.Heap.IsAllocated(p) {
					t.Fatalf("victim object %d (%#x) survived eviction", i, uint32(p))
				}
			}
			for i, p := range standers {
				if !w.Heap.IsAllocated(p) {
					t.Fatalf("bystander object %d (%#x) reclaimed by another tenant's eviction", i, uint32(p))
				}
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
			// The victim is dead for good; the bystander is unaffected.
			if _, err := vm.Allocate(objWords, false); !errors.Is(err, ErrTenantEvicted) {
				t.Fatalf("post-eviction allocation: err = %v, want ErrTenantEvicted", err)
			}
			if _, err := bm.AllocateRooted(data, 0x2000+mem.Addr(4*(k+b)), objWords, false); err != nil {
				t.Fatalf("bystander allocation after eviction: %v", err)
			}
			// Drop the victim's dangling roots, then check retention
			// provenance on the stop-the-world profiles: every surviving
			// bystander object traces to a root, and the evicted
			// addresses are no longer heap objects at all.
			for i := 0; i < k; i++ {
				if err := w.Store(0x2000+mem.Addr(4*i), 0); err != nil {
					t.Fatal(err)
				}
			}
			if name == "full" || name == "line" {
				w.EnableProvenance(true)
				w.Collect()
				for _, p := range standers {
					if _, err := w.WhyLive(p); err != nil {
						t.Fatalf("bystander %#x has no retention path after eviction: %v", uint32(p), err)
					}
				}
				for _, p := range victims {
					if _, err := w.WhyLive(p); err == nil {
						t.Fatalf("evicted object %#x still has a retention path", uint32(p))
					}
				}
			}
		})
	}
}

// TestTenantCancel pins the cancellation token: after Cancel every
// allocation on the tenant's handles fails at its next allocation
// point with ErrTenantCancelled, while existing objects stay live.
func TestTenantCancel(t *testing.T) {
	w := newWorld(t, Config{})
	data := addData(t, w, "roots", 0x2000, 16)
	ten := w.NewTenant(TenantConfig{BudgetBytes: 1 << 20, Policy: TenantFail})
	m := ten.NewMutator()
	p, err := m.AllocateRooted(data, 0x2000, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	ten.Cancel()
	if _, err := m.Allocate(8, false); !errors.Is(err, ErrTenantCancelled) {
		t.Fatalf("post-cancel allocation: err = %v, want ErrTenantCancelled", err)
	}
	if errors.Is(ErrTenantCancelled, ErrTenantEvicted) {
		t.Fatal("cancellation must not imply eviction")
	}
	w.Collect()
	if !w.Heap.IsAllocated(p) {
		t.Fatal("cancellation reclaimed a rooted object (that is eviction's job)")
	}
	if ten.Stats().Evicted {
		t.Fatal("Cancel marked the tenant evicted")
	}
}

// TestTenantExplicitFreeCredits pins the immediate credit path: an
// explicit Free returns the object's bytes to its tenant without
// waiting for a collection barrier.
func TestTenantExplicitFreeCredits(t *testing.T) {
	const objWords = 8
	charge := tenantChargeBytes(objWords)
	w := newWorld(t, Config{})
	data := addData(t, w, "roots", 0x2000, 16)
	ten := w.NewTenant(TenantConfig{BudgetBytes: 2 * charge, Policy: TenantFail})
	m := ten.NewMutator()
	p, err := m.AllocateRooted(data, 0x2000, objWords, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocateRooted(data, 0x2000+4, objWords, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(objWords, false); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("full budget: err = %v, want ErrBudgetExceeded", err)
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Store(0x2000, 0); err != nil {
		t.Fatal(err)
	}
	st := ten.Stats()
	if st.ReclaimedObjects != 1 || st.ReclaimedBytes != charge {
		t.Fatalf("stats after Free = %+v, want 1 object / %d bytes credited", st, charge)
	}
	if _, err := m.Allocate(objWords, false); err != nil {
		t.Fatalf("allocation after Free: %v", err)
	}
}

// TestTenantAllocCountsPublished pins when a tenant's allocation counts
// are exact. Two handles share one tenant. Fast-path allocations are
// counted in the handle and published with its heap statistics, so in
// between Stats lags by at most the handles' unpublished runs; a
// handle's slow path publishes its own run, and Collect and
// VerifyIntegrity publish every handle's. At each exact point the
// tenant's totals equal the allocations made and the heap's own count.
func TestTenantAllocCountsPublished(t *testing.T) {
	// The one row keeps the name it had beside the retired line heap's.
	t.Run("freelist", func(t *testing.T) {
		w := newWorld(t, Config{GCDivisor: -1})
		ten := w.NewTenant(TenantConfig{BudgetBytes: 1 << 20, Policy: TenantFail})
		a, b := ten.NewMutator(), ten.NewMutator()
		var objects, bytes uint64
		alloc := func(m *Mutator, nwords int) {
			t.Helper()
			if _, err := m.Allocate(nwords, false); err != nil {
				t.Fatal(err)
			}
			objects++
			bytes += tenantChargeBytes(nwords)
		}
		exact := func(when string) {
			t.Helper()
			st := ten.Stats()
			if st.AllocatedObjects != objects || st.AllocatedBytes != bytes {
				t.Fatalf("after %s: tenant counts %d objects / %d bytes, allocated %d / %d",
					when, st.AllocatedObjects, st.AllocatedBytes, objects, bytes)
			}
			if got := w.Heap.Stats().ObjectsAllocated; got != objects {
				t.Fatalf("after %s: heap counts %d objects, allocated %d", when, got, objects)
			}
		}
		lags := func(when string, maxObjects uint64) {
			t.Helper()
			st := ten.Stats()
			if st.AllocatedObjects > objects || objects-st.AllocatedObjects > maxObjects {
				t.Fatalf("after %s: tenant counts %d objects of %d allocated, may lag by at most %d",
					when, st.AllocatedObjects, objects, maxObjects)
			}
		}
		// A handle's first small allocation refills its cache: a slow path.
		alloc(a, 4)
		alloc(b, 4)
		exact("two refills")

		const n = 10
		fastA, fastB := a.Stats().FastAllocs, b.Stats().FastAllocs
		for i := 0; i < n; i++ {
			alloc(a, 4)
			alloc(b, 4)
		}
		if a.Stats().FastAllocs-fastA != n || b.Stats().FastAllocs-fastB != n {
			t.Fatal("the run did not stay on the fast path")
		}
		lags("fast-path runs on both handles", 2*n)

		// A large object is always a slow path: it publishes a's run, not b's.
		alloc(a, 600)
		lags("a's slow path", n)
		if err := w.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
		exact("VerifyIntegrity")

		for i := 0; i < n; i++ {
			alloc(a, 8)
			alloc(b, 2)
		}
		lags("more fast-path runs", 2*n)
		w.Collect()
		exact("Collect")
	})
}

// TestTenantUnbudgetedDifferential pins the zero-cost claim: a world
// whose allocations run through an unbudgeted Tenant behaves
// bit-identically to a world using a bare Mutator — same addresses,
// same errors, same central heap statistics, same collection count.
func TestTenantUnbudgetedDifferential(t *testing.T) {
	// The one row keeps the name it had beside the retired line heap's.
	t.Run("freelist", func(t *testing.T) {
		const slots = 16
		mkWorld := func(tenanted bool) (*World, *Mutator, *mem.Segment) {
			w := newWorld(t, Config{})
			data := addData(t, w, "roots", 0x2000, slots*4)
			if tenanted {
				return w, w.NewTenant(TenantConfig{Name: "free"}).NewMutator(), data
			}
			return w, w.NewMutator(), data
		}
		wa, ma, da := mkWorld(false)
		wb, mb, db := mkWorld(true)

		rng := simrand.New(0x7e43a51)
		sizes := []int{1, 2, 3, 5, 8, 16, 64, 130, 600}
		var roots [slots]mem.Addr
		for i := 0; i < 600; i++ {
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				j := rng.Intn(slots)
				size := sizes[rng.Intn(len(sizes))]
				at := 0x2000 + mem.Addr(4*j)
				pa, ea := ma.AllocateRooted(da, at, size, false)
				pb, eb := mb.AllocateRooted(db, at, size, false)
				if pa != pb || (ea == nil) != (eb == nil) {
					t.Fatalf("op %d: rooted alloc diverged: bare (%#x, %v) vs tenant (%#x, %v)",
						i, uint32(pa), ea, uint32(pb), eb)
				}
				roots[j] = pa
			case 4, 5:
				size := sizes[rng.Intn(len(sizes))]
				pa, ea := ma.Allocate(size, true)
				pb, eb := mb.Allocate(size, true)
				if pa != pb || (ea == nil) != (eb == nil) {
					t.Fatalf("op %d: garbage alloc diverged: bare (%#x, %v) vs tenant (%#x, %v)",
						i, uint32(pa), ea, uint32(pb), eb)
				}
			case 6:
				j := rng.Intn(slots)
				if roots[j] == 0 {
					continue
				}
				ea, eb := ma.Free(roots[j]), mb.Free(roots[j])
				if (ea == nil) != (eb == nil) {
					t.Fatalf("op %d: free diverged: bare %v vs tenant %v", i, ea, eb)
				}
				ma.Store(0x2000+mem.Addr(4*j), 0)
				mb.Store(0x2000+mem.Addr(4*j), 0)
				roots[j] = 0
			case 7:
				if rng.Bool(0.5) {
					ma.Collect()
					mb.Collect()
				}
			}
		}
		wa.Collect()
		wb.Collect()
		wa.FinishSweep()
		wb.FinishSweep()
		if sa, sb := wa.Heap.Stats(), wb.Heap.Stats(); sa != sb {
			t.Fatalf("heap stats diverged:\nbare   %+v\ntenant %+v", sa, sb)
		}
		if ca, cb := wa.Collections(), wb.Collections(); ca != cb {
			t.Fatalf("collections diverged: bare %d vs tenant %d", ca, cb)
		}
		if sa, sb := ma.Stats(), mb.Stats(); sa != sb {
			t.Fatalf("mutator stats diverged:\nbare   %+v\ntenant %+v", sa, sb)
		}
		for j, p := range roots {
			if p == 0 {
				continue
			}
			if aa, ab := wa.Heap.IsAllocated(p), wb.Heap.IsAllocated(p); aa != ab {
				t.Fatalf("final heap diverged at root %d (%#x): bare %v vs tenant %v",
					j, uint32(p), aa, ab)
			}
		}
		st := wb.Tenants()[0].Stats()
		if st.LiveBytes != 0 || st.BudgetDenials != 0 {
			t.Fatalf("unbudgeted tenant accumulated budget state: %+v", st)
		}
	})
}

// TestTenantServeSLO is the deterministic 200-tenant serve run: a
// simrand-seeded request mix across 200 collect-first tenants under
// concurrent marking, asserting exact objects-allocated conservation,
// zero per-tenant byte-attribution drift after the final settle, and
// a p99 collection pause under a stop-the-world ceiling that
// concurrent cycles beat by orders of magnitude.
func TestTenantServeSLO(t *testing.T) {
	const nTenants = 200
	const slots = 8
	requests := 40
	if testing.Short() {
		requests = 10
	}
	cfg := Config{ConcurrentMark: true, GCDivisor: 6, LazySweep: true}
	w := newWorld(t, cfg)
	data := addData(t, w, "roots", 0x2000, nTenants*slots*4)

	var pauses []int64
	w.SetCollectionHook(func(st CollectionStats) {
		if st.Concurrent {
			pauses = append(pauses, st.PauseSnapshotNs, st.PauseFinalNs)
		} else {
			pauses = append(pauses, st.Duration.Nanoseconds())
		}
	})

	tens := make([]*Tenant, nTenants)
	muts := make([]*Mutator, nTenants)
	for i := range tens {
		tens[i] = w.NewTenant(TenantConfig{BudgetBytes: 32 << 10, Policy: TenantCollectFirst})
		muts[i] = tens[i].NewMutator()
	}
	rng := simrand.New(0x5e8d71)
	sizes := []int{1, 2, 4, 8, 16, 32}
	var total uint64
	for r := 0; r < requests; r++ {
		for i := 0; i < nTenants; i++ {
			base := mem.Addr(0x2000 + i*slots*4)
			n := 1 + rng.Intn(4)
			for a := 0; a < n; a++ {
				j := rng.Intn(slots)
				if _, err := muts[i].AllocateRooted(data, base+mem.Addr(4*j), sizes[rng.Intn(len(sizes))], false); err != nil {
					t.Fatalf("tenant %d request %d: %v", i, r, err)
				}
				total++
			}
			if rng.Bool(0.25) {
				j := rng.Intn(slots)
				if err := muts[i].Store(base+mem.Addr(4*j), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	settleHeap(w)
	w.SetCollectionHook(nil)
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Exact conservation: every allocation in the run went through a
	// tenant, and the central counter saw each one exactly once.
	if got := w.Heap.Stats().ObjectsAllocated; got != total {
		t.Fatalf("central ObjectsAllocated = %d, tenants allocated %d", got, total)
	}
	var byTenants uint64
	for i, ten := range tens {
		st := ten.Stats()
		byTenants += st.AllocatedObjects
		// Zero attribution drift: the tenant's budget counter and the
		// allocator's ownership table agree to the byte once settled.
		if owned := ten.OwnedBytes(); st.LiveBytes != owned {
			t.Fatalf("tenant %d: LiveBytes %d != owned bytes %d (attribution drift)",
				i, st.LiveBytes, owned)
		}
		if st.BudgetDenials != 0 {
			t.Fatalf("tenant %d: %d denials under collect-first with headroom", i, st.BudgetDenials)
		}
	}
	if byTenants != total {
		t.Fatalf("sum of tenant AllocatedObjects = %d, want %d", byTenants, total)
	}
	// Pause SLO: p99 under 50ms — a stop-the-world ceiling; the
	// concurrent cycles this config runs sit in the 0.1–20ms
	// band, so this bound has wide margin for race-detector runs.
	if len(pauses) > 0 {
		idx := (99*len(pauses) + 99) / 100
		if idx > len(pauses) {
			idx = len(pauses)
		}
		sorted := append([]int64(nil), pauses...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		if p99 := sorted[idx-1]; p99 > 50e6 {
			t.Fatalf("p99 pause = %dns, want <= 50ms", p99)
		}
	}
}

// TestCollectZeroAllocsTenanted holds a tenanted world to the budget
// TestCollectZeroAllocsUntraced pins for untenanted ones: with ownership
// records live and dying every cycle, the held cache's marking and
// settling, the sweep and the barrier reconcile allocate nothing.
func TestCollectZeroAllocsTenanted(t *testing.T) {
	// Both sweeps, which is where the sweep-side reconcile differs, under
	// the row names of the two heaps they once ran on.
	stw := modesWhere(func(m Mode) bool { return !m.ConcurrentMark && !m.Generational })
	for _, mode := range named(stw, map[string]string{"full": "freelist", "lazy": "line-lazy"}) {
		t.Run(mode.Name, func(t *testing.T) {
			w := newWorld(t, mode.Apply(Config{GCDivisor: -1}))
			data := addData(t, w, "roots", 0x2000, 64*4)
			m := w.NewTenant(TenantConfig{BudgetBytes: 1 << 20}).NewMutator()
			for i := 0; i < 64; i++ {
				if _, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*i), 8, false); err != nil {
					t.Fatal(err)
				}
			}
			w.Collect() // warm up: size the mark stack and sweep structures
			w.Collect()
			w.FinishSweep()
			round := 0
			avg := testing.AllocsPerRun(10, func() {
				// Drop two roots a cycle: the barrier reconcile has records
				// to credit, in blocks that keep other records.
				w.Store(0x2000+mem.Addr(8*round), 0)
				w.Store(0x2000+mem.Addr(8*round+4), 0)
				round++
				w.Collect()
				w.FinishSweep()
			})
			if avg != 0 {
				t.Fatalf("tenanted Collect allocates %v times per cycle, want 0", avg)
			}
			if got := m.ten.Stats().ReclaimedObjects; got < 20 {
				t.Fatalf("ReclaimedObjects = %d: the measured cycles reconciled nothing", got)
			}
		})
	}
}
