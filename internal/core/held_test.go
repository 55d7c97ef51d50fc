package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
)

// Tests for the caches that survive a collection (mutator.go): every
// slot a handle's cache holds is marked at the mark step, kept by the
// sweep, taken out of the survey at the close and — in a generational
// world — left young; a cache returned into a block whose sweep is
// still deferred sweeps that block first; and a tenant's books leave
// its handles' held slots out.

// firstHeld returns the first slot m's cache for 4-word objects holds
// (carved, not yet handed out), or 0.
func firstHeld(w *World, m *Mutator) mem.Addr {
	w.mu.Lock()
	defer w.mu.Unlock()
	class, _ := alloc.ClassFor(4)
	if held := m.caches[class].appendHeld(nil); len(held) > 0 {
		return held[0]
	}
	return 0
}

// TestHeldSlotReturnedIntoPendingBlock: a lazily swept world keeps a
// handle's cached run of 4-word slots across a collection, in a block
// the sweep left pending with the held slots marked. The handle's Free
// of an 8-word object, in another block, flushes the run back into the
// pending block, and a second handle carves the class past the
// returned slots, rooting every object. Were the run returned without
// sweeping its block first, the block's deferred sweep — which knows
// only the collection's marks — would free the second handle's rooted
// objects under it, and a later carve would hand their slots out again:
// the second handle would be given one address twice.
func TestHeldSlotReturnedIntoPendingBlock(t *testing.T) {
	// The one row keeps the name it had beside the retired line heap's.
	t.Run("line=false", func(t *testing.T) {
		w := newWorld(t, Config{LazySweep: true, GCDivisor: -1})
		data := addData(t, w, "roots", 0x2000, 4096)
		m1, m2 := w.NewMutator(), w.NewMutator()
		for i := 0; i < 10; i++ {
			if _, err := m1.AllocateRooted(data, 0x2000+mem.Addr(4*i), 4, false); err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				if err := data.Store(0x2000+mem.Addr(4*i), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		const bigSlot = 0x2000 + 4*10
		big, err := m1.AllocateRooted(data, bigSlot, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		held := firstHeld(w, m1)
		if held == 0 || mem.AlignPageDown(held) == mem.AlignPageDown(big) {
			t.Fatalf("the cache holds %#x beside the 8-word object %#x; want a held slot in a block of its own", uint32(held), uint32(big))
		}
		w.Collect()
		if w.Heap.SweepPending() == 0 || !markedNow(w, held) {
			t.Fatalf("after the collection: %d blocks pending, held slot marked %v", w.Heap.SweepPending(), markedNow(w, held))
		}
		if err := data.Store(bigSlot, 0); err != nil {
			t.Fatal(err)
		}
		if err := m1.Free(big); err != nil {
			t.Fatal(err)
		}
		owner := map[mem.Addr]int{}
		reused := false
		for i := 0; i < 600; i++ {
			p, err := m2.AllocateRooted(data, 0x2000+mem.Addr(4*(11+i)), 4, false)
			if err != nil {
				t.Fatal(err)
			}
			if j, dup := owner[p]; dup {
				t.Fatalf("the second handle's object %d got %#x, which its object %d holds", i, uint32(p), j)
			}
			owner[p] = i
			reused = reused || p == held
		}
		if !reused {
			t.Fatalf("the second handle never re-carved the returned slot %#x", uint32(held))
		}
		w.FinishSweep()
		for p, i := range owner {
			if !w.Heap.IsAllocated(p) {
				t.Fatalf("the second handle's rooted object %d (%#x) was freed by a deferred sweep", i, uint32(p))
			}
		}
		if err := w.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHeldSlotYoungAfterStickySweep: in a generational world the sweep
// keeps what is marked as old, and at the close a handle's held slots
// are marked. The close must leave them unmarked — young — or an object
// the cache hands out later is old from birth, and no minor cycle ever
// reclaims it. Under lazy sweep the held slots' block is still pending
// at the close, and it is swept before they are unmarked: its deferred
// sweep would free them under the cache.
func TestHeldSlotYoungAfterStickySweep(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			w := newWorld(t, Config{Generational: true, LazySweep: lazy, GCDivisor: -1, MinorDivisor: -1})
			data := addData(t, w, "roots", 0x2000, 4096)
			m := w.NewMutator()
			if _, err := m.AllocateRooted(data, 0x2000, 4, false); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := m.Allocate(4, false); err != nil {
					t.Fatal(err)
				}
			}
			w.Collect()
			held := firstHeld(w, m)
			if held == 0 || markedNow(w, held) {
				t.Fatalf("after the full cycle the cache holds %#x, marked %v; want a held, unmarked slot", uint32(held), held != 0 && markedNow(w, held))
			}
			p, err := m.Allocate(4, false)
			if err != nil {
				t.Fatal(err)
			}
			if p != held {
				t.Fatalf("the cache handed out %#x, not its held slot %#x", uint32(p), uint32(held))
			}
			st := w.CollectMinor()
			w.FinishSweep()
			if w.Heap.IsAllocated(p) {
				t.Fatalf("the minor cycle kept %#x, dropped as soon as the held slot handed it out (%+v)", uint32(p), st.Sweep)
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHeldCacheResumesOnFastPath: a handle's mirror of the collection
// trigger counts what it allocated since its last slow path, and a
// collection resets the count it mirrors. The stop must re-mirror it on
// resume: otherwise a handle that allocated up to just under the
// trigger diverts a few allocations after the collection — to the slow
// path, which returns the cache the collection kept.
func TestHeldCacheResumesOnFastPath(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: 4}) // 1 MiB heap: a collection every 256 KiB
	m := w.NewMutator()
	class, words := alloc.ClassFor(12)
	objBytes := words * mem.WordBytes
	trigger := (1 << 20) / 4
	held := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return m.caches[class].held()
	}
	// Allocate garbage until the cache holds more slots than the trigger
	// leaves room for: a stale mirror would cross it inside the cache.
	allocated := 0
	for ; allocated+objBytes <= trigger; allocated += objBytes {
		if h := held(); h > 1 && trigger-allocated < (h-1)*objBytes {
			break
		}
		if _, err := m.Allocate(12, false); err != nil {
			t.Fatal(err)
		}
	}
	if w.Collections() != 0 {
		t.Fatal("the set-up crossed the trigger")
	}
	m.Collect()
	n := held()
	if trigger-allocated >= n*objBytes {
		t.Fatalf("set-up: %d bytes from the trigger, %d slots held", trigger-allocated, n)
	}
	before := m.Stats()
	for i := 0; i < n; i++ {
		if _, err := m.Allocate(12, false); err != nil {
			t.Fatal(err)
		}
	}
	if after := m.Stats(); after.SlowAllocs != before.SlowAllocs {
		t.Fatalf("%d of the %d allocations the held cache could serve took the slow path",
			after.SlowAllocs-before.SlowAllocs, n)
	}
}

// TestTenantBooksWithHeldCaches: sixteen budgeted tenants warm their
// handles' caches, and a collection keeps every cache — no flush, no
// eviction. Each tenant's charge (Stats().LiveBytes) must still equal
// its ownership records (OwnedBytes): the held slots were tagged for
// the tenant and charged to it together, when carved, and the
// collection must neither credit nor untag them.
func TestTenantBooksWithHeldCaches(t *testing.T) {
	// Both sweeps, under the row names of the two heaps they once ran
	// on; the held caches' own battery runs every mode.
	stw := modesWhere(func(m Mode) bool { return !m.ConcurrentMark && !m.Generational })
	for _, mode := range named(stw, map[string]string{"full": "free-list", "lazy": "line-lazy"}) {
		t.Run(mode.Name, func(t *testing.T) {
			const tenants, perTenant = 16, 8
			w := newWorld(t, mode.Apply(Config{GCDivisor: -1}))
			data := addData(t, w, "roots", 0x2000, tenants*perTenant*4)
			tens := make([]*Tenant, tenants)
			muts := make([]*Mutator, tenants)
			for i := range tens {
				tens[i] = w.NewTenant(TenantConfig{BudgetBytes: 64 << 10, Policy: TenantCollectFirst})
				muts[i] = tens[i].NewMutator()
				for j := 0; j < perTenant; j++ {
					slot := 0x2000 + mem.Addr(4*(i*perTenant+j))
					size := []int{2, 4, 8, 16}[j%4]
					if _, err := muts[i].AllocateRooted(data, slot, size, false); err != nil {
						t.Fatal(err)
					}
					if j%2 == 1 { // every other one dies
						if err := data.Store(slot, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			w.Collect()
			w.FinishSweep()
			for i, ten := range tens {
				st, ms := ten.Stats(), muts[i].Stats()
				if st.Evicted || ms.FlushedSlots != 0 {
					t.Fatalf("tenant %d: evicted %v, %d slots flushed", i, st.Evicted, ms.FlushedSlots)
				}
				if held := ms.RunSlots - ms.FastAllocs - ms.SlowAllocs; held == 0 {
					t.Fatalf("tenant %d: the caches hold nothing across the collection", i)
				}
				if owned := ten.OwnedBytes(); st.LiveBytes != owned {
					t.Fatalf("tenant %d: LiveBytes %d != owned bytes %d", i, st.LiveBytes, owned)
				}
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMutatorBatteryHeldAcrossCycles is the held-slot rules' battery:
// handles whose caches survive every collection — explicit ones,
// allocation-triggered ones, the forced ones of collect-first tenants —
// allocate, link, free (flushing their caches into blocks a lazy sweep
// left pending) and collect, concurrently, in every collector mode,
// auditing the heap every round; the
// closure oracle checks at every close that each cached slot is
// marked. At the end the allocation count is conserved, every tenant's
// books balance, and with every root dropped nothing survives two
// collections.
func TestMutatorBatteryHeldAcrossCycles(t *testing.T) {
	ops := 300
	if testing.Short() {
		ops = 100
	}
	const nMut, slotBytes = 8, 16 * 4
	// Two rows keep the names they had before the mode table.
	for _, mode := range named(Modes, map[string]string{"full": "line", "conc-lazy": "conc-workers"}) {
		t.Run(mode.Name, func(t *testing.T) {
			w := newWorld(t, mode.Apply(Config{GCDivisor: 6}))
			installClosureOracle(t, w, nil)
			data := addData(t, w, "roots", 0x2000, nMut*slotBytes)
			muts := make([]*Mutator, nMut)
			var tens []*Tenant
			for g := range muts {
				if g%2 == 0 {
					muts[g] = w.NewMutator()
					continue
				}
				ten := w.NewTenant(TenantConfig{BudgetBytes: 64 << 10, Policy: TenantCollectFirst})
				tens = append(tens, ten)
				muts[g] = ten.NewMutator()
			}
			var (
				wg     sync.WaitGroup
				counts = make([]uint64, nMut)
				errs   = make([]error, nMut)
			)
			for g := range muts {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := mem.Addr(0x2000 + g*slotBytes)
					counts[g], errs[g] = churnMutator(w, muts[g], data, base, uint32(g)*0x9e3779b9+11, ops)
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("mutator %d: %v", g, err)
				}
			}
			w.Collect()
			w.FinishSweep()
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
			var total uint64
			for _, c := range counts {
				total += c
			}
			if got := w.Heap.Stats().ObjectsAllocated; got != total {
				t.Fatalf("central ObjectsAllocated = %d, mutators allocated %d", got, total)
			}
			for i, ten := range tens {
				if st, owned := ten.Stats(), ten.OwnedBytes(); st.LiveBytes != owned {
					t.Fatalf("tenant %d: LiveBytes %d != owned bytes %d", i, st.LiveBytes, owned)
				}
			}
			data.Fill(0)
			w.Collect()
			w.Collect()
			w.FinishSweep()
			if st := w.Heap.Stats(); st.ObjectsLive != 0 || st.BytesLive != 0 {
				t.Fatalf("%d objects (%d bytes) survived dropping every root", st.ObjectsLive, st.BytesLive)
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIntegrityWithHeldHoles audits the world while mutator handles
// hold half-consumed holes: VerifyIntegrity must account every
// carved-but-unissued slot (no double-carve, bits set) without
// requiring a flush first.
func TestIntegrityWithHeldHoles(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	addData(t, w, "data", 0x2000, 4096)
	m1 := w.NewMutator()
	m2 := w.NewMutator()
	// Odd counts leave both handles mid-hole.
	for i := 0; i < 7; i++ {
		if _, err := m1.Allocate(64, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := m2.Allocate(128, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity with caches mid-hole: %v", err)
	}
	// A collection parks the handles and keeps their caches; the next
	// audit accounts them as before.
	w.Collect()
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The handles allocate on from the caches they kept, and the audit
	// still balances.
	if _, err := m1.Allocate(64, false); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLazySweepMixedSizesConserve runs the mixed-size script under the
// lazy sweep, directly and through a handle: the invariants are
// integrity and exact conservation of the object count.
func TestLazySweepMixedSizesConserve(t *testing.T) {
	for _, useHandle := range []bool{false, true} {
		w := newWorld(t, Config{GCDivisor: 4, LazySweep: true})
		addData(t, w, "data", 0x2000, 4096)
		var d gcDriver
		if useHandle {
			d = w.NewMutator()
		} else {
			d = directDriver{w}
		}
		addrs := mutatorScript(t, d)
		w.Collect()
		w.FinishSweep()
		if err := w.VerifyIntegrity(); err != nil {
			t.Fatalf("handle=%v: %v", useHandle, err)
		}
		if got := w.Heap.Stats().ObjectsAllocated; got != uint64(len(addrs)) {
			t.Fatalf("handle=%v: ObjectsAllocated = %d, script allocated %d", useHandle, got, len(addrs))
		}
	}
}
