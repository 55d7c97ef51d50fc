package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/alloc"
	"repro/internal/machine"
	"repro/internal/mark"
	"repro/internal/mem"
)

func newWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := NewWorld(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func withMachine(t *testing.T, w *World, mcfg machine.Config) *machine.Machine {
	t.Helper()
	if mcfg.StackTop == 0 {
		mcfg.StackTop = 0x80000000
	}
	if mcfg.StackBytes == 0 {
		mcfg.StackBytes = 256 * 1024
	}
	m, err := machine.New(w.Space, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	w.SetMutator(m)
	return m
}

func addData(t *testing.T, w *World, name string, base mem.Addr, bytes int) *mem.Segment {
	t.Helper()
	s, err := w.Space.MapNew(name, mem.KindData, base, bytes, bytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllocateAndCollectBasic(t *testing.T) {
	w := newWorld(t, Config{})
	data := addData(t, w, "data", 0x2000, 4096)
	live, err := w.Allocate(2, false)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := w.Allocate(2, false)
	if err != nil {
		t.Fatal(err)
	}
	data.Store(0x2000, mem.Word(live))
	st := w.Collect()
	if st.Sweep.ObjectsLive != 1 || st.Sweep.ObjectsFreed != 1 {
		t.Fatalf("sweep = %+v", st.Sweep)
	}
	if !w.Heap.IsAllocated(live) || w.Heap.IsAllocated(dead) {
		t.Fatal("retention wrong")
	}
	if w.Collections() != 1 {
		t.Fatalf("Collections = %d", w.Collections())
	}
}

func TestRegistersAreRoots(t *testing.T) {
	w := newWorld(t, Config{})
	m := withMachine(t, w, machine.Config{RegisterWindows: true})
	p, _ := w.Allocate(2, false)
	m.SetGlobal(1, mem.Word(p))
	w.Collect()
	if !w.Heap.IsAllocated(p) {
		t.Fatal("register-referenced object collected")
	}
	m.SetGlobal(1, 0)
	w.Collect()
	if w.Heap.IsAllocated(p) {
		t.Fatal("unreferenced object retained")
	}
}

func TestLiveStackIsRoot(t *testing.T) {
	w := newWorld(t, Config{})
	m := withMachine(t, w, machine.Config{})
	p, _ := w.Allocate(2, false)
	err := m.WithFrame(2, func(f *machine.Frame) error {
		f.Store(0, mem.Word(p))
		w.Collect()
		if !w.Heap.IsAllocated(p) {
			t.Fatal("stack-referenced object collected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Frame popped; without clearing the value is dead-stack garbage,
	// which is NOT scanned (it is below SP).
	w.Collect()
	if w.Heap.IsAllocated(p) {
		t.Fatal("dead-stack value retained object")
	}
}

func TestStaleStackValueRetainsThroughNewFrame(t *testing.T) {
	// The §3.1 pathology end-to-end: pointer in popped frame, new
	// oversized frame grows over it, collection sees it.
	w := newWorld(t, Config{})
	m := withMachine(t, w, machine.Config{FrameSlopWords: 8})
	p, _ := w.Allocate(2, false)
	m.WithFrame(1, func(f *machine.Frame) error {
		f.Store(0, mem.Word(p))
		return nil
	})
	// Regrow without writing anything.
	m.WithFrame(1, func(f *machine.Frame) error {
		w.Collect()
		return nil
	})
	if !w.Heap.IsAllocated(p) {
		t.Fatal("stale stack pointer did not retain object (slop should expose it)")
	}
}

func TestAutomaticCollectionTrigger(t *testing.T) {
	w := newWorld(t, Config{
		InitialHeapBytes: 64 * 1024,
		ReserveHeapBytes: 1 << 20,
		GCDivisor:        2,
	})
	// Allocate and drop many objects; automatic GCs must keep the heap
	// bounded well below the total allocation volume.
	for i := 0; i < 20000; i++ {
		if _, err := w.Allocate(4, false); err != nil {
			t.Fatal(err)
		}
	}
	if w.Collections() == 0 {
		t.Fatal("no automatic collections happened")
	}
	if hb := w.Heap.Stats().HeapBytes; hb > 512*1024 {
		t.Fatalf("heap grew to %d despite collectable garbage", hb)
	}
}

func TestNoAutomaticCollectionWhenDisabled(t *testing.T) {
	w := newWorld(t, Config{
		InitialHeapBytes: 64 * 1024,
		ReserveHeapBytes: 8 << 20,
		GCDivisor:        -1, // negative disables; 0 means default
	})
	// 20000 4-word objects of garbage in a 64 KiB heap: the trigger
	// path must not fire, but the allocation-failure path still
	// collects when the heap is actually full, so the heap stays small
	// and collections are roughly one per heap-fill.
	for i := 0; i < 20000; i++ {
		if _, err := w.Allocate(4, false); err != nil {
			t.Fatal(err)
		}
	}
	if w.Collections() == 0 {
		t.Fatal("failure-path collections should still happen")
	}
	// With the divisor trigger (GCDivisor=2) collections fire twice as
	// often (at half-heap allocation); compare.
	w2 := newWorld(t, Config{
		InitialHeapBytes: 64 * 1024,
		ReserveHeapBytes: 8 << 20,
		GCDivisor:        2,
	})
	for i := 0; i < 20000; i++ {
		if _, err := w2.Allocate(4, false); err != nil {
			t.Fatal(err)
		}
	}
	if w2.Collections() <= w.Collections() {
		t.Fatalf("trigger path did not collect more often: %d vs %d",
			w2.Collections(), w.Collections())
	}
}

func TestAllocateExpandsWhenLiveDataGrows(t *testing.T) {
	w := newWorld(t, Config{
		InitialHeapBytes: 64 * 1024,
		ReserveHeapBytes: 4 << 20,
	})
	data := addData(t, w, "data", 0x2000, 64*1024)
	// Keep everything alive via the root segment.
	for i := 0; i < 10000; i++ {
		p, err := w.Allocate(4, false)
		if err != nil {
			t.Fatal(err)
		}
		data.Store(0x2000+mem.Addr(4*(i%16384)), mem.Word(p))
	}
	if w.Heap.Stats().BlocksDedicated == 0 {
		t.Fatal("nothing allocated?")
	}
	if w.Heap.Stats().HeapBytes <= 64*1024 {
		t.Fatal("heap failed to expand under live pressure")
	}
}

func TestHeapExhaustion(t *testing.T) {
	w := newWorld(t, Config{
		InitialHeapBytes: 16 * 1024,
		ReserveHeapBytes: 32 * 1024,
		ExpandIncrement:  4096,
	})
	data := addData(t, w, "data", 0x2000, 16*1024)
	var err error
	for i := 0; i < 10000; i++ {
		var p mem.Addr
		p, err = w.Allocate(4, false)
		if err != nil {
			break
		}
		data.Store(0x2000+mem.Addr(4*i), mem.Word(p))
	}
	if err == nil {
		t.Fatal("exhaustion never reported")
	}
}

func TestBlacklistPreventsFutureRetention(t *testing.T) {
	// The paper's headline mechanism: a static false reference is
	// blacklisted by an early collection, so later allocation avoids
	// that page and the false reference pins nothing.
	mk := func(mode BlacklistMode) (retained int) {
		w, err := NewWorld(nil, Config{
			Blacklisting:     mode,
			InitialHeapBytes: 256 * 1024,
			ReserveHeapBytes: 1 << 20,
			GCDivisor:        -1,
		})
		if err != nil {
			panic(err)
		}
		data, err := w.Space.MapNew("data", mem.KindData, 0x2000, 4096, 4096)
		if err != nil {
			panic(err)
		}
		// A false reference into the middle of the initial heap.
		falseRef := w.Heap.Base() + 0x10000 + 0x10
		data.Store(0x2000, mem.Word(falseRef))
		// Startup collection (before any allocation), per the paper.
		w.Collect()
		// Allocate dead lists; count objects surviving a final GC.
		var objs []mem.Addr
		for i := 0; i < 20000; i++ {
			p, err := w.Allocate(1, false)
			if err != nil {
				panic(err)
			}
			objs = append(objs, p)
		}
		w.Collect()
		for _, p := range objs {
			if w.Heap.IsAllocated(p) {
				retained++
			}
		}
		return retained
	}
	without := mk(BlacklistOff)
	with := mk(BlacklistDense)
	if without == 0 {
		t.Fatal("false reference retained nothing even without blacklisting")
	}
	if with != 0 {
		t.Fatalf("blacklisting left %d objects retained", with)
	}
}

func TestHashedBlacklistWorksToo(t *testing.T) {
	w := newWorld(t, Config{Blacklisting: BlacklistHashed, GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	falseRef := w.Heap.Base() + 0x4000
	data.Store(0x2000, mem.Word(falseRef))
	w.Collect()
	if !w.Blacklist.Contains(falseRef) {
		t.Fatal("hashed blacklist missed the false reference")
	}
}

func TestMarkOnly(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	p, _ := w.Allocate(2, false)
	w.Allocate(2, false) // dead
	data.Store(0x2000, mem.Word(p))
	objs, bytes := w.MarkOnly()
	if objs != 1 || bytes != 8 {
		t.Fatalf("MarkOnly = %d, %d", objs, bytes)
	}
	// MarkOnly must not free or leave marks.
	objs2, _ := w.MarkOnly()
	if objs2 != 1 {
		t.Fatalf("second MarkOnly = %d", objs2)
	}
	st := w.Collect()
	if st.Sweep.ObjectsFreed != 1 {
		t.Fatalf("sweep after MarkOnly = %+v", st.Sweep)
	}
}

func TestFinalization(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	kept, _ := w.Allocate(2, false)
	dropped, _ := w.Allocate(2, false)
	data.Store(0x2000, mem.Word(kept))
	w.RegisterFinalizable(kept)
	w.RegisterFinalizable(dropped)
	w.Collect()
	got := w.DrainReclaimed()
	if len(got) != 1 || got[0] != dropped {
		t.Fatalf("reclaimed = %v", got)
	}
	if len(w.DrainReclaimed()) != 0 {
		t.Fatal("drain not idempotent")
	}
	// The kept object stays registered and is reported when dropped.
	data.Store(0x2000, 0)
	w.Collect()
	got = w.DrainReclaimed()
	if len(got) != 1 || got[0] != kept {
		t.Fatalf("second reclaimed = %v", got)
	}
}

func TestAllocatorResidue(t *testing.T) {
	// With residue on and no clearing, the allocator's own frame leaves
	// the last allocation's address on the dead stack; if a later frame
	// grows over it the object is retained.
	run := func(selfClean bool) bool {
		w, err := NewWorld(nil, Config{
			GCDivisor:          -1,
			AllocatorResidue:   true,
			AllocatorSelfClean: selfClean,
		})
		if err != nil {
			panic(err)
		}
		m, err := machine.New(w.Space, machine.Config{
			StackTop: 0x80000000, StackBytes: 64 * 1024, FrameSlopWords: 8,
		})
		if err != nil {
			panic(err)
		}
		w.SetMutator(m)
		p, err := w.Allocate(2, false)
		if err != nil {
			panic(err)
		}
		// Grow the stack over the residue without writing.
		var retained bool
		m.WithFrame(4, func(*machine.Frame) error {
			w.Collect()
			retained = w.Heap.IsAllocated(p)
			return nil
		})
		return retained
	}
	if !run(false) {
		t.Fatal("dirty allocator residue did not retain the object")
	}
	if run(true) {
		t.Fatal("self-cleaning allocator still retained the object")
	}
}

func TestInteriorPointerConfigPlumbs(t *testing.T) {
	w := newWorld(t, Config{Pointer: mark.PointerInterior, GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	p, _ := w.Allocate(16, false)
	data.Store(0x2000, mem.Word(p+20)) // interior
	w.Collect()
	if !w.Heap.IsAllocated(p) {
		t.Fatal("interior pointer did not retain under PointerInterior")
	}

	w2 := newWorld(t, Config{Pointer: mark.PointerBase, GCDivisor: -1})
	data2 := addData(t, w2, "data", 0x2000, 4096)
	q, _ := w2.Allocate(16, false)
	data2.Store(0x2000, mem.Word(q+20))
	w2.Collect()
	if w2.Heap.IsAllocated(q) {
		t.Fatal("interior pointer retained under PointerBase")
	}
}

func TestBlacklistExpiry(t *testing.T) {
	w := newWorld(t, Config{Blacklisting: BlacklistDense, ExpireAge: 2, GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	falseRef := w.Heap.Base() + 0x3000
	data.Store(0x2000, mem.Word(falseRef))
	w.Collect()
	if !w.Blacklist.Contains(falseRef) {
		t.Fatal("not blacklisted")
	}
	// Remove the false reference; after enough cycles the entry expires.
	data.Store(0x2000, 0)
	w.Collect()
	w.Collect()
	w.Collect()
	if w.Blacklist.Contains(falseRef) {
		t.Fatal("stale blacklist entry did not expire")
	}
}

func TestCollectionStatsPopulated(t *testing.T) {
	w := newWorld(t, Config{Blacklisting: BlacklistDense, GCDivisor: -1})
	addData(t, w, "data", 0x2000, 4096)
	w.Allocate(2, false)
	st := w.Collect()
	if st.Mark.WordsScanned == 0 {
		t.Error("no root words scanned")
	}
	if st.HeapBytes == 0 {
		t.Error("heap bytes missing")
	}
	if st != w.LastCollection() {
		t.Error("LastCollection mismatch")
	}
}

func TestLoadStoreConvenience(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	p, _ := w.Allocate(2, false)
	if err := w.Store(p, 99); err != nil {
		t.Fatal(err)
	}
	v, err := w.Load(p)
	if err != nil || v != 99 {
		t.Fatalf("Load = %v, %v", v, err)
	}
}

func TestLargeAllocationThroughWorld(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1, InitialHeapBytes: 64 * 1024})
	p, err := w.Allocate(alloc.MaxSmallWords*4, false)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Heap.IsAllocated(p) {
		t.Fatal("large object not allocated")
	}
	w.Collect()
	if w.Heap.IsAllocated(p) {
		t.Fatal("unreferenced large object survived")
	}
}

func TestDesperateFallback(t *testing.T) {
	run := func(fallback bool) error {
		w := newWorld(t, Config{
			Blacklisting:      BlacklistDense,
			InitialHeapBytes:  8 * mem.PageBytes,
			ReserveHeapBytes:  8 * mem.PageBytes,
			GCDivisor:         -1,
			DesperateFallback: fallback,
		})
		// Blacklist the whole heap via false references.
		data := addData(t, w, "data", 0x2000, 8*mem.PageBytes)
		for i := 0; i < 8*mem.PageWords; i++ {
			data.Store(0x2000+mem.Addr(4*i), mem.Word(uint32(w.Heap.Base())+uint32(4*i)+2))
		}
		w.Collect()
		data.SetRoot(false) // stop retaining what we allocate next
		_, err := w.Allocate(2, false)
		return err
	}
	if err := run(false); err == nil {
		t.Fatal("fully blacklisted heap should exhaust without fallback")
	}
	if err := run(true); err != nil {
		t.Fatalf("desperate fallback failed: %v", err)
	}
}

func TestGenerationalStickyMarks(t *testing.T) {
	w := newWorld(t, Config{Generational: true, GCDivisor: -1, MinorDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	old, _ := w.Allocate(2, false)
	data.Store(0x2000, mem.Word(old))
	w.Collect() // full: old is now marked sticky
	data.Store(0x2000, 0)
	// A minor collection does not reclaim old objects, even unreachable
	// ones: their sticky mark bit protects them until the next full GC.
	st := w.CollectMinor()
	if !st.Minor {
		t.Fatal("CollectMinor did not run a minor cycle")
	}
	if !w.Heap.IsAllocated(old) {
		t.Fatal("minor collection freed an old object")
	}
	w.Collect()
	if w.Heap.IsAllocated(old) {
		t.Fatal("full collection failed to free unreachable old object")
	}
}

func TestGenerationalMinorFreesYoungGarbage(t *testing.T) {
	w := newWorld(t, Config{Generational: true, GCDivisor: -1, MinorDivisor: -1})
	w.Collect() // establish a full cycle
	young, _ := w.Allocate(2, false)
	st := w.CollectMinor()
	if w.Heap.IsAllocated(young) {
		t.Fatal("minor collection failed to free young garbage")
	}
	if st.Sweep.ObjectsFreed == 0 {
		t.Fatal("no objects freed")
	}
}

func TestGenerationalWriteBarrier(t *testing.T) {
	w := newWorld(t, Config{Generational: true, GCDivisor: -1, MinorDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	old, _ := w.Allocate(2, false)
	data.Store(0x2000, mem.Word(old))
	w.Collect() // old generation established

	// A young object reachable ONLY through the old object.
	young, _ := w.Allocate(2, false)
	if err := w.Store(old, mem.Word(young)); err != nil { // barrier fires
		t.Fatal(err)
	}
	st := w.CollectMinor()
	if !w.Heap.IsAllocated(young) {
		t.Fatal("write barrier missed an old-to-young pointer")
	}
	if st.DirtyBlocks == 0 {
		t.Fatal("no dirty blocks recorded")
	}
	if st.Promoted == 0 {
		t.Fatal("young survivor not counted as promoted")
	}
	// The promoted object is now old: a further minor keeps it without
	// rescanning roots for it.
	w.CollectMinor()
	if !w.Heap.IsAllocated(young) {
		t.Fatal("promoted object lost by later minor collection")
	}
}

func TestGenerationalBarrierIsLoadBearing(t *testing.T) {
	// Writing through the raw address space (bypassing World.Store)
	// skips the barrier, and the minor collection then misses the
	// old-to-young pointer. This documents the barrier contract.
	w := newWorld(t, Config{Generational: true, GCDivisor: -1, MinorDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	old, _ := w.Allocate(2, false)
	data.Store(0x2000, mem.Word(old))
	w.Collect()
	young, _ := w.Allocate(2, false)
	if err := w.Space.Store(old, mem.Word(young)); err != nil { // no barrier
		t.Fatal(err)
	}
	w.CollectMinor()
	if w.Heap.IsAllocated(young) {
		t.Fatal("young object survived without a barrier record (test premise broken)")
	}
	// A full collection repairs the world view (old is still rooted and
	// now points at a freed slot, which the full mark simply re-treats
	// as invalid).
	w.Collect()
}

func TestGenerationalAutoTrigger(t *testing.T) {
	w := newWorld(t, Config{
		Generational:     true,
		InitialHeapBytes: 64 * 1024,
		ReserveHeapBytes: 8 << 20,
		MinorDivisor:     4,
		FullEvery:        4,
	})
	minors, fulls := 0, 0
	for i := 0; i < 30000; i++ {
		if _, err := w.Allocate(4, false); err != nil {
			t.Fatal(err)
		}
		if w.Collections() > minors+fulls {
			if w.LastCollection().Minor {
				minors++
			} else {
				fulls++
			}
		}
	}
	if minors == 0 {
		t.Fatal("no minor collections triggered")
	}
	if fulls == 0 {
		t.Fatal("no periodic full collections")
	}
	if minors < fulls {
		t.Fatalf("expected minors (%d) to outnumber fulls (%d)", minors, fulls)
	}
}

func TestCollectMinorWithoutGenerationalFallsBack(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	p, _ := w.Allocate(2, false)
	st := w.CollectMinor()
	if st.Minor {
		t.Fatal("non-generational world ran a minor cycle")
	}
	if w.Heap.IsAllocated(p) {
		t.Fatal("fallback full collection did not sweep")
	}
}

// TestConcurrentStepOutsideCycle pins the edges of the stepping API: a
// step with no cycle active reports done, starting an active cycle again
// is a no-op, and starting one outside ConcurrentMark mode is an error.
func TestConcurrentStepOutsideCycle(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	if !w.ConcurrentStep(8) {
		t.Fatal("step outside a cycle should report done")
	}
	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal("restarting an active cycle should be a no-op, not an error")
	}
	if !w.ConcurrentActive() {
		t.Fatal("no cycle active after StartConcurrentCycle")
	}
	if st := w.FinishConcurrentCycle(); !st.Concurrent || w.Collections() != 1 {
		t.Fatalf("finish: %d collections, stats %+v", w.Collections(), st)
	}
	if err := newWorld(t, Config{GCDivisor: -1}).StartConcurrentCycle(); err == nil {
		t.Fatal("concurrent cycle started outside concurrent-mark mode")
	}
}

func TestAllocateTypedThroughWorld(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	id, err := w.RegisterLayout([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	node, err := w.AllocateTyped(id)
	if err != nil {
		t.Fatal(err)
	}
	pointee, _ := w.Allocate(2, false)
	hidden, _ := w.Allocate(2, false)
	w.Store(node, mem.Word(pointee))
	w.Store(node+4, mem.Word(hidden)) // data field
	data.Store(0x2000, mem.Word(node))
	w.Collect()
	if !w.Heap.IsAllocated(node) || !w.Heap.IsAllocated(pointee) {
		t.Fatal("typed object or pointee lost")
	}
	if w.Heap.IsAllocated(hidden) {
		t.Fatal("data field retained an object despite exact layout")
	}
	if _, err := w.AllocateTyped(alloc.DescID(99)); err == nil {
		t.Fatal("unknown layout accepted")
	}
}

// TestRegisterLayoutDuringConcurrentMark registers layouts on one
// goroutine while this one steps concurrent cycles through a typed
// list. The marker reads the descriptor table under the world lock, so
// registration must take it too; under -race a registration that does
// not is reported against the marker's read.
func TestRegisterLayoutDuringConcurrentMark(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	id, err := w.RegisterLayout([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	var head mem.Addr
	for i := 0; i < 2000; i++ {
		node, err := w.AllocateTyped(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Store(node, mem.Word(head)); err != nil {
			t.Fatal(err)
		}
		head = node
	}
	data.Store(0x2000, mem.Word(head))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.RegisterLayout([]bool{true, false, true}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 4; round++ {
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		for !w.ConcurrentStep(16) {
		}
		w.FinishConcurrentCycle()
	}
	close(stop)
	<-done
	for p, n := head, 0; p != 0; n++ {
		if !w.Heap.IsAllocated(p) {
			t.Fatalf("typed list node %d (%#x) lost", n, uint32(p))
		}
		next, err := w.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		p = mem.Addr(next)
	}
}

// TestSetCollectionHookDuringCollect swaps the collection hook on one
// goroutine while this one collects. The close reads the hook under the
// world lock, so the setter takes it too; under -race a setter that
// does not is reported against the close's read.
func TestSetCollectionHookDuringCollect(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	fired := 0 // written by the hook, which runs on this goroutine
	hook := func(CollectionStats) { fired++ }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			w.SetCollectionHook(hook)
			w.SetCollectionHook(nil)
		}
	}()
	for i := 0; i < 100; i++ {
		w.Collect()
	}
	<-done
	w.SetCollectionHook(hook)
	before := fired
	w.Collect()
	if fired != before+1 {
		t.Fatalf("hook fired %d times for one collection", fired-before)
	}
}

// TestSetGCTraceDuringCollect sets and clears the gctrace writer on one
// goroutine while this one collects: the close writes the line under
// the world lock, so the setter takes it too (under -race a setter that
// does not is reported against the close's read).
func TestSetGCTraceDuringCollect(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	var buf bytes.Buffer // written only by the close, on this goroutine
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			w.SetGCTrace(&buf)
			w.SetGCTrace(nil)
		}
	}()
	for i := 0; i < 100; i++ {
		w.Collect()
	}
	<-done
	w.SetGCTrace(&buf)
	before := bytes.Count(buf.Bytes(), []byte("\n"))
	w.Collect()
	if got := bytes.Count(buf.Bytes(), []byte("\n")) - before; got != 1 {
		t.Fatalf("gctrace wrote %d lines for one collection", got)
	}
}

func TestDiscontiguousWorldRequiresHashedBlacklist(t *testing.T) {
	if _, err := NewWorld(nil, Config{DiscontiguousGrowth: true, Blacklisting: BlacklistDense}); err == nil {
		t.Fatal("discontinuous heap with dense blacklist accepted")
	}
	if _, err := NewWorld(nil, Config{DiscontiguousGrowth: true, Blacklisting: BlacklistHashed}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscontiguousWorldEndToEnd(t *testing.T) {
	// The paper's second collector: discontinuous heap, hashed
	// blacklist. Fill past the first reservation, keep a rotating live
	// set, verify collection and blacklisting still work everywhere.
	w := newWorld(t, Config{
		InitialHeapBytes:    64 * 1024,
		ReserveHeapBytes:    64 * 1024,
		ExpandIncrement:     16 * 1024,
		DiscontiguousGrowth: true,
		Blacklisting:        BlacklistHashed,
		GCDivisor:           -1, // exercise the expand path, not collection
	})
	data := addData(t, w, "data", 0x2000, 64*1024)
	// 15000 rooted 4-word objects = 240 KiB live, far beyond the 64 KiB
	// first reservation: growth is forced, and with it new extents.
	var objs []mem.Addr
	for i := 0; i < 15000; i++ {
		p, err := w.Allocate(4, false)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, p)
		data.Store(0x2000+mem.Addr(4*i), mem.Word(p))
	}
	if w.Heap.Extents() < 2 {
		t.Fatalf("heap stayed contiguous: %d extents", w.Heap.Extents())
	}
	// A false reference into the SECOND extent's vicinity gets hash-
	// blacklisted.
	falseRef := w.Heap.Limit() - 2 // committed, near the top extent
	_, ok := w.Heap.FindObject(falseRef, false)
	_ = ok
	vic := w.Heap.Limit() + 0x100 // uncommitted, in the top reservation
	if !w.Heap.InVicinity(vic) {
		t.Fatal("top extent reservation not in vicinity")
	}
	data.Store(0x2000+4*15000, mem.Word(vic))
	w.Collect()
	if !w.Blacklist.Contains(vic) {
		t.Fatal("hashed blacklist missed a second-extent vicinity reference")
	}
	// Every rooted object survives, wherever its extent.
	for i, p := range objs {
		if !w.Heap.IsAllocated(p) {
			t.Fatalf("rooted object %d lost", i)
		}
	}
	// Dropping the roots frees across all extents.
	for i := 0; i < 15000; i++ {
		data.Store(0x2000+mem.Addr(4*i), 0)
	}
	w.Collect()
	if live := w.Heap.Stats().ObjectsLive; live != 0 {
		t.Fatalf("%d objects survived after dropping all roots", live)
	}
}

// TestPinnedHeapOfGarbageAllocates is the exhaustion rule's regression:
// a heap at its reservation, filled with rooted objects, then all of it
// garbage. A failed allocation adds nothing to the collection trigger,
// so unless the call that finds the heap unable to grow collects before
// giving up, every later request is refused — on a heap that is all
// garbage. In the concurrent forms the heap is filled inside an open
// cycle (born-black objects: the cycle's own finale frees none of them),
// and the close is checked by the allocator's audit and the closure
// oracle.
func TestPinnedHeapOfGarbageAllocates(t *testing.T) {
	const heapBytes, objWords = 256 << 10, 8
	const objects = heapBytes / (objWords * mem.WordBytes)
	for _, tc := range []struct {
		name    string
		cfg     Config
		inCycle bool
	}{
		// The concurrent rows keep the names of the marking engines they
		// once ran on: "concurrent-detached" runs the lazy sweep.
		{name: "stw"},
		{name: "concurrent-serial", cfg: Config{ConcurrentMark: true, GCDivisor: -1}, inCycle: true},
		{name: "concurrent-detached", cfg: Config{ConcurrentMark: true, GCDivisor: -1, LazySweep: true}, inCycle: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.InitialHeapBytes, cfg.ReserveHeapBytes = heapBytes, heapBytes
			w := newWorld(t, cfg)
			roots := addData(t, w, "roots", 0x2000, objects*mem.WordBytes)
			if tc.inCycle {
				// (No automatic cycles in these forms — GCDivisor -1 — so no
				// allocation's assist scans the roots this test writes
				// directly.)
				installClosureOracle(t, w, nil)
				if err := w.StartConcurrentCycle(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < objects; i++ {
				p, err := w.Allocate(objWords, false)
				if err != nil {
					t.Fatalf("filling: object %d of %d: %v", i, objects, err)
				}
				roots.Store(0x2000+mem.Addr(i*mem.WordBytes), mem.Word(p))
			}
			if _, err := w.Allocate(objWords, false); !errors.Is(err, alloc.ErrHeapExhausted) {
				t.Fatalf("allocating into a full heap of live objects: err = %v, want ErrHeapExhausted", err)
			}
			if w.ConcurrentActive() {
				t.Fatal("the refused allocation left the cycle open")
			}
			if !tc.inCycle {
				// The cycle the refused allocation landed reset the trigger
				// the same way.
				w.Collect()
			}
			roots.Fill(0)
			for i := 0; i < 1000; i++ {
				if _, err := w.Allocate(objWords, false); err != nil {
					t.Fatalf("allocation %d on a heap that is all garbage: %v", i, err)
				}
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
