package alloc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/simrand"
)

const testHeapBase = 0x400000

func newTestAllocator(t *testing.T, cfg Config) (*mem.AddressSpace, *Allocator) {
	t.Helper()
	if cfg.HeapBase == 0 {
		cfg.HeapBase = testHeapBase
	}
	if cfg.InitialBytes == 0 {
		cfg.InitialBytes = 64 * mem.PageBytes
	}
	if cfg.ReserveBytes == 0 {
		cfg.ReserveBytes = 1024 * mem.PageBytes
	}
	space := mem.NewAddressSpace()
	a, err := New(space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return space, a
}

func mustAlloc(t *testing.T, a *Allocator, words int, atomic bool) mem.Addr {
	t.Helper()
	p, err := a.Alloc(words, atomic)
	if err == ErrNeedMemory {
		if err := a.Expand(words * mem.WordBytes); err != nil {
			t.Fatalf("expand: %v", err)
		}
		p, err = a.Alloc(words, atomic)
	}
	if err != nil {
		t.Fatalf("Alloc(%d): %v", words, err)
	}
	return p
}

func TestClassForMapping(t *testing.T) {
	prev := 0
	for _, w := range classWords {
		if w <= prev {
			t.Fatalf("classWords not increasing at %d", w)
		}
		prev = w
	}
	for req := 1; req <= MaxSmallWords; req++ {
		c, w := ClassFor(req)
		if w < req {
			t.Fatalf("ClassFor(%d) rounded down to %d", req, w)
		}
		if c > 0 && classWords[c-1] >= req {
			t.Fatalf("ClassFor(%d) not minimal: class %d, prev fits", req, c)
		}
	}
	if !IsLarge(MaxSmallWords+1) || IsLarge(MaxSmallWords) {
		t.Fatal("IsLarge boundary wrong")
	}
}

// TestClassForPanics pins ClassFor's panic, which is raised out of line
// (classRangePanic) so that ClassFor inlines, on both sides of the
// small range.
func TestClassForPanics(t *testing.T) {
	for _, n := range []int{0, -1, MaxSmallWords + 1} {
		func() {
			defer func() {
				want := fmt.Sprintf("alloc: ClassFor(%d) out of small range", n)
				if r := recover(); r != want {
					t.Errorf("ClassFor(%d) panicked with %v, want %q", n, r, want)
				}
			}()
			ClassFor(n)
		}()
	}
}

func TestNewValidation(t *testing.T) {
	space := mem.NewAddressSpace()
	if _, err := New(space, Config{HeapBase: 0x400001, InitialBytes: 4096, ReserveBytes: 8192}); err == nil {
		t.Error("unaligned heap base accepted")
	}
	if _, err := New(space, Config{HeapBase: 0x400000, InitialBytes: 8192, ReserveBytes: 4096}); err == nil {
		t.Error("initial > reserve accepted")
	}
}

func TestAllocBasics(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p, err := a.Alloc(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if p < a.Base() || p >= a.Limit() {
		t.Fatalf("object %#x outside heap", uint32(p))
	}
	if !mem.WordAligned(p) {
		t.Fatalf("object %#x unaligned", uint32(p))
	}
	// Objects are delivered zeroed.
	w, err := a.Seg().Load(p)
	if err != nil || w != 0 {
		t.Fatalf("object not zeroed: %v %v", w, err)
	}
	if _, err := a.Alloc(0, false); err == nil {
		t.Error("Alloc(0) should fail")
	}
	st := a.Stats()
	if st.ObjectsAllocated != 1 || st.BytesAllocated != 4 || st.BytesSinceGC != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestObjectsDisjoint(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	type ext struct{ lo, hi mem.Addr }
	var exts []ext
	rng := simrand.New(1)
	for i := 0; i < 500; i++ {
		words := 1 + rng.Intn(40)
		p := mustAlloc(t, a, words, false)
		_, w := ClassFor(words)
		e := ext{p, p + mem.Addr(w*mem.WordBytes)}
		for _, o := range exts {
			if e.lo < o.hi && o.lo < e.hi {
				t.Fatalf("objects overlap: [%#x,%#x) and [%#x,%#x)",
					uint32(e.lo), uint32(e.hi), uint32(o.lo), uint32(o.hi))
			}
		}
		exts = append(exts, e)
	}
}

func TestFindObjectSmall(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p := mustAlloc(t, a, 4, false) // rounds to a 4-word object
	// Base pointer valid in both modes.
	for _, interior := range []bool{false, true} {
		base, ok := a.FindObject(p, interior)
		if !ok || base != p {
			t.Fatalf("FindObject(base, %v) = %#x, %v", interior, uint32(base), ok)
		}
	}
	// Interior pointer valid only in interior mode.
	if _, ok := a.FindObject(p+4, false); ok {
		t.Error("interior pointer accepted in base-only mode")
	}
	if base, ok := a.FindObject(p+4, true); !ok || base != p {
		t.Error("interior pointer rejected in interior mode")
	}
	// Unaligned interior byte address valid in interior mode.
	if base, ok := a.FindObject(p+5, true); !ok || base != p {
		t.Error("unaligned interior pointer rejected")
	}
	// One past the end is not in the object; it may be the next slot's
	// base, which is unallocated here.
	if _, ok := a.FindObject(p+16, true); ok {
		t.Error("address past object accepted (next slot unallocated)")
	}
}

func TestFindObjectFreeSlotInvalid(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p := mustAlloc(t, a, 2, false)
	q := mustAlloc(t, a, 2, false)
	if err := a.Free(q); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.FindObject(q, true); ok {
		t.Error("freed slot accepted as valid object")
	}
	if _, ok := a.FindObject(p, true); !ok {
		t.Error("live object rejected")
	}
}

func TestFindObjectOutsideHeap(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	if _, ok := a.FindObject(0x1000, true); ok {
		t.Error("address below heap accepted")
	}
	if _, ok := a.FindObject(a.Limit(), true); ok {
		t.Error("address past committed heap accepted")
	}
	if !a.InVicinity(a.Limit()) {
		t.Error("reserved-but-uncommitted address should be in vicinity")
	}
	if a.InVicinity(a.Base() + mem.Addr(a.Seg().ReservedSize())) {
		t.Error("address past reservation should not be in vicinity")
	}
}

func TestFindObjectBlockTailWaste(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	// 170-word class: 6 slots of 170 words = 1020 words; 4 words waste.
	p := mustAlloc(t, a, 170, false)
	blockBase := p &^ (mem.PageBytes - 1)
	waste := blockBase + mem.Addr(6*170*mem.WordBytes)
	if _, ok := a.FindObject(waste, true); ok {
		t.Error("block-tail waste accepted as object")
	}
}

func TestLargeObjects(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	words := 3 * mem.PageWords // three blocks
	p := mustAlloc(t, a, words, false)
	if p%mem.PageBytes != 0 {
		t.Fatalf("large object %#x not block aligned", uint32(p))
	}
	// Base valid in both modes; deep interior only in interior mode.
	if base, ok := a.FindObject(p, false); !ok || base != p {
		t.Fatal("large base rejected")
	}
	inner := p + mem.Addr(2*mem.PageBytes+100)
	if base, ok := a.FindObject(inner, true); !ok || base != p {
		t.Fatal("pointer into continuation block rejected in interior mode")
	}
	if _, ok := a.FindObject(inner, false); ok {
		t.Fatal("continuation pointer accepted in base-only mode")
	}
	// Past the object's words but within the span's last block: invalid.
	if ws, _ := a.ObjectSpan(p); ws != words {
		t.Fatalf("ObjectSpan = %d", ws)
	}
	past := p + mem.Addr(words*mem.WordBytes)
	if _, ok := a.FindObject(past, true); ok {
		t.Error("address past large object accepted")
	}
}

func TestMarkAndMarked(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p := mustAlloc(t, a, 2, false)
	q := mustAlloc(t, a, 600*1024/4, false) // large
	for _, obj := range []mem.Addr{p, q} {
		if a.Marked(obj) {
			t.Fatalf("fresh object %#x marked", uint32(obj))
		}
		if !a.Mark(obj) {
			t.Fatalf("first Mark(%#x) returned false", uint32(obj))
		}
		if a.Mark(obj) {
			t.Fatalf("second Mark(%#x) returned true", uint32(obj))
		}
		if !a.Marked(obj) {
			t.Fatalf("object %#x not marked", uint32(obj))
		}
	}
}

func TestSweepFreesUnmarked(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	keep := mustAlloc(t, a, 2, false)
	drop := mustAlloc(t, a, 2, false)
	big := mustAlloc(t, a, 2048, false)
	a.Mark(keep)
	r := a.Sweep()
	if r.ObjectsLive != 1 || r.ObjectsFreed != 2 {
		t.Fatalf("sweep result = %+v", r)
	}
	if !a.IsAllocated(keep) {
		t.Error("marked object swept")
	}
	if a.IsAllocated(drop) || a.IsAllocated(big) {
		t.Error("unmarked object survived sweep")
	}
	// Marks are cleared by sweep, so an immediate second sweep frees
	// the survivor too.
	r2 := a.Sweep()
	if r2.ObjectsFreed != 1 || r2.ObjectsLive != 0 {
		t.Fatalf("second sweep = %+v", r2)
	}
}

func TestSweepRebuildsFreeLists(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	var objs []mem.Addr
	for i := 0; i < 100; i++ {
		objs = append(objs, mustAlloc(t, a, 2, false))
	}
	// Keep every other object.
	for i := 0; i < len(objs); i += 2 {
		a.Mark(objs[i])
	}
	a.Sweep()
	// New allocations reuse the freed slots (no heap growth).
	before := a.Stats().HeapBytes
	seen := map[mem.Addr]bool{}
	for i := 1; i < len(objs); i += 2 {
		seen[objs[i]] = true
	}
	reused := 0
	for i := 0; i < 50; i++ {
		p := mustAlloc(t, a, 2, false)
		if seen[p] {
			reused++
		}
	}
	if reused != 50 {
		t.Fatalf("only %d/50 allocations reused freed slots", reused)
	}
	if a.Stats().HeapBytes != before {
		t.Fatal("heap grew despite free slots")
	}
}

func TestSweepReleasesEmptyBlocksAndCoalesces(t *testing.T) {
	_, a := newTestAllocator(t, Config{InitialBytes: 16 * mem.PageBytes})
	// Fill several blocks with 1-word objects, mark none.
	for i := 0; i < 5000; i++ {
		mustAlloc(t, a, 1, false)
	}
	ded := a.Stats().BlocksDedicated
	if ded < 4 {
		t.Fatalf("expected several dedicated blocks, got %d", ded)
	}
	a.Sweep()
	st := a.Stats()
	if st.BlocksDedicated != 0 {
		t.Fatalf("%d blocks still dedicated after sweeping empty heap", st.BlocksDedicated)
	}
	// Address-ordered policy coalesces everything back to one span.
	if spans := a.FreeSpans(); len(spans) != 1 {
		t.Fatalf("free spans not coalesced: %v", spans)
	}
}

func TestSweepZeroesFreedSlots(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p := mustAlloc(t, a, 4, false)
	for i := 0; i < 4; i++ {
		a.Seg().Store(p+mem.Addr(4*i), 0xDEADBEEF)
	}
	keeper := mustAlloc(t, a, 4, false) // keeps the block dedicated
	a.Mark(keeper)
	a.Sweep()
	// Allocate until we get p back; its body must be zero.
	for i := 0; i < 1000; i++ {
		q := mustAlloc(t, a, 4, false)
		if q != p {
			continue
		}
		for w := 0; w < 4; w++ {
			v, _ := a.Seg().Load(q + mem.Addr(4*w))
			if v != 0 {
				t.Fatalf("recycled object word %d = %#x", w, uint32(v))
			}
		}
		return
	}
	t.Fatal("slot never recycled")
}

func TestCountMarkedAndClearMarks(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p := mustAlloc(t, a, 2, false)
	mustAlloc(t, a, 2, false)
	a.Mark(p)
	n, bytes := a.CountMarked()
	if n != 1 || bytes != 8 {
		t.Fatalf("CountMarked = %d, %d", n, bytes)
	}
	a.ClearMarks()
	if n, _ := a.CountMarked(); n != 0 {
		t.Fatal("ClearMarks left marks")
	}
	if !a.IsAllocated(p) {
		t.Fatal("ClearMarks should not free")
	}
}

func TestExpandAndExhaustion(t *testing.T) {
	_, a := newTestAllocator(t, Config{
		InitialBytes:    2 * mem.PageBytes,
		ReserveBytes:    4 * mem.PageBytes,
		ExpandIncrement: mem.PageBytes,
	})
	if !a.CanExpand() {
		t.Fatal("should be expandable")
	}
	if err := a.Expand(mem.PageBytes); err != nil {
		t.Fatal(err)
	}
	// Expansion is clamped to the reservation.
	if err := a.Expand(100 * mem.PageBytes); err != nil {
		t.Fatal(err)
	}
	if a.CanExpand() {
		t.Fatal("reservation should be exhausted")
	}
	if err := a.Expand(mem.PageBytes); err != ErrHeapExhausted {
		t.Fatalf("expected ErrHeapExhausted, got %v", err)
	}
}

func TestAllocNeedsMemory(t *testing.T) {
	_, a := newTestAllocator(t, Config{
		InitialBytes: mem.PageBytes,
		ReserveBytes: mem.PageBytes,
	})
	// One block: a 2-block object can never fit.
	if _, err := a.Alloc(2*mem.PageWords, false); err != ErrNeedMemory {
		t.Fatalf("want ErrNeedMemory, got %v", err)
	}
	// Fill the single block, then the next small alloc needs memory.
	for i := 0; i < mem.PageWords; i++ {
		if _, err := a.Alloc(1, false); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(1, false); err != ErrNeedMemory {
		t.Fatalf("want ErrNeedMemory when full, got %v", err)
	}
}

func TestBlacklistedBlockNotDedicated(t *testing.T) {
	bl, err := blacklist.NewDense(testHeapBase, testHeapBase+1024*mem.PageBytes, mem.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	_, a := newTestAllocator(t, Config{Blacklist: bl, InitialBytes: 8 * mem.PageBytes})
	// Blacklist the first three heap pages.
	for i := 0; i < 3; i++ {
		bl.Add(testHeapBase + mem.Addr(i*mem.PageBytes))
	}
	p := mustAlloc(t, a, 1, false)
	if p < testHeapBase+3*mem.PageBytes {
		t.Fatalf("object %#x placed on blacklisted page", uint32(p))
	}
	if a.Stats().BlacklistSkips == 0 {
		t.Error("no blacklist skips recorded")
	}
}

func TestAtomicSmallMayUseBlacklistedPages(t *testing.T) {
	bl, _ := blacklist.NewDense(testHeapBase, testHeapBase+1024*mem.PageBytes, mem.PageBytes)
	_, a := newTestAllocator(t, Config{
		Blacklist:                bl,
		InitialBytes:             8 * mem.PageBytes,
		AllowAtomicOnBlacklisted: true,
	})
	bl.Add(testHeapBase)
	// A small atomic object may use the blacklisted first page.
	p := mustAlloc(t, a, 2, true)
	if mem.PageOf(p) != mem.PageOf(testHeapBase) {
		t.Fatalf("small atomic object at %#x did not use blacklisted page", uint32(p))
	}
	// A pointer-containing object may not.
	q := mustAlloc(t, a, 2, false)
	if mem.PageOf(q) == mem.PageOf(testHeapBase) {
		t.Fatal("composite object placed on blacklisted page")
	}
	// A big atomic object (beyond the threshold) may not either.
	r := mustAlloc(t, a, 64, true)
	if mem.PageOf(r) == mem.PageOf(testHeapBase) {
		t.Fatal("large atomic object placed on blacklisted page")
	}
}

func TestLargeObjectBlacklistInteriorPolicy(t *testing.T) {
	mk := func(interior bool) (*blacklist.Dense, *Allocator) {
		bl, _ := blacklist.NewDense(testHeapBase, testHeapBase+1024*mem.PageBytes, mem.PageBytes)
		_, a := newTestAllocator(t, Config{
			Blacklist:        bl,
			InteriorPointers: interior,
			InitialBytes:     16 * mem.PageBytes,
		})
		// Blacklist page 2 (middle of the natural first placement).
		bl.Add(testHeapBase + 2*mem.PageBytes)
		return bl, a
	}
	// Interior pointers recognised: a 4-block object must avoid the span
	// containing page 2.
	_, a := mk(true)
	p := mustAlloc(t, a, 4*mem.PageWords, false)
	if p <= testHeapBase+2*mem.PageBytes && testHeapBase+2*mem.PageBytes < p+4*mem.PageBytes {
		t.Fatalf("interior mode: object [%#x,+4 blocks) spans blacklisted page", uint32(p))
	}
	// Base-only mode: only the first page matters, so placement at page 0
	// spanning page 2 is fine.
	_, a2 := mk(false)
	q := mustAlloc(t, a2, 4*mem.PageWords, false)
	if q != testHeapBase {
		t.Fatalf("base-only mode: object at %#x, expected %#x", uint32(q), uint32(testHeapBase))
	}
}

func TestSkipPageBoundarySlot(t *testing.T) {
	_, a := newTestAllocator(t, Config{SkipPageBoundarySlot: true})
	for i := 0; i < 3000; i++ {
		p := mustAlloc(t, a, 1, false)
		if p%mem.PageBytes == 0 {
			t.Fatalf("1-word object at page boundary %#x", uint32(p))
		}
	}
	// Larger classes are unaffected.
	found := false
	for i := 0; i < 100; i++ {
		if p := mustAlloc(t, a, 64, false); p%mem.PageBytes == 0 {
			found = true
		}
	}
	if !found {
		t.Error("64-word class should still use page-boundary slots")
	}
}

func TestFreeExplicit(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p := mustAlloc(t, a, 2, false)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if a.IsAllocated(p) {
		t.Fatal("freed object still allocated")
	}
	if err := a.Free(p); err == nil {
		t.Fatal("double free not detected")
	}
	if err := a.Free(0x1234); err == nil {
		t.Fatal("free of non-heap address not detected")
	}
	big := mustAlloc(t, a, 4*mem.PageWords, false)
	if err := a.Free(big + 4); err == nil {
		t.Fatal("free of large-object interior not detected")
	}
	if err := a.Free(big); err != nil {
		t.Fatal(err)
	}
	if a.IsAllocated(big) {
		t.Fatal("freed large object still allocated")
	}
}

func TestLIFODoesNotCoalesce(t *testing.T) {
	_, a := newTestAllocator(t, Config{
		FreeBlocks:   LIFO,
		InitialBytes: 8 * mem.PageBytes,
		ReserveBytes: 8 * mem.PageBytes,
	})
	// Dedicate all 8 blocks via large allocations, then free them.
	var objs []mem.Addr
	for i := 0; i < 8; i++ {
		objs = append(objs, mustAlloc(t, a, mem.PageWords, false))
	}
	for _, p := range objs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.FreeSpans()) != 8 {
		t.Fatalf("LIFO coalesced: %v", a.FreeSpans())
	}
	if a.LargestFreeSpan() != 1 {
		t.Fatalf("LargestFreeSpan = %d", a.LargestFreeSpan())
	}
	// An 8-block request therefore fails even though 8 blocks are free.
	if _, err := a.Alloc(8*mem.PageWords, false); err != ErrNeedMemory {
		t.Fatalf("want ErrNeedMemory under LIFO fragmentation, got %v", err)
	}
}

func TestAddressOrderedSatisfiesLargeAfterChurn(t *testing.T) {
	_, a := newTestAllocator(t, Config{
		InitialBytes: 8 * mem.PageBytes,
		ReserveBytes: 8 * mem.PageBytes,
	})
	var objs []mem.Addr
	for i := 0; i < 8; i++ {
		objs = append(objs, mustAlloc(t, a, mem.PageWords, false))
	}
	for _, p := range objs {
		a.Free(p)
	}
	if _, err := a.Alloc(8*mem.PageWords, false); err != nil {
		t.Fatalf("address-ordered policy failed after churn: %v", err)
	}
}

func TestAtomicObjectSpan(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p := mustAlloc(t, a, 3, true)
	w, atomic := a.ObjectSpan(p)
	if w != 3 || !atomic {
		t.Fatalf("ObjectSpan = %d, %v", w, atomic)
	}
	q := mustAlloc(t, a, 3, false)
	if _, atomic := a.ObjectSpan(q); atomic {
		t.Fatal("composite object reported atomic")
	}
	// Atomic and composite objects of one class come from different
	// blocks (separate free lists).
	if mem.PageOf(p) == mem.PageOf(q) {
		t.Fatal("atomic and composite objects share a block")
	}
}

// TestRandomChurnInvariants drives a random alloc/free/mark/sweep
// sequence and checks the core invariants after every step.
func TestRandomChurnInvariants(t *testing.T) {
	_, a := newTestAllocator(t, Config{InitialBytes: 32 * mem.PageBytes})
	rng := simrand.New(99)
	live := map[mem.Addr]int{} // base -> words
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // alloc
			words := 1 + rng.Intn(100)
			p, err := a.Alloc(words, rng.Bool(0.3))
			if err == ErrNeedMemory {
				if err := a.Expand(mem.PageBytes); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := live[p]; dup {
				t.Fatalf("step %d: address %#x double-allocated", step, uint32(p))
			}
			live[p] = words
		case op < 8: // free one
			for p := range live {
				if err := a.Free(p); err != nil {
					t.Fatalf("step %d: free: %v", step, err)
				}
				delete(live, p)
				break
			}
		default: // GC: mark everything we consider live, sweep
			for p := range live {
				a.Mark(p)
			}
			a.Sweep()
		}
	}
	// Final full check.
	for p, words := range live {
		base, ok := a.FindObject(p, false)
		if !ok || base != p {
			t.Fatalf("live object %#x lost", uint32(p))
		}
		if w, _ := a.ObjectSpan(p); w < words {
			t.Fatalf("object %#x shrank: %d < %d", uint32(p), w, words)
		}
	}
	for p := range live {
		a.Mark(p)
	}
	r := a.Sweep()
	if r.ObjectsLive != uint64(len(live)) {
		t.Fatalf("sweep live %d != tracked %d", r.ObjectsLive, len(live))
	}
}

// TestFindObjectConsistency: for any allocated object, every interior
// byte resolves to its base in interior mode; in base-only mode only the
// base does.
func TestFindObjectConsistency(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	rng := simrand.New(7)
	f := func(sizeSel uint16) bool {
		words := 1 + int(sizeSel)%MaxSmallWords
		p, err := a.Alloc(words, false)
		if err != nil {
			if a.Expand(mem.PageBytes<<4) != nil {
				return false
			}
			p, err = a.Alloc(words, false)
			if err != nil {
				return false
			}
		}
		_, w := ClassFor(words)
		for trial := 0; trial < 8; trial++ {
			off := mem.Addr(rng.Intn(w * mem.WordBytes))
			base, ok := a.FindObject(p+off, true)
			if !ok || base != p {
				return false
			}
			if off != 0 {
				if _, ok := a.FindObject(p+off, false); ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAlloc2Words(b *testing.B) {
	space := mem.NewAddressSpace()
	a, err := New(space, Config{
		HeapBase:     testHeapBase,
		InitialBytes: 16 << 20,
		ReserveBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Alloc(2, false); err != nil {
			b.StopTimer()
			a.Sweep() // frees everything (nothing marked)
			b.StartTimer()
		}
	}
}

func TestAllocDesperateUsesBlacklistedPages(t *testing.T) {
	bl, _ := blacklist.NewDense(testHeapBase, testHeapBase+8*mem.PageBytes, mem.PageBytes)
	_, a := newTestAllocator(t, Config{
		Blacklist:    bl,
		InitialBytes: 8 * mem.PageBytes,
		ReserveBytes: 8 * mem.PageBytes,
	})
	// Blacklist every page: ordinary allocation must fail...
	for i := 0; i < 8; i++ {
		bl.Add(testHeapBase + mem.Addr(i*mem.PageBytes))
	}
	if _, err := a.Alloc(2, false); err != ErrNeedMemory {
		t.Fatalf("want ErrNeedMemory, got %v", err)
	}
	// ...but the desperate path succeeds and counts itself.
	p, err := a.AllocDesperate(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsAllocated(p) {
		t.Fatal("desperate object not allocated")
	}
	if a.Stats().DesperateAllocs != 1 {
		t.Fatalf("DesperateAllocs = %d", a.Stats().DesperateAllocs)
	}
	// Subsequent allocations of the same class reuse the block without
	// further desperation.
	if _, err := a.Alloc(2, false); err != nil {
		t.Fatal(err)
	}
	if a.Stats().DesperateAllocs != 1 {
		t.Fatal("free-list reuse should not count as desperate")
	}
	// Large desperate allocation spanning blacklisted pages.
	big, err := a.AllocDesperate(2*mem.PageWords, false)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsAllocated(big) || a.Stats().DesperateAllocs != 2 {
		t.Fatalf("large desperate alloc wrong: %v", a.Stats())
	}
}

func TestContiguousDefaultStillExhausts(t *testing.T) {
	_, a := newTestAllocator(t, Config{
		InitialBytes: 2 * mem.PageBytes,
		ReserveBytes: 2 * mem.PageBytes,
	})
	if a.CanExpand() {
		t.Fatal("contiguous full heap claims expandability")
	}
	if err := a.Expand(mem.PageBytes); err != ErrHeapExhausted {
		t.Fatalf("want ErrHeapExhausted, got %v", err)
	}
}
