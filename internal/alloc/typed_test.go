package alloc

import (
	"testing"

	"repro/internal/blacklist"
	"repro/internal/mem"
)

func TestRegisterDescriptor(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	id, err := a.RegisterDescriptor([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Descriptor(id)
	if err != nil {
		t.Fatal(err)
	}
	if d.Words != 3 || !d.PointerAt(0) || d.PointerAt(1) || !d.PointerAt(2) {
		t.Fatalf("descriptor wrong: %+v", d)
	}
	if d.PointerAt(99) {
		t.Error("out-of-range PointerAt should be false")
	}
	if _, err := a.RegisterDescriptor(nil); err == nil {
		t.Error("empty descriptor accepted")
	}
	if _, err := a.RegisterDescriptor(make([]bool, MaxSmallWords+1)); err == nil {
		t.Error("oversized descriptor accepted")
	}
	if _, err := a.Descriptor(DescID(42)); err == nil {
		t.Error("unknown descriptor id accepted")
	}
}

func TestAllocTypedBasics(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	id, _ := a.RegisterDescriptor([]bool{true, false})
	p, err := a.AllocTyped(id)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsAllocated(p) {
		t.Fatal("typed object not allocated")
	}
	// Delivered zeroed.
	for i := 0; i < 2; i++ {
		if v, _ := a.Seg().Load(p + mem.Addr(4*i)); v != 0 {
			t.Fatalf("word %d = %#x", i, uint32(v))
		}
	}
	g, scanned := a.ScanView(p)
	if !scanned || !g.Typed() || g.Base() != p || len(a.GrayWords(g)) != 2 {
		t.Fatalf("ScanView = %#x scanned %v, %d words", uint64(g), scanned, len(a.GrayWords(g)))
	}
	if ptrs := a.PointerMask(g); len(ptrs) != 1 || ptrs[0] != 1 {
		t.Fatalf("PointerMask = %#x, want word 0 only", ptrs)
	}
	if _, err := a.AllocTyped(DescID(77)); err == nil {
		t.Error("alloc with unknown descriptor accepted")
	}
}

func TestTypedBlocksAreSeparate(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	id1, _ := a.RegisterDescriptor([]bool{true, false})
	id2, _ := a.RegisterDescriptor([]bool{false, true})
	p1, _ := a.AllocTyped(id1)
	p2, _ := a.AllocTyped(id2)
	p3, _ := a.Alloc(2, false)
	if mem.PageOf(p1) == mem.PageOf(p2) {
		t.Fatal("different descriptors share a block")
	}
	if mem.PageOf(p1) == mem.PageOf(p3) || mem.PageOf(p2) == mem.PageOf(p3) {
		t.Fatal("typed and conservative objects share a block")
	}
}

func TestScanViewKinds(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	cons := mustAlloc(t, a, 2, false)
	atom := mustAlloc(t, a, 2, true)
	big := mustAlloc(t, a, 2*mem.PageWords, false)
	id, _ := a.RegisterDescriptor([]bool{true})
	typed, _ := a.AllocTyped(id)
	check := func(p mem.Addr, words int, wantScanned, wantTyped bool) {
		t.Helper()
		g, scanned := a.ScanView(p)
		if g.Base() != p || g.Words() != words || scanned != wantScanned || g.Typed() != wantTyped {
			t.Fatalf("ScanView(%#x) = base %#x, %d words, scanned %v, typed %v; want %d words, scanned %v, typed %v",
				uint32(p), uint32(g.Base()), g.Words(), scanned, g.Typed(), words, wantScanned, wantTyped)
		}
	}
	check(cons, 2, true, false)
	check(atom, 2, false, false)
	check(big, 2*mem.PageWords, true, false)
	check(typed, 1, true, true)
}

func TestTypedSweepAndFreeRecycle(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	id, _ := a.RegisterDescriptor([]bool{true, false, false})
	var objs []mem.Addr
	for i := 0; i < 50; i++ {
		p, err := a.AllocTyped(id)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, p)
	}
	// Keep half, sweep, then reallocate: freed typed slots are reused
	// from the typed free list.
	for i := 0; i < 25; i++ {
		a.Mark(objs[i])
	}
	a.Sweep()
	before := a.Stats().HeapBytes
	freed := map[mem.Addr]bool{}
	for _, p := range objs[25:] {
		freed[p] = true
	}
	reused := 0
	for i := 0; i < 25; i++ {
		p, err := a.AllocTyped(id)
		if err != nil {
			t.Fatal(err)
		}
		if freed[p] {
			reused++
		}
	}
	if reused != 25 {
		t.Fatalf("only %d/25 typed slots reused", reused)
	}
	if a.Stats().HeapBytes != before {
		t.Fatal("heap grew despite typed free slots")
	}
	// Explicit Free of a typed object also recycles through its list.
	if err := a.Free(objs[0]); err != nil {
		t.Fatal(err)
	}
	p, _ := a.AllocTyped(id)
	if p != objs[0] {
		t.Fatalf("freed typed slot not first on list: %#x != %#x", uint32(p), uint32(objs[0]))
	}
}

func TestTypedSweepReleasesEmptyBlock(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	id, _ := a.RegisterDescriptor([]bool{true})
	if _, err := a.AllocTyped(id); err != nil {
		t.Fatal(err)
	}
	ded := a.Stats().BlocksDedicated
	a.Sweep() // nothing marked: block emptied and released
	if a.Stats().BlocksDedicated != ded-1 {
		t.Fatal("empty typed block not released")
	}
}

func TestAllocIgnoreOffPage(t *testing.T) {
	bl, _ := blacklist.NewDense(testHeapBase, testHeapBase+1024*mem.PageBytes, mem.PageBytes)
	_, a := newTestAllocator(t, Config{
		Blacklist:        bl,
		InteriorPointers: true,
		InitialBytes:     16 * mem.PageBytes,
	})
	// Blacklist a middle page: a regular 4-block interior-pointer object
	// must avoid it, but an ignore-off-page object may span it.
	bl.Add(testHeapBase + 2*mem.PageBytes)
	p, err := a.AllocIgnoreOffPage(4*mem.PageWords, false)
	if err != nil {
		t.Fatal(err)
	}
	if p != testHeapBase {
		t.Fatalf("ignore-off-page object at %#x, expected %#x (spanning the blacklisted page)",
			uint32(p), uint32(testHeapBase))
	}
	// First-page pointers are valid, deep interiors are not.
	if base, ok := a.FindObject(p, true); !ok || base != p {
		t.Fatal("base pointer rejected")
	}
	if base, ok := a.FindObject(p+100, true); !ok || base != p {
		t.Fatal("first-page interior rejected")
	}
	if _, ok := a.FindObject(p+mem.PageBytes+100, true); ok {
		t.Fatal("off-page interior accepted despite the client promise")
	}
	// Marking and sweeping work normally.
	if !a.Mark(p) {
		t.Fatal("mark failed")
	}
	a.Sweep()
	if !a.IsAllocated(p) {
		t.Fatal("marked ignore-off-page object swept")
	}
	a.Sweep()
	if a.IsAllocated(p) {
		t.Fatal("unmarked ignore-off-page object survived")
	}
}

func TestAllocIgnoreOffPageSmallFallsThrough(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p, err := a.AllocIgnoreOffPage(4, false)
	if err != nil {
		t.Fatal(err)
	}
	if g, scanned := a.ScanView(p); !scanned || g.Typed() || g.Words() != 4 {
		t.Fatal("small ignore-off-page object should be ordinary")
	}
}
