package alloc

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// TestSlotGeometryExhaustive checks the reciprocal against the division
// it replaces for every object size and every word offset the allocator
// can present (a whole block, plus the line carver's round-up slack),
// and the slot-count table against PageWords / w.
func TestSlotGeometryExhaustive(t *testing.T) {
	for w := 1; w <= MaxSmallWords; w++ {
		if got, want := slotsPerBlock(w), mem.PageWords/w; got != want {
			t.Fatalf("slotsPerBlock(%d) = %d, want %d", w, got, want)
		}
		for off := 0; off <= maxExactWord; off++ {
			if got, want := slotOfWord(off, w), off/w; got != want {
				t.Fatalf("slotOfWord(%d, %d) = %d, want %d", off, w, got, want)
			}
		}
	}
}

// TestSlotGeometryBoundaries pins the sizes where the reciprocal is
// most strained — the exact power of two, the sizes whose reciprocal
// rounds up the most, and the largest small object — at the offsets
// either side of each slot edge.
func TestSlotGeometryBoundaries(t *testing.T) {
	for _, tc := range []struct {
		w      int
		slots  int // per block
		waste  int // tail words no slot covers
		lastLo int // first word of the last slot
	}{
		{w: 1, slots: 1024, waste: 0, lastLo: 1023},
		{w: 2, slots: 512, waste: 0, lastLo: 1022},
		{w: 3, slots: 341, waste: 1, lastLo: 1020},
		{w: 5, slots: 204, waste: 4, lastLo: 1015},
		{w: 511, slots: 2, waste: 2, lastLo: 511},
		{w: 512, slots: 2, waste: 0, lastLo: 512},
	} {
		t.Run(fmt.Sprintf("w=%d", tc.w), func(t *testing.T) {
			if got := slotsPerBlock(tc.w); got != tc.slots {
				t.Errorf("slotsPerBlock = %d, want %d", got, tc.slots)
			}
			if got := mem.PageWords - tc.slots*tc.w; got != tc.waste {
				t.Errorf("tail waste = %d words, want %d", got, tc.waste)
			}
			for s := 0; s < tc.slots; s++ {
				lo, hi := s*tc.w, s*tc.w+tc.w-1
				if slotOfWord(lo, tc.w) != s || slotOfWord(hi, tc.w) != s {
					t.Fatalf("slot %d: words %d..%d resolve to %d..%d",
						s, lo, hi, slotOfWord(lo, tc.w), slotOfWord(hi, tc.w))
				}
			}
			if got := slotOfWord(tc.lastLo, tc.w); got != tc.slots-1 {
				t.Errorf("word %d resolves to slot %d, want the last slot %d", tc.lastLo, got, tc.slots-1)
			}
			// Tail waste must resolve past the last slot, which is how the
			// validity check rejects it.
			for off := tc.slots * tc.w; off < mem.PageWords; off++ {
				if got := slotOfWord(off, tc.w); got < tc.slots {
					t.Errorf("tail word %d resolves to live slot %d", off, got)
				}
			}
		})
	}
}

// --- the fused candidate step against the sequence it replaced ---

// refFindObject is the pointer validity check as it stood before the
// geometry kernel, hardware divisions and all; the differential tests
// hold MarkCandidate to it.
func refFindObject(a *Allocator, p mem.Addr, interior bool) (mem.Addr, bool) {
	e := a.extentOfAddr(p)
	if e == nil {
		return 0, false
	}
	bi := e.startBlock + int(p-e.seg.Base())/mem.PageBytes
	b := &a.blocks[bi]
	switch b.state {
	case blockFree:
		return 0, false
	case blockLargeCont:
		if !interior {
			return 0, false
		}
		bi -= int(b.spanLen)
		b = &a.blocks[bi]
		if b.ignoreOffPage {
			return 0, false
		}
		fallthrough
	case blockLargeHead:
		base := a.blockBase(bi)
		if p == base {
			return base, true
		}
		if !interior {
			return 0, false
		}
		if p < base+mem.Addr(int(b.objWords)*mem.WordBytes) {
			return base, true
		}
		return 0, false
	case blockSmall:
		words := int(b.objWords)
		bb := a.blockBase(bi)
		slot := int(p-bb) / (words * mem.WordBytes)
		if slot >= mem.PageWords/words {
			return 0, false
		}
		if !bitGet(b.allocBits, slot) {
			return 0, false
		}
		base := bb + mem.Addr(slot*words*mem.WordBytes)
		if p != base && !interior {
			return 0, false
		}
		return base, true
	}
	return 0, false
}

// refMark is the old Mark body.
func refMark(a *Allocator, base mem.Addr) bool {
	bi := a.blockIndex(base)
	b := &a.blocks[bi]
	slot := 0
	if b.state == blockSmall {
		slot = int(base-a.blockBase(bi)) / (int(b.objWords) * mem.WordBytes)
	}
	if bitGet(b.markBits, slot) {
		return false
	}
	bitSet(b.markBits, slot)
	b.markedCount++
	return true
}

// refMarkCandidate is the unfused sequence the marker used to run:
// FindObject, then Mark, then ObjectSpan and the block's descriptor for
// the scan kind.
func refMarkCandidate(a *Allocator, p mem.Addr, interior bool) (base mem.Addr, words int, typed bool, out MarkOutcome) {
	base, ok := refFindObject(a, p, interior)
	if !ok {
		return 0, 0, false, NotObject
	}
	words, atomicObj := a.ObjectSpan(base)
	typed = a.blocks[a.blockIndex(base)].desc >= 0
	switch {
	case !refMark(a, base):
		return base, words, typed, Already
	case atomicObj:
		return base, words, typed, WonAtomic
	}
	return base, words, typed, WonScan
}

// requireSameCandidate runs one candidate through MarkCandidate on fused
// and through the unfused reference on ref, and fails unless both report
// the same outcome and, in the gray entry, the same base, size and scan
// kind.
func requireSameCandidate(t *testing.T, fused, ref *Allocator, p mem.Addr, interior bool) (mem.Addr, MarkOutcome) {
	t.Helper()
	g, gout := fused.MarkCandidate(p, interior)
	wb, ww, wtyped, wout := refMarkCandidate(ref, p, interior)
	if g.Base() != wb || g.Words() != ww || g.Typed() != wtyped || gout != wout {
		t.Fatalf("candidate %#x: fused (%#x, %d, typed %v, %d), unfused (%#x, %d, typed %v, %d)",
			uint32(p), uint32(g.Base()), g.Words(), g.Typed(), gout, uint32(wb), ww, wtyped, wout)
	}
	return g.Base(), gout
}

// requireSameMarks fails unless the two heaps, built by the same
// allocation sequence, carry identical mark summaries and bitmaps.
func requireSameMarks(t *testing.T, fused, ref *Allocator) {
	t.Helper()
	if len(fused.blocks) != len(ref.blocks) {
		t.Fatalf("heaps diverged: %d vs %d blocks", len(fused.blocks), len(ref.blocks))
	}
	for bi := range fused.blocks {
		fb, rb := &fused.blocks[bi], &ref.blocks[bi]
		if fb.state != rb.state || fb.markedCount != rb.markedCount {
			t.Fatalf("block %d: state %d markedCount %d, reference state %d markedCount %d",
				bi, fb.state, fb.markedCount, rb.state, rb.markedCount)
		}
		for wi := range fb.markBits {
			if fb.markBits[wi] != rb.markBits[wi] {
				t.Fatalf("block %d mark word %d: %#x, reference %#x", bi, wi, fb.markBits[wi], rb.markBits[wi])
			}
		}
	}
	fo, fby := fused.CountMarked()
	ro, rby := ref.CountMarked()
	if fo != ro || fby != rby {
		t.Fatalf("CountMarked = %d objects %d bytes, reference %d objects %d bytes", fo, fby, ro, rby)
	}
}

// zooConfigs are the heap shapes the differential drives: between them
// they hold every block state the validity check distinguishes.
var zooConfigs = []struct {
	name string
	cfg  Config
}{
	{"freelist", Config{}},
	{"skip-boundary-slot", Config{SkipPageBoundarySlot: true}},
	{"second-extent", Config{
		InitialBytes: 24 * mem.PageBytes, ReserveBytes: 24 * mem.PageBytes,
		ExpandIncrement: mem.PageBytes, DiscontiguousGrowth: true,
		ExtentGapBytes: 1 << 20, ExtentReserveBytes: 32 * mem.PageBytes,
	}},
}

// buildZoo populates a heap with small conservative, atomic and typed
// blocks of several classes (some slots freed again), a large object,
// an ignore-off-page large object, and a large object freed back into
// free blocks; under DiscontiguousGrowth it spills into a second
// extent. The sequence is deterministic, so two zoos built from one
// config are address-identical.
func buildZoo(t testing.TB, cfg Config) *Allocator {
	t.Helper()
	if cfg.HeapBase == 0 {
		cfg.HeapBase = testHeapBase
	}
	if cfg.InitialBytes == 0 {
		cfg.InitialBytes = 32 * mem.PageBytes
		cfg.ReserveBytes = 64 * mem.PageBytes
	}
	cfg.Blacklist = blacklist.Disabled{}
	a, err := New(mem.NewAddressSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(f func() (mem.Addr, error)) mem.Addr {
		p, err := f()
		for err == ErrNeedMemory {
			if err := a.Expand(mem.PageBytes); err != nil {
				t.Fatalf("expand: %v", err)
			}
			p, err = f()
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	id, err := a.RegisterDescriptor([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	var small []mem.Addr
	for _, w := range []int{1, 2, 3, 5, 16, 64, 170, 341, 512} {
		for i := 0; i < 5; i++ {
			small = append(small, alloc(func() (mem.Addr, error) { return a.Alloc(w, false) }))
		}
		small = append(small, alloc(func() (mem.Addr, error) { return a.Alloc(w, true) }))
	}
	for i := 0; i < 4; i++ {
		small = append(small, alloc(func() (mem.Addr, error) { return a.AllocTyped(id) }))
	}
	hole := alloc(func() (mem.Addr, error) { return a.Alloc(3*mem.PageWords, false) })
	alloc(func() (mem.Addr, error) { return a.Alloc(2*mem.PageWords+7, false) })
	alloc(func() (mem.Addr, error) { return a.Alloc(mem.PageWords+1, true) })
	alloc(func() (mem.Addr, error) { return a.AllocIgnoreOffPage(3*mem.PageWords, false) })
	// Free slots inside live blocks, and whole free blocks mid-heap.
	for i := 0; i < len(small); i += 3 {
		if err := a.Free(small[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Free(hole); err != nil {
		t.Fatal(err)
	}
	if cfg.DiscontiguousGrowth {
		for a.Extents() < 2 {
			alloc(func() (mem.Addr, error) { return a.Alloc(mem.PageWords, false) })
		}
		alloc(func() (mem.Addr, error) { return a.Alloc(6, false) })
		alloc(func() (mem.Addr, error) { return a.Alloc(2*mem.PageWords, false) })
		// The spill reused the hole; leave a free block in the new extent.
		if err := a.Expand(mem.PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// zooCandidates returns every byte address of every committed block
// (so aligned, unaligned, interior and tail-waste values of each block
// state), then values around and outside the heap: below it, in the
// reserved-but-uncommitted tail, between extents, and at the ends of
// the address space.
func zooCandidates(a *Allocator) []mem.Addr {
	var out []mem.Addr
	for bi := range a.blocks {
		base := a.blockBase(bi)
		for off := 0; off < mem.PageBytes; off++ {
			out = append(out, base+mem.Addr(off))
		}
	}
	lo, hi := a.Hull()
	out = append(out, 0, 1, lo-mem.PageBytes, lo-1, hi, hi+mem.PageBytes, ^mem.Addr(0))
	for _, e := range a.extents {
		out = append(out, e.seg.Limit(), e.seg.Limit()+4, e.seg.ReservedLimit()-4,
			e.seg.ReservedLimit(), e.seg.ReservedLimit()+mem.PageBytes)
	}
	return out
}

// TestMarkCandidateMatchesUnfused holds the fused candidate step to
// the unfused sequence on every byte address of every block of each
// zoo, twice over (the second pass meets every object marked). The
// "cas=true" rows — named for the compare-and-swap marking they once
// ran — start from a heap on which some other party has marked every
// third object already, as a concurrent cycle's chunks find the objects
// born black or shaded by the barrier: those are Already from the start.
func TestMarkCandidateMatchesUnfused(t *testing.T) {
	for _, zc := range zooConfigs {
		for _, interior := range []bool{false, true} {
			for _, premarked := range []bool{false, true} {
				name := fmt.Sprintf("%s/interior=%v/cas=%v", zc.name, interior, premarked)
				t.Run(name, func(t *testing.T) {
					cfg := zc.cfg
					cfg.InteriorPointers = interior
					fused, ref := buildZoo(t, cfg), buildZoo(t, cfg)
					if premarked {
						premark(fused, ref)
					}
					states := map[blockState]bool{}
					for bi := range fused.blocks {
						states[fused.blocks[bi].state] = true
					}
					if len(states) != 4 {
						t.Fatalf("zoo holds block states %v, want all four", states)
					}
					if cfg.DiscontiguousGrowth && fused.Extents() < 2 {
						t.Fatal("zoo has no second extent")
					}
					var outcomes [4]int
					// Twice over: the second pass meets every object marked.
					for pass := 0; pass < 2; pass++ {
						for _, p := range zooCandidates(fused) {
							gb, gout := requireSameCandidate(t, fused, ref, p, interior)
							if fb, fok := fused.FindObject(p, interior); fok != (gout != NotObject) || fb != gb {
								t.Fatalf("candidate %#x: FindObject (%#x, %v) disagrees with MarkCandidate (%#x, %d)",
									uint32(p), uint32(fb), fok, uint32(gb), gout)
							}
							outcomes[gout]++
						}
					}
					for out, n := range outcomes {
						if n == 0 {
							t.Errorf("outcome %d never produced", out)
						}
					}
					requireSameMarks(t, fused, ref)
				})
			}
		}
	}
}

// premark marks every third object of two address-identical heaps
// through Mark, as parties other than the scan loop do.
func premark(fused, ref *Allocator) {
	i := 0
	fused.ForEachObject(func(base mem.Addr) {
		if i%3 == 0 {
			fused.Mark(base)
			ref.Mark(base)
		}
		i++
	})
}

// FuzzMarkCandidate builds two identical heaps from a byte tape —
// configuration, then a mix of allocations, frees and expansions — and
// feeds both the same tape-chosen candidates, one through MarkCandidate
// and one through the unfused reference. Bit 1 of the first byte has
// some candidates' objects marked through Mark first, as parties other
// than the scan loop mark them.
func FuzzMarkCandidate(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 3, 2, 0, 7, 0, 7, 4, 7, 255, 7, 17})
	f.Add([]byte{7, 1, 2, 1, 9, 0, 200, 3, 0, 5, 0, 7, 1, 7, 2, 6, 0, 7, 3})
	f.Add([]byte{9, 4, 0, 4, 1, 1, 0, 5, 1, 7, 0, 7, 128, 7, 64})

	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			t.Skip("empty tape")
		}
		mode := tape[0]
		interior, premarked := mode&1 != 0, mode&2 != 0
		cfg := Config{
			HeapBase:             testHeapBase,
			InitialBytes:         8 * mem.PageBytes,
			ReserveBytes:         16 * mem.PageBytes,
			ExpandIncrement:      mem.PageBytes,
			InteriorPointers:     interior,
			SkipPageBoundarySlot: mode&8 != 0,
			DiscontiguousGrowth:  true,
			ExtentGapBytes:       1 << 20,
			ExtentReserveBytes:   16 * mem.PageBytes,
		}
		var heaps [2]*Allocator
		var ids [2]DescID
		for i := range heaps {
			a, err := New(mem.NewAddressSpace(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ids[i], err = a.RegisterDescriptor([]bool{true, false}); err != nil {
				t.Fatal(err)
			}
			heaps[i] = a
		}
		fused, ref := heaps[0], heaps[1]
		var live []mem.Addr
		// both runs one allocator operation on each heap and checks they
		// agree, so the two stay address-identical.
		both := func(op func(a *Allocator, id DescID) (mem.Addr, error)) (mem.Addr, bool) {
			p, err := op(fused, ids[0])
			q, qerr := op(ref, ids[1])
			if p != q || (err == nil) != (qerr == nil) {
				t.Fatalf("heaps diverged: %#x %v vs %#x %v", uint32(p), err, uint32(q), qerr)
			}
			if err != nil && err != ErrNeedMemory && err != ErrHeapExhausted {
				t.Fatal(err)
			}
			return p, err == nil
		}
		for i := 1; i+1 < len(tape) && i < 1024; i += 2 {
			op, arg := tape[i], int(tape[i+1])
			switch op % 8 {
			case 0: // small
				if p, ok := both(func(a *Allocator, _ DescID) (mem.Addr, error) {
					return a.Alloc(1+arg*2%MaxSmallWords, arg%5 == 0)
				}); ok {
					live = append(live, p)
				}
			case 1: // large
				if p, ok := both(func(a *Allocator, _ DescID) (mem.Addr, error) {
					return a.Alloc(MaxSmallWords+1+arg*16, arg%3 == 0)
				}); ok {
					live = append(live, p)
				}
			case 2: // typed
				if p, ok := both(func(a *Allocator, id DescID) (mem.Addr, error) { return a.AllocTyped(id) }); ok {
					live = append(live, p)
				}
			case 3: // ignore-off-page large
				if p, ok := both(func(a *Allocator, _ DescID) (mem.Addr, error) {
					return a.AllocIgnoreOffPage(mem.PageWords+1+arg*8, false)
				}); ok {
					live = append(live, p)
				}
			case 4: // free
				if len(live) > 0 {
					j := arg % len(live)
					both(func(a *Allocator, _ DescID) (mem.Addr, error) { return 0, a.Free(live[j]) })
					live = append(live[:j], live[j+1:]...)
				}
			case 5: // expand (into a second extent once the first is spent)
				both(func(a *Allocator, _ DescID) (mem.Addr, error) { return 0, a.Expand(mem.PageBytes) })
			case 6: // sweep: clears marks, frees what is unmarked
				both(func(a *Allocator, _ DescID) (mem.Addr, error) { a.Sweep(); return 0, nil })
				kept := live[:0]
				for _, p := range live {
					if fused.IsAllocated(p) {
						kept = append(kept, p)
					}
				}
				live = kept
			case 7: // candidate: a byte offset off a live object, or a raw page offset
				var p mem.Addr
				if len(live) > 0 && arg&1 == 0 {
					p = live[arg/2%len(live)] + mem.Addr(arg%13) - 4
				} else {
					lo, _ := fused.Hull()
					p = lo - mem.PageBytes + mem.Addr(arg)*977
				}
				if base, ok := fused.FindObject(p, interior); premarked && ok && arg%3 == 0 {
					fused.Mark(base)
					ref.Mark(base)
				}
				requireSameCandidate(t, fused, ref, p, interior)
			}
		}
		// Every address of every block, both heaps, then the bitmaps.
		for _, p := range zooCandidates(fused) {
			requireSameCandidate(t, fused, ref, p, interior)
		}
		requireSameMarks(t, fused, ref)
	})
}

// TestBlockDescLayout pins the descriptor's size and the offsets of the
// fields the candidate step reads: everything resolve touches on the way
// to the bitmaps stays inside the first 64 bytes, and the descriptor
// stays the 80 bytes it was before it cached its geometry (the block
// table is walked by every sweep and reconcile).
func TestBlockDescLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit slice headers")
	}
	var b blockDesc
	if got := unsafe.Sizeof(b); got != 80 {
		t.Errorf("blockDesc is %d bytes, want 80", got)
	}
	for _, f := range []struct {
		name string
		off  uintptr
	}{
		{"state", unsafe.Offsetof(b.state)},
		{"atomic", unsafe.Offsetof(b.atomic)},
		{"desc", unsafe.Offsetof(b.desc)},
		{"objWords", unsafe.Offsetof(b.objWords)},
		{"slotRecip", unsafe.Offsetof(b.slotRecip)},
		{"slots", unsafe.Offsetof(b.slots)},
		{"markedCount", unsafe.Offsetof(b.markedCount)},
		{"markBits", unsafe.Offsetof(b.markBits)},
		{"allocBits", unsafe.Offsetof(b.allocBits)},
	} {
		if f.off >= 64 {
			t.Errorf("blockDesc.%s at offset %d, want it in the first 64 bytes", f.name, f.off)
		}
	}
}

// TestNewSmallBlockGeometry checks the one constructor: every size class
// caches its table geometry and gets bitmaps of one bit per slot.
func TestNewSmallBlockGeometry(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	id, err := a.RegisterDescriptor([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range classWords {
		mustAlloc(t, a, w, false)
		mustAlloc(t, a, w, true)
	}
	if _, err := a.AllocTyped(id); err != nil {
		t.Fatal(err)
	}
	small := 0
	for bi := range a.blocks {
		b := &a.blocks[bi]
		if b.state != blockSmall {
			continue
		}
		small++
		w := int(b.objWords)
		if b.slotRecip != slotRecip[w] || b.slots != slotCount[w] {
			t.Errorf("block %d (%d words): cached (%d, %d), tables (%d, %d)", bi, w, b.slotRecip, b.slots, slotRecip[w], slotCount[w])
		}
		n := (slotsPerBlock(w) + 63) / 64
		if len(b.markBits) != n || len(b.allocBits) != n {
			t.Errorf("block %d: %d mark words and %d alloc words, want %d each", bi, len(b.markBits), len(b.allocBits), n)
		}
	}
	if want := 2*len(classWords) + 1; small != want {
		t.Fatalf("%d small blocks, want %d", small, want)
	}
}

// TestCheckIntegrityMarkSide injects one corruption per mark-side check
// into an otherwise consistent heap: markedCount must equal the bitmap's
// population count at every audit point. The first block of cases marks
// through Mark. The "cas-" cases — named for the compare-and-swap
// marking they once covered — mark through the scan loop's candidate
// step (MarkCandidate) instead, which must leave the summaries exact
// too; the "settled-" cases audit again after a sticky sweep kept the
// marks.
func TestCheckIntegrityMarkSide(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cas     bool // the marks are made by MarkCandidate, not Mark
		settle  bool // a sticky sweep runs before the corruption
		corrupt func(small, large *blockDesc)
		want    string // "" = the audit must pass
	}{
		{name: "marked-free-slot", corrupt: func(small, _ *blockDesc) {
			bitSet(small.markBits, 5) // slots 0..2 are allocated
			small.markedCount++
		}, want: "marked but not allocated"},
		{name: "stale-summary", corrupt: func(small, _ *blockDesc) { small.markedCount++ }, want: "!= markedCount"},
		{name: "unmarked-summary", corrupt: func(small, _ *blockDesc) { bitClear(small.markBits, 0) }, want: "!= markedCount"},
		{name: "cached-reciprocal", corrupt: func(small, _ *blockDesc) { small.slotRecip++ }, want: "caches geometry"},
		{name: "cached-slot-count", corrupt: func(small, _ *blockDesc) { small.slots-- }, want: "caches geometry"},
		{name: "large-mark-word", corrupt: func(_, large *blockDesc) { large.markBits[0] = 2 }, want: "large block"},
		{name: "large-summary", corrupt: func(_, large *blockDesc) { large.markedCount = 0 }, want: "large block"},

		{name: "cas-lagging-summary", cas: true, corrupt: func(small, large *blockDesc) {
			if small.markedCount != 1 || large.markedCount != 1 {
				panic("the candidate step left a summary lagging")
			}
		}},
		{name: "cas-marked-free-slot", cas: true, corrupt: func(small, _ *blockDesc) { bitSet(small.markBits, 5) }, want: "marked but not allocated"},
		{name: "cas-large-mark-word", cas: true, corrupt: func(_, large *blockDesc) { large.markBits[0] = 3 }, want: "large block"},
		{name: "cas-cached-reciprocal", cas: true, corrupt: func(small, _ *blockDesc) { small.slotRecip++ }, want: "caches geometry"},

		{name: "settled-exact", cas: true, settle: true, corrupt: func(small, large *blockDesc) {
			if small.markedCount != 1 || large.markedCount != 1 {
				panic("the sticky sweep lost a summary")
			}
		}},
		{name: "settled-stale-summary", cas: true, settle: true, corrupt: func(small, _ *blockDesc) { small.markedCount-- }, want: "!= markedCount"},
		{name: "settled-large-summary", cas: true, settle: true, corrupt: func(_, large *blockDesc) { large.markedCount = 0 }, want: "large block"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, a := newTestAllocator(t, Config{})
			var first mem.Addr
			for i := 0; i < 3; i++ {
				p := mustAlloc(t, a, 4, false)
				if i == 0 {
					first = p
				}
			}
			big := mustAlloc(t, a, 2*mem.PageWords, false)
			mark := a.Mark
			if tc.cas {
				mark = func(p mem.Addr) bool { _, out := a.MarkCandidate(p, false); return out.Won() == 1 }
			}
			mark(first)
			mark(big)
			if err := a.CheckIntegrity(nil); err != nil {
				t.Fatalf("consistent heap: %v", err)
			}
			if tc.settle {
				a.SweepSticky()
				if err := a.CheckIntegrity(nil); err != nil {
					t.Fatalf("consistent heap after the sweep: %v", err)
				}
			}
			tc.corrupt(&a.blocks[a.blockIndex(first)], &a.blocks[a.blockIndex(big)])
			err := a.CheckIntegrity(nil)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("CheckIntegrity = %v, want the audit to pass", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("CheckIntegrity = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestSweepRecountsSummariesAfterAtomicMarks — named for the recount
// that compare-and-swap marks once needed — pins that no sweep needs
// one: the same objects marked once through Mark, or by two markers
// taking turns through the scan loop's candidate step (each object won
// by one of them), leave exact summaries at every point, and each kind
// of sweep — eager and lazy, clearing and sticky — reclaims the same
// and leaves a heap that passes the audit.
func TestSweepRecountsSummariesAfterAtomicMarks(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		for _, sticky := range []bool{false, true} {
			t.Run(fmt.Sprintf("lazy=%v/sticky=%v", lazy, sticky), func(t *testing.T) {
				run := func(turns bool) (SweepResult, *Allocator) {
					_, a := newTestAllocator(t, Config{LazySweep: lazy})
					rng := simrand.New(9)
					var keep []mem.Addr
					for i := 0; i < 900; i++ {
						p := mustAlloc(t, a, 1+rng.Intn(40), false)
						if rng.Bool(0.5) {
							keep = append(keep, p)
						}
					}
					keep = append(keep, mustAlloc(t, a, 3*mem.PageWords, false))
					mustAlloc(t, a, 2*mem.PageWords, false) // a dead large object
					if !turns {
						for _, p := range keep {
							a.Mark(p)
						}
					} else {
						// Two markers take turns over the same objects, from
						// opposite ends.
						won := 0
						for i := range keep {
							for _, p := range []mem.Addr{keep[i], keep[len(keep)-1-i]} {
								_, out := a.MarkCandidate(p, false)
								won += out.Won()
							}
						}
						if won != len(keep) {
							t.Fatalf("%d first-marks for %d objects", won, len(keep))
						}
						if err := a.CheckIntegrity(nil); err != nil {
							t.Fatalf("audit between the marks and the sweep: %v", err)
						}
					}
					var r SweepResult
					if sticky {
						r = a.SweepSticky()
					} else {
						r = a.Sweep()
					}
					if err := a.CheckIntegrity(nil); err != nil {
						t.Fatalf("audit after the sweep: %v", err)
					}
					a.FinishSweep()
					if err := a.CheckIntegrity(nil); err != nil {
						t.Fatalf("audit after the deferred sweeps: %v", err)
					}
					return r, a
				}
				plain, pa := run(false)
				turns, ca := run(true)
				if plain != turns {
					t.Fatalf("sweep after marks taken in turns %+v, after plain marks %+v", turns, plain)
				}
				po, pb := pa.CountMarked()
				co, cb := ca.CountMarked()
				if po != co || pb != cb {
					t.Fatalf("marks left: %d objects %d bytes, plain %d objects %d bytes", co, cb, po, pb)
				}
			})
		}
	}
}
