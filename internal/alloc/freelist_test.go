package alloc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
)

// --- the reference model: the per-slot pop the kernel replaced ---
//
// Three address resolutions per slot — loadWord, storeWord, slotAt —
// kept here, verbatim, so that the differential below can drive the old
// sequence and the kernel over the same heaps. The model also threads a
// freshly dedicated block onto its list, as the allocator did before
// fresh runs: its heaps hold every free slot on a list.

func (a *Allocator) storeWord(p mem.Addr, v mem.Word) error {
	if e := a.extentOfAddr(p); e != nil {
		return e.seg.Store(p, v)
	}
	return fmt.Errorf("alloc: store outside heap at %#x", uint32(p))
}

func (a *Allocator) slotAt(p mem.Addr) (*blockDesc, int) {
	b := &a.blocks[a.blockIndex(p)]
	return b, slotOfWord(pageWordOff(p), int(b.objWords))
}

// refPop takes slot p off a list, returning the link it held.
func (a *Allocator) refPop(p mem.Addr) (mem.Addr, error) {
	next, err := a.loadWord(p)
	if err != nil {
		return 0, err
	}
	if err := a.storeWord(p, 0); err != nil {
		return 0, err
	}
	b, slot := a.slotAt(p)
	bitSet(b.allocBits, slot)
	b.liveSlots++
	return mem.Addr(next), nil
}

// refThreadFresh threads every fresh run onto the end of its list — the
// list threading the block gave, since a run is made only on an empty
// list and only pushes land above it — and drops the run.
func (a *Allocator) refThreadFresh() {
	thread := func(head mem.Addr, f freshRun) mem.Addr {
		if f.slot == f.end {
			return head
		}
		words := int(a.blocks[f.bi].objWords)
		var tail mem.Addr
		for slot := int(f.end) - 1; slot >= int(f.slot); slot-- {
			p := slotAddr(a.blockBase(int(f.bi)), slot, words)
			a.storeWord(p, mem.Word(tail))
			tail = p
		}
		if head == 0 {
			return tail
		}
		last := head
		for {
			next, _ := a.loadWord(last)
			if next == 0 {
				break
			}
			last = mem.Addr(next)
		}
		a.storeWord(last, mem.Word(tail))
		return head
	}
	for idx, f := range a.fresh {
		a.freeList[idx] = thread(a.freeList[idx], f)
		a.fresh[idx] = freshRun{}
	}
	for key, f := range a.typedFresh {
		a.typedFree[key] = thread(a.typedFree[key], f)
		delete(a.typedFresh, key)
	}
}

func listIndex(nwords int, atomic bool) (class, words, idx int) {
	class, words = ClassFor(nwords)
	idx = class
	if atomic {
		idx += NumClasses
	}
	return
}

func (a *Allocator) refAlloc(nwords int, atomic bool) (mem.Addr, error) {
	class, words, idx := listIndex(nwords, atomic)
	if a.freeList[idx] == 0 {
		if err := a.refill(class, atomic, idx, false); err != nil {
			return 0, err
		}
		a.refThreadFresh()
	}
	p := a.freeList[idx]
	next, err := a.refPop(p)
	if err != nil {
		return 0, err
	}
	a.freeList[idx] = next
	a.stats.ObjectsAllocated++
	a.stats.BytesAllocated += uint64(words * mem.WordBytes)
	a.stats.BytesSinceGC += uint64(words * mem.WordBytes)
	return p, nil
}

func (a *Allocator) refAllocRun(nwords int, atomic bool, max int, out []mem.Addr) ([]mem.Addr, error) {
	class, _, idx := listIndex(nwords, atomic)
	if a.freeList[idx] == 0 {
		if err := a.refill(class, atomic, idx, false); err != nil {
			return out, err
		}
		a.refThreadFresh()
	}
	for n := 0; n < max && a.freeList[idx] != 0; n++ {
		p := a.freeList[idx]
		next, err := a.refPop(p)
		if err != nil {
			return out, err
		}
		a.freeList[idx] = next
		out = append(out, p)
	}
	return out, nil
}

func (a *Allocator) refReturnRun(nwords int, atomic bool, run []mem.Addr) {
	_, _, idx := listIndex(nwords, atomic)
	for i := len(run) - 1; i >= 0; i-- {
		p := run[i]
		b, slot := a.slotAt(p)
		bitClear(b.allocBits, slot)
		if bitGet(b.markBits, slot) {
			bitClear(b.markBits, slot)
			b.markedCount--
		}
		b.liveSlots--
		a.storeWord(p, mem.Word(a.freeList[idx]))
		a.freeList[idx] = p
	}
}

func (a *Allocator) refAllocTyped(id DescID) (mem.Addr, error) {
	d, err := a.Descriptor(id)
	if err != nil {
		return 0, err
	}
	class, words := ClassFor(d.Words)
	key := typedKey{class: class, desc: id}
	if a.typedFree[key] == 0 {
		if err := a.refillTyped(class, id, key); err != nil {
			return 0, err
		}
		a.refThreadFresh()
	}
	p := a.typedFree[key]
	next, err := a.refPop(p)
	if err != nil {
		return 0, err
	}
	a.typedFree[key] = next
	a.stats.ObjectsAllocated++
	a.stats.BytesAllocated += uint64(words * mem.WordBytes)
	a.stats.BytesSinceGC += uint64(words * mem.WordBytes)
	return p, nil
}

// --- the differential ---

// heapPair is one heap shape built twice: ref is driven through the
// reference model, got through the kernel's callers.
type heapPair struct {
	t        *testing.T
	ref, got *Allocator
	// The allocator's audit walks every list through a map; on the
	// thousand-slot runs it is made every auditEvery-th comparison.
	auditEvery, compared int
	// rFree and gFree are same's buffers for one list's free slots.
	rFree, gFree []mem.Addr
}

// same fails the test unless the two heaps agree on everything a pop,
// carve or return touches: every list's free slots in the order
// allocation takes them (the threaded list, then the fresh run), every
// heap word but those slots' link words (a fresh run has none: its
// slots are zero, which the audit checks), every block's bitmaps and
// counts, and the statistics — and pass the allocator's own audit.
func (h *heapPair) same(step string) {
	h.t.Helper()
	ref, got := h.ref, h.got
	if len(ref.extents) != len(got.extents) || len(ref.blocks) != len(got.blocks) {
		h.t.Fatalf("%s: %d extents/%d blocks, reference has %d/%d", step,
			len(got.extents), len(got.blocks), len(ref.extents), len(ref.blocks))
	}
	sameFree := func(list any, rHead mem.Addr, rFresh freshRun, gHead mem.Addr, gFresh freshRun) {
		h.rFree = ref.freeSlots(h.rFree[:0], rHead, rFresh)
		h.gFree = got.freeSlots(h.gFree[:0], gHead, gFresh)
		if !slices.Equal(h.rFree, h.gFree) {
			h.t.Fatalf("%s: list %v free slots %x, reference %x", step, list, h.gFree, h.rFree)
		}
	}
	for idx := range ref.freeList {
		sameFree(idx, ref.freeList[idx], ref.fresh[idx], got.freeList[idx], got.fresh[idx])
	}
	keys := map[typedKey]bool{}
	for _, a := range []*Allocator{ref, got} {
		for k := range a.typedFree {
			keys[k] = true
		}
		for k := range a.typedFresh {
			keys[k] = true
		}
	}
	for k := range keys {
		sameFree(k, ref.typedFree[k], ref.typedFresh[k], got.typedFree[k], got.typedFresh[k])
	}
	for i := range ref.extents {
		rw, gw := ref.extents[i].seg.Words(), got.extents[i].seg.Words()
		for pg := 0; pg < len(rw); pg += mem.PageWords {
			if slices.Equal(rw[pg:pg+mem.PageWords], gw[pg:pg+mem.PageWords]) {
				continue
			}
			for j := pg; j < pg+mem.PageWords; j++ {
				p := ref.extents[i].seg.Base() + mem.Addr(j*mem.WordBytes)
				if rw[j] != gw[j] && !got.linkWord(p) {
					h.t.Fatalf("%s: extent %d word %d (address %#x) is %#x, reference %#x", step, i, j,
						uint32(p), gw[j], rw[j])
				}
			}
		}
	}
	for bi := range ref.blocks {
		r, g := &ref.blocks[bi], &got.blocks[bi]
		if r.state != g.state || r.liveSlots != g.liveSlots || r.markedCount != g.markedCount ||
			!slices.Equal(r.allocBits, g.allocBits) || !slices.Equal(r.markBits, g.markBits) {
			h.t.Fatalf("%s: block %d: state %d live %d marked %d alloc %x mark %x, reference %d %d %d %x %x", step, bi,
				g.state, g.liveSlots, g.markedCount, g.allocBits, g.markBits,
				r.state, r.liveSlots, r.markedCount, r.allocBits, r.markBits)
		}
	}
	if ref.stats != got.stats {
		h.t.Fatalf("%s: stats %+v, reference %+v", step, got.stats, ref.stats)
	}
	// The heaps are equal, so one audit speaks for both.
	if h.compared++; h.compared%h.auditEvery == 0 {
		if err := got.CheckIntegrity(nil); err != nil {
			h.t.Fatalf("%s: %v", step, err)
		}
	}
}

// linkWord reports whether p is the first word of a free small-object
// slot: a link word on a list, or a fresh-run slot's zero where a
// threaded list has one.
func (a *Allocator) linkWord(p mem.Addr) bool {
	if !a.InCommitted(p) {
		return false
	}
	b := &a.blocks[a.blockIndex(p)]
	if b.state != blockSmall || pageWordOff(p)%int(b.objWords) != 0 {
		return false
	}
	slot := slotOfWord(pageWordOff(p), int(b.objWords))
	return slot < int(b.slots) && !bitGet(b.allocBits, slot)
}

// freeSlots appends to out the free slots of the list headed by head
// with fresh run f, in the order allocation takes them. A list that
// faults, or runs longer than the heap has words, ends there.
func (a *Allocator) freeSlots(out []mem.Addr, head mem.Addr, f freshRun) []mem.Addr {
	for p := head; p != 0 && len(out) <= len(a.blocks)*mem.PageWords; {
		out = append(out, p)
		next, err := a.loadWord(p)
		if err != nil {
			break
		}
		p = mem.Addr(next)
	}
	if f.slot < f.end {
		words := int(a.blocks[f.bi].objWords)
		for slot := int(f.slot); slot < int(f.end); slot++ {
			out = append(out, slotAddr(a.blockBase(int(f.bi)), slot, words))
		}
	}
	return out
}

// retry runs op on one heap, expanding on ErrNeedMemory as a collector
// out of garbage would.
func retry[T any](t *testing.T, a *Allocator, op func() (T, error)) T {
	t.Helper()
	v, err := op()
	if err == ErrNeedMemory {
		if err := a.Expand(mem.PageBytes); err != nil {
			t.Fatalf("expand: %v", err)
		}
		v, err = op()
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sameAddrs fails unless the two sides returned the same addresses.
func (h *heapPair) sameAddrs(step string, ref, got []mem.Addr) {
	h.t.Helper()
	if !slices.Equal(ref, got) {
		h.t.Fatalf("%s: got %x, reference %x", step, got, ref)
	}
}

// A carveShape prepares one heap before the differential runs; it is
// applied to both heaps of a pair. alloc allocates one object of the
// case's kind (typed or not).
type carveShape func(t testing.TB, a *Allocator, alloc func() mem.Addr)

// blocksOf allocates n blocks' worth of objects, returned by block.
func blocksOf(a *Allocator, alloc func() mem.Addr, n int) [][]mem.Addr {
	var out [][]mem.Addr
	for len(out) < n {
		p := alloc()
		if bi := a.blockIndex(p); len(out) == 0 || a.blockIndex(out[len(out)-1][0]) != bi {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], p)
	}
	// The last block holds one object; fill it like the others.
	for last := &out[n-1]; len(*last) < len(out[0]); {
		*last = append(*last, alloc())
	}
	return out
}

var carveShapes = map[string]carveShape{
	// Nothing allocated: every list is empty and the first pop dedicates.
	"fresh": func(testing.TB, *Allocator, func() mem.Addr) {},
	// Three blocks swept with every third object surviving: the sweep
	// threads each block's dead slots together, block after block.
	"swept": func(_ testing.TB, a *Allocator, alloc func() mem.Addr) {
		n := 0
		for _, blk := range blocksOf(a, alloc, 3) {
			for _, p := range blk {
				if n++; n%3 == 0 {
					a.Mark(p)
				}
			}
		}
		a.Sweep()
	},
	// Explicit frees taken from three blocks in turn: every link of the
	// list leaves the block the one before it was in.
	"hopping": func(t testing.TB, a *Allocator, alloc func() mem.Addr) {
		blks := blocksOf(a, alloc, 3)
		for i := 0; i < len(blks[0]); i += 2 {
			for _, blk := range blks {
				if err := a.Free(blk[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	},
}

type carveCase struct {
	name   string
	cfg    Config
	nwords int
	atomic bool
	typed  []bool // non-nil: the lists are this layout's typed lists
	shape  string
}

// smallExtents is a heap that grows by mapping two-page extents.
var smallExtents = Config{
	InitialBytes: 2 * mem.PageBytes, ReserveBytes: 2 * mem.PageBytes,
	ExpandIncrement: mem.PageBytes, DiscontiguousGrowth: true,
	ExtentGapBytes: 1 << 20, ExtentReserveBytes: 2 * mem.PageBytes,
}

var carveCases = []carveCase{
	{name: "fresh", nwords: 8, shape: "fresh"},
	{name: "fresh-atomic", nwords: 3, atomic: true, shape: "fresh"},
	{name: "swept", nwords: 8, shape: "swept"},
	{name: "swept-lazy", cfg: Config{LazySweep: true}, nwords: 8, shape: "swept"},
	{name: "swept-big", nwords: 170, shape: "swept"},
	{name: "hopping", nwords: 16, shape: "hopping"},
	{name: "hopping-extents", cfg: smallExtents, nwords: 16, shape: "hopping"},
	{name: "swept-extents", cfg: smallExtents, nwords: 5, shape: "swept"},
	{name: "skip-boundary-1", cfg: Config{SkipPageBoundarySlot: true}, nwords: 1, shape: "swept"},
	{name: "skip-boundary-2", cfg: Config{SkipPageBoundarySlot: true}, nwords: 2, shape: "hopping"},
	// Pointer-free ("atomic") objects have lists of their own.
	{name: "atomic-words", nwords: 4, atomic: true, shape: "swept"},
	{name: "atomic-words-hopping", nwords: 4, atomic: true, shape: "hopping"},
	{name: "typed-fresh", typed: []bool{true, false, true}, shape: "fresh"},
	{name: "typed-swept", typed: []bool{true, false, true, false, false, true}, shape: "swept"},
	{name: "typed-hopping", cfg: smallExtents, typed: []bool{false, true}, shape: "hopping"},
}

// newPair builds the case's heap twice and shapes both alike.
func (tc carveCase) newPair(t *testing.T) (*heapPair, DescID) {
	cfg := tc.cfg
	if cfg.InitialBytes == 0 {
		cfg.InitialBytes, cfg.ReserveBytes = 8*mem.PageBytes, 64*mem.PageBytes
	}
	h := &heapPair{t: t, auditEvery: 1}
	var id DescID
	for _, ap := range []**Allocator{&h.ref, &h.got} {
		_, a := newTestAllocator(t, cfg)
		*ap = a
		alloc := func() mem.Addr {
			return retry(t, a, func() (mem.Addr, error) { return a.Alloc(tc.nwords, tc.atomic) })
		}
		if tc.typed != nil {
			var err error
			if id, err = a.RegisterDescriptor(tc.typed); err != nil {
				t.Fatal(err)
			}
			alloc = func() mem.Addr {
				return retry(t, a, func() (mem.Addr, error) { return a.AllocTyped(id) })
			}
		}
		carveShapes[tc.shape](t, a, alloc)
	}
	h.ref.refThreadFresh()
	h.same("shaped")
	return h, id
}

// TestCarveDifferential drives the reference model's per-slot pop and
// the kernel over the same heaps — fresh, swept, hopping between
// blocks and between extents, with the page-boundary slot skipped,
// typed lists, pointer-free lists — and compares addresses, free
// slots, links, bitmaps and counts after every step. Untyped lists are
// carved in runs of each max, every tail length of a run is returned
// and carved again, then single pops; typed lists, which have no run
// entry point, are popped singly. The untyped lists are carved twice
// over: through AllocRun and ReturnRun, and through the mutator's
// AllocBatch, whose fresh-run carves are spans given back with
// ReturnSpan — checked against as many per-object pops — and which also
// gives back two carves in the order they were made, so that the first
// cannot rewind the fresh run and is pushed.
func TestCarveDifferential(t *testing.T) {
	for _, tc := range carveCases {
		for _, max := range []int{1, 7, 32, 1000} {
			t.Run(fmt.Sprintf("%s/max=%d", tc.name, max), func(t *testing.T) {
				if tc.typed != nil {
					h, id := tc.newPair(t)
					for i := 0; i < max; i++ {
						r := retry(t, h.ref, func() (mem.Addr, error) { return h.ref.refAllocTyped(id) })
						g := retry(t, h.got, func() (mem.Addr, error) { return h.got.AllocTyped(id) })
						step := fmt.Sprintf("typed pop %d", i)
						h.sameAddrs(step, []mem.Addr{r}, []mem.Addr{g})
						h.same(step)
					}
					return
				}
				for _, batch := range []bool{false, true} {
					h, _ := tc.newPair(t)
					if max > 64 {
						h.auditEvery = 16
					}
					h.carveDifferential(tc, max, batch)
				}
			})
		}
	}
}

// carveDifferential is TestCarveDifferential's untyped body, on one
// pair: carves of up to max slots through AllocRun, or (batch) through
// AllocBatch, against the reference model's per-slot pops.
func (h *heapPair) carveDifferential(tc carveCase, max int, batch bool) {
	t := h.t
	_, words := ClassFor(tc.nwords)
	stride := mem.Addr(words * mem.WordBytes)
	type carved struct {
		ref, got []mem.Addr
		span     bool // got is a span's slots, given back with ReturnSpan
	}
	carve := func(step string) carved {
		var c carved
		if batch {
			b := retry(t, h.got, func() (carved, error) {
				run, s, err := h.got.AllocBatch(tc.nwords, tc.atomic, max, nil)
				for p := s.Cursor; p < s.Limit; p += stride {
					run = append(run, p)
				}
				return carved{got: run, span: s.Cursor < s.Limit}, err
			})
			c.got, c.span = b.got, b.span
			c.ref = retry(t, h.ref, func() ([]mem.Addr, error) { return h.ref.refAllocRun(tc.nwords, tc.atomic, len(c.got), nil) })
		} else {
			c.ref = retry(t, h.ref, func() ([]mem.Addr, error) { return h.ref.refAllocRun(tc.nwords, tc.atomic, max, nil) })
			c.got = retry(t, h.got, func() ([]mem.Addr, error) { return h.got.AllocRun(tc.nwords, tc.atomic, max, nil) })
		}
		h.sameAddrs(step, c.ref, c.got)
		h.same(step)
		return c
	}
	// giveBack returns c's slots [lo, hi).
	giveBack := func(step string, c carved, lo, hi int) {
		h.ref.refReturnRun(tc.nwords, tc.atomic, c.ref[lo:hi])
		if c.span && lo < hi {
			h.got.ReturnSpan(c.got[lo], c.got[hi-1]+stride)
		} else {
			h.got.ReturnRun(tc.nwords, tc.atomic, c.got[lo:hi])
		}
		h.same(step)
	}
	// Two rounds: the second carves what the first left of a list that
	// crosses blocks. Every tail length is returned through AllocRun's
	// path; AllocBatch's, which differs only in how a list carve ends and
	// how a span goes back, takes lengths that grow by a quarter.
	next := func(k int) int { return k + 1 }
	if batch {
		next = func(k int) int { return k + 1 + k/4 }
	}
	for round := 0; round < 2; round++ {
		c := carve("carve")
		for k := 0; k <= len(c.ref); k = next(k) {
			n := len(c.ref)
			giveBack(fmt.Sprintf("round %d: return tail %d of %d", round, k, n), c, n-k, n)
			c2 := carve(fmt.Sprintf("round %d: carve after returning %d", round, k))
			giveBack("return the second carve", c2, 0, len(c2.ref))
			giveBack("return the head", c, 0, n-k)
			// The list is as it was, plus any block the second carve
			// dedicated: this run is no shorter.
			c = carve(fmt.Sprintf("round %d: carve again", round))
		}
	}
	if batch {
		x := carve("carve x")
		y := carve("carve y")
		giveBack("return x, carved before y", x, 0, len(x.ref))
		giveBack("return y", y, 0, len(y.ref))
		z := carve("carve after returning x and y")
		giveBack("return it", z, 0, len(z.ref))
	}
	for i := 0; i < min(max, 64); i++ {
		r := retry(t, h.ref, func() (mem.Addr, error) { return h.ref.refAlloc(tc.nwords, tc.atomic) })
		g := retry(t, h.got, func() (mem.Addr, error) { return h.got.Alloc(tc.nwords, tc.atomic) })
		step := fmt.Sprintf("single pop %d", i)
		h.sameAddrs(step, []mem.Addr{r}, []mem.Addr{g})
		h.same(step)
	}
}

// popSingly calls pop up to n times, stopping at the first error.
func popSingly(n int, pop func() (mem.Addr, error)) (out []mem.Addr, err error) {
	for len(out) < n {
		p, err := pop()
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// TestCorruptFreeListLinks plants a bad link three slots down a swept
// list — or write-protects the heap — and pops through each entry
// point: the
// error is of the class the per-slot sequence raised, the slots before
// the fault are carved and nothing after it, and the list head is left
// at the faulting link.
func TestCorruptFreeListLinks(t *testing.T) {
	const good = 3 // slots ahead of the planted link
	faults := []struct {
		name string
		// link returns the bad link to plant (0: plant nothing), given
		// the address of the slot that would have come next.
		link     func(a *Allocator, next mem.Addr) mem.Addr
		readOnly bool
		want     []string
	}{
		{name: "outside-heap", link: func(*Allocator, mem.Addr) mem.Addr { return 0x10 },
			want: []string{"corrupt free list", "load outside heap"}},
		{name: "unaligned", link: func(_ *Allocator, next mem.Addr) mem.Addr { return next + 2 },
			want: []string{"corrupt free list", "bad load"}},
		{name: "reserved-uncommitted", link: func(a *Allocator, _ mem.Addr) mem.Addr { return a.Limit() + 64 },
			want: []string{"corrupt free list", "load outside heap"}},
		{name: "not-a-small-block", link: func(a *Allocator, _ mem.Addr) mem.Addr {
			p, err := a.Alloc(MaxSmallWords+1, false)
			if err != nil {
				panic(err)
			}
			return p
		}, want: []string{"corrupt free list", "no small objects"}},
		{name: "read-only", readOnly: true, want: []string{"read-only"}},
	}
	entries := []struct {
		name string
		// pop pops up to n slots, stopping at the first error.
		pop func(a *Allocator, id DescID, n int) ([]mem.Addr, error)
	}{
		{"AllocRun", func(a *Allocator, _ DescID, n int) ([]mem.Addr, error) { return a.AllocRun(8, false, n, nil) }},
		{"AllocBatch", func(a *Allocator, _ DescID, n int) ([]mem.Addr, error) {
			run, s, err := a.AllocBatch(8, false, n, nil)
			for p := s.Cursor; p < s.Limit; p += mem.Addr(s.Words * mem.WordBytes) {
				run = append(run, p)
			}
			return run, err
		}},
		{"Alloc", func(a *Allocator, _ DescID, n int) ([]mem.Addr, error) {
			return popSingly(n, func() (mem.Addr, error) { return a.Alloc(8, false) })
		}},
		{"AllocTyped", func(a *Allocator, id DescID, n int) ([]mem.Addr, error) {
			return popSingly(n, func() (mem.Addr, error) { return a.AllocTyped(id) })
		}},
	}
	for _, f := range faults {
		for _, e := range entries {
			t.Run(f.name+"/"+e.name, func(t *testing.T) {
				_, a := newTestAllocator(t, Config{})
				id, err := a.RegisterDescriptor(make([]bool, 8))
				if err != nil {
					t.Fatal(err)
				}
				head := func() mem.Addr {
					if e.name == "AllocTyped" {
						return a.typedFree[typedKey{class: int(classOf[8]), desc: id}]
					}
					return a.freeList[classOf[8]]
				}
				// The faults are planted in a swept list: two pops carve a
				// fresh block's first slots, and with the first marked the
				// sweep threads the block's other slots onto the list.
				first, err := e.pop(a, id, 2)
				if err != nil {
					t.Fatal(err)
				}
				a.Mark(first[0])
				a.Sweep()
				slots := []mem.Addr{head()}
				for len(slots) <= good {
					next, err := a.loadWord(slots[len(slots)-1])
					if err != nil {
						t.Fatal(err)
					}
					slots = append(slots, mem.Addr(next))
				}
				wantHead, wantCarved := slots[0], 0
				if f.link != nil {
					wantHead, wantCarved = f.link(a, slots[good]), good
					if err := a.storeWord(slots[good-1], mem.Word(wantHead)); err != nil {
						t.Fatal(err)
					}
				}
				if f.readOnly {
					a.Seg().SetWritable(false)
				}
				b := &a.blocks[a.blockIndex(slots[0])]
				live := b.liveSlots

				out, err := e.pop(a, id, 32)
				if err == nil {
					t.Fatalf("popped %d slots through the fault", len(out))
				}
				for _, w := range f.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error %q does not mention %q", err, w)
					}
				}
				if !slices.Equal(out, slots[:wantCarved]) {
					t.Errorf("carved %x, want %x", out, slots[:wantCarved])
				}
				if head() != wantHead {
					t.Errorf("list head %#x, want it at the faulting link %#x", uint32(head()), uint32(wantHead))
				}
				if int(b.liveSlots-live) != wantCarved {
					t.Errorf("liveSlots rose by %d, want %d", b.liveSlots-live, wantCarved)
				}
				// The slot past the fault is untouched: still linked, still free.
				past := slots[wantCarved]
				if _, slot := a.slotAt(past); bitGet(b.allocBits, slot) {
					t.Errorf("slot %#x past the fault has its alloc bit set", uint32(past))
				}
				if v, _ := a.loadWord(past); v == 0 {
					t.Errorf("slot %#x past the fault lost its link", uint32(past))
				}
			})
		}
	}
}

// TestAllocRunZeroAlloc pins the refill carve at no Go-heap allocation
// when the caller's buffer has room, on a list that stays in one block,
// on one that leaves it at every link, and on a fresh run.
func TestAllocRunZeroAlloc(t *testing.T) {
	for _, shape := range []string{"swept", "hopping", "fresh"} {
		t.Run(shape, func(t *testing.T) {
			_, a := newTestAllocator(t, Config{})
			carveShapes[shape](t, a, func() mem.Addr { return mustAlloc(t, a, 8, false) })
			buf := make([]mem.Addr, 0, 32)
			if n := testing.AllocsPerRun(100, func() {
				run, err := a.AllocRun(8, false, cap(buf), buf[:0])
				if err != nil || len(run) != cap(buf) {
					t.Fatalf("carved %d slots: %v", len(run), err)
				}
				a.ReturnRun(8, false, run)
			}); n != 0 {
				t.Errorf("AllocRun+ReturnRun allocate %v times per call", n)
			}
		})
	}
}

// TestFreshSpanReturnZeroAlloc pins both ways a fresh-run span goes
// back at no Go-heap allocation: pushed onto the list, when a later
// carve was made off the run, and rewinding the run otherwise. Each
// round carves two spans, gives back the first (pushed), carves it
// again off the list as a run, then gives back the second span and the
// run (both rewind), leaving the heap as it found it.
func TestFreshSpanReturnZeroAlloc(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	buf := make([]mem.Addr, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		_, x, err := a.AllocBatch(8, false, cap(buf), buf[:0])
		if err != nil || x.Cursor == x.Limit {
			t.Fatalf("first carve: span %+v: %v", x, err)
		}
		_, y, err := a.AllocBatch(8, false, cap(buf), buf[:0])
		if err != nil || y.Cursor != x.Limit {
			t.Fatalf("second carve: span %+v after %+v: %v", y, x, err)
		}
		a.ReturnSpan(x.Cursor, x.Limit)
		run, s, err := a.AllocBatch(8, false, cap(buf), buf[:0])
		if err != nil || len(run) != cap(buf) || run[0] != x.Cursor || s.Cursor != s.Limit {
			t.Fatalf("carved %x and %+v after the push: %v", run, s, err)
		}
		a.ReturnSpan(y.Cursor, y.Limit)
		a.ReturnRun(8, false, run)
		if a.freeList[classOf[8]] != 0 || a.fresh[classOf[8]].next != x.Cursor {
			t.Fatalf("returns left list head %#x, fresh run at %#x; want the run at %#x",
				a.freeList[classOf[8]], a.fresh[classOf[8]].next, x.Cursor)
		}
	}); n != 0 {
		t.Errorf("span carves and returns allocate %v times per round", n)
	}
}

// BenchmarkAllocRun is the refill rung: one 32-slot carve and its
// return per iteration, reported per slot. sameblock carves a swept
// list, which stays in a block for as long as the block has free slots
// (one lookup per run); hopping carves a list that alternates between
// three blocks on every link — a lookup per slot, the kernel's worst
// case and the per-slot cost of the sequence it replaced; fresh carves
// a block the first carve dedicated, which most refills carve (its
// return rewinds the fresh run).
func BenchmarkAllocRun(b *testing.B) {
	for _, bc := range []struct{ name, shape string }{{"sameblock", "swept"}, {"hopping", "hopping"}, {"fresh", "fresh"}} {
		b.Run(bc.name, func(b *testing.B) {
			a, err := New(mem.NewAddressSpace(), Config{HeapBase: testHeapBase, InitialBytes: 64 * mem.PageBytes, ReserveBytes: 64 * mem.PageBytes})
			if err != nil {
				b.Fatal(err)
			}
			carveShapes[bc.shape](b, a, func() mem.Addr {
				p, err := a.Alloc(8, false)
				if err != nil {
					b.Fatal(err)
				}
				return p
			})
			buf := make([]mem.Addr, 0, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run, err := a.AllocRun(8, false, cap(buf), buf[:0])
				if err != nil || len(run) != cap(buf) {
					b.Fatalf("carved %d slots: %v", len(run), err)
				}
				a.ReturnRun(8, false, run)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cap(buf)), "ns/slot")
		})
	}
}

// BenchmarkLineRefill is the line heap's refill rung, what a budgeted
// tenant handle's refill holds the world lock for: carve a span from a
// lazily swept mixed line block, tag it, consume half and give back the
// untagged tail, reported per carved slot. The block holds 8-word
// slots, 8 to a line, with one live object in each of lines 0, 4, 8
// and 12; every round's collection kills the consumed half, so the
// next carve's demand sweep zeroes a run of dead slots, and its tag
// displaces their stale records, before it re-carves lines 1–3.
func BenchmarkLineRefill(b *testing.B) {
	a, err := New(mem.NewAddressSpace(), Config{HeapBase: testHeapBase, InitialBytes: 4 * mem.PageBytes,
		ReserveBytes: 4 * mem.PageBytes, LineAlloc: true, LazySweep: true})
	if err != nil {
		b.Fatal(err)
	}
	s, err := a.AllocSpan(8, false)
	if err != nil {
		b.Fatal(err)
	}
	step := mem.Addr(8 * mem.WordBytes)
	var live []mem.Addr
	for l := 0; l < LinesPerBlock; l += 4 {
		live = append(live, s.Cursor+mem.Addr(l*LineWords*mem.WordBytes))
	}
	collect := func() {
		for _, p := range live {
			a.Mark(p)
		}
		a.Sweep()
	}
	collect()
	const carved = 3 * LineWords / 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := a.AllocSpan(8, false)
		if err != nil || sp.slots(8) != carved {
			b.Fatalf("carved %d slots: %v", sp.slots(8), err)
		}
		a.TagOwnerSpan(sp.Cursor, sp.Limit, 1)
		tail := sp.Cursor + carved/2*step
		a.UntagOwnerSpan(tail, sp.Limit)
		a.ReturnSpan(tail, sp.Limit)
		collect()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*carved), "ns/slot")
}

// TestCheckIntegrityFreshRun pins the audit's view of a fresh run: its
// slots count as free (a heap with a half-carved fresh block passes),
// and a run slot that is written, allocated or also on a list fails.
func TestCheckIntegrityFreshRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(a *Allocator, f freshRun, p mem.Addr)
		want    string
	}{
		{"sound", func(*Allocator, freshRun, mem.Addr) {}, ""},
		{"written", func(a *Allocator, _ freshRun, p mem.Addr) { a.storeWord(p+mem.WordBytes, 1) }, "not zeroed"},
		{"allocated", func(a *Allocator, f freshRun, _ mem.Addr) {
			b := &a.blocks[f.bi]
			bitSet(b.allocBits, int(f.slot))
			b.liveSlots++
		}, "alloc bit set"},
		{"listed", func(a *Allocator, _ freshRun, p mem.Addr) {
			idx := listIdx(int(classOf[8]), false)
			a.freeList[idx] = p
		}, "already accounted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, a := newTestAllocator(t, Config{})
			mustAlloc(t, a, 8, false)
			f := a.fresh[listIdx(int(classOf[8]), false)]
			if f.slot != 1 || f.end <= f.slot {
				t.Fatalf("fresh run %+v after one allocation", f)
			}
			tc.corrupt(a, f, f.next)
			err := a.CheckIntegrity(nil)
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("audit: %v, want %q", err, tc.want)
			}
		})
	}
}
