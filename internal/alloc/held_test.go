package alloc

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// twinAllocators builds two allocators by the same steps, so that the
// held markers can run on one and per-slot Mark on the other.
func twinAllocators(t *testing.T, cfg Config, build func(a *Allocator)) (*Allocator, *Allocator) {
	t.Helper()
	_, a := newTestAllocator(t, cfg)
	_, b := newTestAllocator(t, cfg)
	build(a)
	build(b)
	return a, b
}

// sameMarks fails unless every block of a and b carries the same mark
// bits and mark summary.
func sameMarks(t *testing.T, label string, a, b *Allocator) {
	t.Helper()
	for bi := range a.blocks {
		x, y := &a.blocks[bi], &b.blocks[bi]
		if x.markedCount != y.markedCount {
			t.Fatalf("%s: block %d markedCount %d, per-slot Mark gives %d", label, bi, x.markedCount, y.markedCount)
		}
		for wi := range x.markBits {
			if x.markBits[wi] != y.markBits[wi] {
				t.Fatalf("%s: block %d mark word %d = %#x, per-slot Mark gives %#x", label, bi, wi, x.markBits[wi], y.markBits[wi])
			}
		}
	}
}

// TestMarkHeldMatchesPerSlotMark drives the held marker against Mark,
// one slot at a time, on twin heaps: spans from fresh blocks and from
// the middle of a swept block, whole and with their head consumed, so
// that they start and end inside bitmap words and cross words. Marking
// must set the same bits and the same mark summary, and clearing must
// take both back.
func TestMarkHeldMatchesPerSlotMark(t *testing.T) {
	check := func(label string, a, b *Allocator, markA func(on bool), held []mem.Addr) {
		t.Helper()
		before := a.blocks[a.blockIndex(held[0])].markedCount
		markA(true)
		for _, p := range held {
			b.Mark(p)
		}
		sameMarks(t, label, a, b)
		markA(false)
		for _, p := range held {
			if a.Marked(p) {
				t.Fatalf("%s: %#x still marked after clearing", label, uint32(p))
			}
		}
		if got := a.blocks[a.blockIndex(held[0])].markedCount; got != before {
			t.Fatalf("%s: markedCount %d after clearing, %d before", label, got, before)
		}
		if err := a.CheckIntegrity(held); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	for _, words := range []int{1, 3, 5, 12, 24, 64, 170} {
		for _, skip := range []int{0, 1, 7} {
			var s Span
			a, b := twinAllocators(t, Config{}, func(x *Allocator) {
				sp, err := x.AllocSpan(words, false)
				if err != nil {
					t.Fatal(err)
				}
				s = sp
			})
			step := mem.Addr(words * mem.WordBytes)
			cursor := min(s.Cursor+mem.Addr(skip)*step, s.Limit-step)
			held := spanAddrs(Span{Cursor: cursor, Limit: s.Limit, Words: words})
			check("fresh span", a, b, func(on bool) { a.MarkHeldSpan(cursor, s.Limit, on) }, held)
		}
	}

	// The hole of a swept block of 4-word objects where slots 80..159
	// died: across bitmap words 1 and 2, between live slots.
	var mid Span
	a, b := twinAllocators(t, Config{}, func(x *Allocator) {
		var objs []mem.Addr
		for i := 0; i < mem.PageWords/4; i++ {
			objs = append(objs, mustAlloc(t, x, 4, false))
		}
		for i, p := range objs {
			if i < 80 || i >= 160 {
				x.Mark(p)
			}
		}
		x.Sweep()
		sp, err := x.AllocSpan(4, false)
		if err != nil {
			t.Fatal(err)
		}
		mid = sp
	})
	if got := mid.slots(4); got != 80 {
		t.Fatalf("the swept block's hole holds %d slots, want 80", got)
	}
	check("mid-block span", a, b, func(on bool) { a.MarkHeldSpan(mid.Cursor, mid.Limit, on) }, spanAddrs(mid))
}

// TestHeldSlotsInPendingBlocks pins the allocator's half of the held-slot
// rules on a lazily swept heap, where a collection leaves a block that
// holds a cache's marked slots pending: the audit accepts a marked
// cached slot there and refuses an unmarked one; clearing held marks
// sweeps the block first, so the deferred sweep cannot free them; and a
// span returned into the block sweeps it first, so the deferred sweep
// cannot clear them a second time. The held slots are a capped carve
// (AllocRun) and a whole hole that shares its block with objects.
func TestHeldSlotsInPendingBlocks(t *testing.T) {
	type heldCase struct {
		name string
		cfg  Config
		// carve marks some live objects and returns the held slots, in a
		// block of 4-word objects that the sweep will leave pending.
		carve func(a *Allocator) []mem.Addr
	}
	cases := []heldCase{
		{
			name: "run",
			cfg:  Config{LazySweep: true},
			carve: func(a *Allocator) []mem.Addr {
				a.Mark(mustAlloc(t, a, 4, false))
				r, err := a.AllocRun(4, false, 32, nil)
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
		},
		{
			name: "span",
			cfg:  Config{LazySweep: true},
			carve: func(a *Allocator) []mem.Addr {
				// Consume the first half of a fresh block's span, return
				// the second half and carve it again: a span that shares
				// its block with objects, every other one live.
				s, err := a.AllocSpan(4, false)
				if err != nil {
					t.Fatal(err)
				}
				half := s.Cursor + (s.Limit-s.Cursor)/2
				a.ReturnSpan(half, s.Limit)
				for p := s.Cursor; p < half; p += 8 * mem.WordBytes {
					a.Mark(p)
				}
				if s, err = a.AllocSpan(4, false); err != nil || s.Cursor != half {
					t.Fatalf("re-carve = %+v, %v", s, err)
				}
				return spanAddrs(s)
			},
		},
	}
	// The held slots are one span.
	mark := func(a *Allocator, held []mem.Addr, on bool) {
		a.MarkHeldSpan(held[0], held[len(held)-1]+4*mem.WordBytes, on)
	}
	give := func(a *Allocator, held []mem.Addr) { a.ReturnSpan(held[0], held[len(held)-1]+4*mem.WordBytes) }
	// setUp leaves the held slots' block pending after a collection that
	// marked them.
	setUp := func(c heldCase) (*Allocator, []mem.Addr, int) {
		_, a := newTestAllocator(t, c.cfg)
		held := c.carve(a)
		mark(a, held, true)
		a.Sweep()
		bi := a.blockIndex(held[0])
		if !a.blocks[bi].pendingSweep {
			t.Fatalf("%s: the held slots' block is not pending after a lazy sweep", c.name)
		}
		return a, held, bi
	}
	for _, c := range cases {
		a, held, bi := setUp(c)
		if err := a.CheckIntegrity(held); err != nil {
			t.Fatalf("%s: marked held slots in a pending block: %v", c.name, err)
		}
		bitClear(a.blocks[bi].markBits, slotOfWord(pageWordOff(held[0]), 4))
		a.blocks[bi].markedCount--
		if err := a.CheckIntegrity(held); err == nil || !strings.Contains(err.Error(), "unmarked cached slot") {
			t.Fatalf("%s: the audit accepted an unmarked held slot in a pending block: %v", c.name, err)
		}

		a, held, bi = setUp(c)
		mark(a, held, false)
		if a.blocks[bi].pendingSweep {
			t.Fatalf("%s: clearing held marks left the block pending", c.name)
		}
		a.FinishSweep()
		for _, p := range held {
			if !a.IsAllocated(p) || a.Marked(p) {
				t.Fatalf("%s: held slot %#x allocated=%v marked=%v after clearing", c.name, uint32(p), a.IsAllocated(p), a.Marked(p))
			}
		}
		if err := a.CheckIntegrity(held); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}

		a, held, _ = setUp(c)
		give(a, held)
		a.FinishSweep()
		if err := a.CheckIntegrity(nil); err != nil {
			t.Fatalf("%s: returned into a pending block: %v", c.name, err)
		}
	}
}

// TestHoleScanMatchesPerSlot checks the hole finder's word-at-a-time
// scans, nextClear and nextSet, against their definition — the first
// slot at or after lo whose alloc bit is clear, or set, one slot at a
// time — on random bitmaps of every size class and random ranges.
func TestHoleScanMatchesPerSlot(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	rng := simrand.New(7)
	for class, words := range classWords {
		a.newSmallBlock(0, class, words, descConservative)
		b := &a.blocks[0]
		n := slotsPerBlock(words)
		for trial := 0; trial < 200; trial++ {
			clear(b.allocBits)
			density := rng.Intn(9)
			for s := 0; s < n; s++ {
				if rng.Intn(8) < density {
					bitSet(b.allocBits, s)
				}
			}
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			for _, set := range []bool{false, true} {
				want := lo
				for want < hi && bitGet(b.allocBits, want) != set {
					want++
				}
				got := nextClear(b.allocBits, lo, hi)
				if set {
					got = nextSet(b.allocBits, lo, hi)
				}
				if got != want {
					t.Fatalf("%d-word class, trial %d: first slot in [%d, %d) with the bit set=%v is %d, per slot %d",
						words, trial, lo, hi, set, got, want)
				}
			}
		}
	}
}
