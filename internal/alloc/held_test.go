package alloc

import (
	"math/bits"
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

// TestMarkHeldMatchesPerSlotMark drives the held markers against Mark,
// one slot at a time, on twin heaps: spans from fresh blocks and from
// the middle of a swept block, whole and with their head consumed, so
// that they start and end inside bitmap words and cross words and
// lines; runs that cross blocks and runs that skip live slots. Marking
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
			a, b := twinAllocators(t, lineCfg(), func(x *Allocator) {
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

	// A span over lines 5..9 of a swept block of 4-word objects: slots
	// 80..159, across bitmap words 1 and 2, between live slots.
	var mid Span
	a, b := twinAllocators(t, lineCfg(), func(x *Allocator) {
		var objs []mem.Addr
		for i := 0; i < mem.PageWords/4; i++ {
			objs = append(objs, mustAlloc(t, x, 4, false))
		}
		x.FlushSpans()
		for i, p := range objs {
			if line := i * 4 / LineWords; line < 5 || line > 9 {
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
	if got := mid.slots(4); got != 5*LineWords/4 {
		t.Fatalf("the swept block's span holds %d slots, want %d", got, 5*LineWords/4)
	}
	check("mid-block span", a, b, func(on bool) { a.MarkHeldSpan(mid.Cursor, mid.Limit, on) }, spanAddrs(mid))

	// Runs carved from swept free lists that thread three blocks: 16-word
	// slots with every tenth one live, 2-word slots with every third one
	// live — across blocks, bitmap words and the live slots between.
	for _, c := range []struct{ words, every int }{{16, 10}, {2, 3}} {
		var run []mem.Addr
		a, b := twinAllocators(t, Config{}, func(x *Allocator) {
			var objs []mem.Addr
			for i := 0; i < 3*mem.PageWords/c.words; i++ {
				objs = append(objs, mustAlloc(t, x, c.words, false))
			}
			for i, p := range objs {
				if i%c.every == 0 {
					x.Mark(p)
				}
			}
			x.Sweep()
			r, err := x.AllocRun(c.words, false, 3*mem.PageWords, nil)
			if err != nil {
				t.Fatal(err)
			}
			run = r
		})
		if a.blockIndex(run[len(run)-1]) == a.blockIndex(run[0]) {
			t.Fatalf("the %d-word run stayed in one block", c.words)
		}
		check("gapped run", a, b, func(on bool) { a.MarkHeldRun(run, on) }, run)
	}
}

// TestHeldSlotsInPendingBlocks pins the allocator's half of the held-slot
// rules on a lazily swept heap, where a collection leaves a block that
// holds a cache's marked slots pending: the audit accepts a marked
// cached slot there and refuses an unmarked one; clearing held marks
// sweeps the block first, so the deferred sweep cannot free them; and a
// run or span returned into the block sweeps it first, so the deferred
// sweep cannot thread or clear them a second time.
func TestHeldSlotsInPendingBlocks(t *testing.T) {
	type heldCase struct {
		name string
		cfg  Config
		// carve marks some live objects and returns the held slots, in a
		// block of 4-word objects that the sweep will leave pending.
		carve func(a *Allocator) []mem.Addr
		mark  func(a *Allocator, held []mem.Addr, on bool)
		give  func(a *Allocator, held []mem.Addr)
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
			mark: func(a *Allocator, held []mem.Addr, on bool) { a.MarkHeldRun(held, on) },
			give: func(a *Allocator, held []mem.Addr) { a.ReturnRun(4, false, held) },
		},
		{
			name: "span",
			cfg:  Config{LazySweep: true, LineAlloc: true},
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
			mark: func(a *Allocator, held []mem.Addr, on bool) {
				a.MarkHeldSpan(held[0], held[len(held)-1]+4*mem.WordBytes, on)
			},
			give: func(a *Allocator, held []mem.Addr) {
				a.ReturnSpan(held[0], held[len(held)-1]+4*mem.WordBytes)
			},
		},
	}
	// setUp leaves the held slots' block pending after a collection that
	// marked them.
	setUp := func(c heldCase) (*Allocator, []mem.Addr, int) {
		_, a := newTestAllocator(t, c.cfg)
		held := c.carve(a)
		c.mark(a, held, true)
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
		c.mark(a, held, false)
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
		c.give(a, held)
		a.FinishSweep()
		if err := a.CheckIntegrity(nil); err != nil {
			t.Fatalf("%s: returned into a pending block: %v", c.name, err)
		}
	}
}

// TestLineLiveOfMatchesPerSlot checks the range-test line mask against
// its definition — the lines overlapped by each allocated slot, one slot
// at a time — on random bitmaps of every size class.
func TestLineLiveOfMatchesPerSlot(t *testing.T) {
	_, a := newTestAllocator(t, lineCfg())
	rng := simrand.New(7)
	for class, words := range classWords {
		a.newSmallBlock(0, class, words, descConservative)
		b := &a.blocks[0]
		n := slotsPerBlock(words)
		for trial := 0; trial < 200; trial++ {
			for wi := range b.allocBits {
				b.allocBits[wi] = 0
			}
			density := rng.Intn(4)
			for s := a.firstSlot(words); s < n; s++ {
				if rng.Intn(8) < density {
					bitSet(b.allocBits, s)
				}
			}
			var want uint16
			for wi, bw := range b.allocBits {
				for ; bw != 0; bw &= bw - 1 {
					s := wi<<6 + bits.TrailingZeros64(bw)
					want |= slotLines(s, s+1, words)
				}
			}
			if got := a.lineLiveOf(0); got != want {
				t.Fatalf("%d-word class, trial %d: lineLiveOf = %#x, per slot %#x", words, trial, got, want)
			}
		}
	}
}
