package alloc

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// The free-slot kernel: every pop, carve and return of a free slot goes
// through slotBlock or a freshRun.
//
// A free list is a chain of heap addresses that sweeps thread a block's
// slots into, so the next thirty-odd links of a list normally sit in
// the block its head does. The kernel therefore resolves an address once
// per block, not three times per slot: locateSlots finds the extent, the
// block descriptor and the block's words, and pop/push then work on a
// block-local word offset for as long as holds says the list stays on
// the page. Callers re-locate when a link leaves it.
//
// A freshly dedicated block is not threaded at all. It becomes its
// list's fresh run: the slots [slot, end) of that block, zeroed, with
// clear alloc bits — the one hole that needs no bitmap scan and no
// links. Each list is served first and its fresh run second, which is
// the order threading the block onto the empty list gave, so every
// address is the one a threaded list would hand out: a refill dedicates
// a block only when both are empty, nothing but a push ever lands on
// the list above the run, and the sweep barrier drops every run (its
// slots are free by their bits, so the sweep threads or releases them
// as it does any free slot). takeFresh carves the run in O(1) — one
// range-set of alloc bits, one liveSlots add — for the direct path (one
// slot), typed allocation, and a mutator cache's refill, which gets the
// carve as one bump span. A carve given back onto an empty list, when
// nothing was carved after it, rewinds the run (rewindFresh): pushed,
// it would be exactly the list threading gave.
//
// What locateSlots checks is what the per-slot load/store sequence it
// replaced checked, once per block instead of once per slot: the link
// lies in the committed heap, is word-aligned, and its segment accepts
// stores. holds re-checks alignment for every link (an unaligned link
// into the same page is not held, so it is located, and fails there).
// A faulting link is reported before anything about it changes: callers
// leave the list head at it.
type slotBlock struct {
	b    *blockDesc
	hw   *[mem.PageWords]mem.Word
	base mem.Addr // the block's first address
}

// locateSlots resolves free-list link p, of the given size class, to its
// block. The errors are the ones a per-slot Load and Store of p would
// have raised: a link outside the committed heap or unaligned is a
// corrupt list, a read-only segment is the segment's own store error.
func (a *Allocator) locateSlots(p mem.Addr, class int) (slotBlock, error) {
	e := a.extentOfAddr(p)
	if e == nil || !mem.WordAligned(p) {
		_, err := a.loadWord(p)
		return slotBlock{}, fmt.Errorf("alloc: corrupt free list for class %d: %v", class, err)
	}
	if !e.seg.Writable() {
		// Store refuses before it writes; the error text stays mem's.
		return slotBlock{}, e.seg.Store(p, 0)
	}
	bo := int(p-e.seg.Base()) / mem.PageBytes
	b := &a.blocks[e.startBlock+bo]
	if b.state != blockSmall {
		return slotBlock{}, fmt.Errorf("alloc: corrupt free list for class %d: link %#x into block %d, which holds no small objects",
			class, uint32(p), e.startBlock+bo)
	}
	return slotBlock{
		b:    b,
		hw:   (*[mem.PageWords]mem.Word)(e.seg.Words()[bo*mem.PageWords:]),
		base: e.seg.Base() + mem.Addr(bo*mem.PageBytes),
	}, nil
}

// holds reports whether p is a word-aligned address inside the located
// block. It is false for 0, the end of a list: a block's base is a
// nonzero multiple of the page size.
func (s slotBlock) holds(p mem.Addr) bool {
	off := p - s.base
	return off < mem.PageBytes && off%mem.WordBytes == 0
}

// pop takes the free slot at p, which s holds, off its list: the link
// word is zeroed (a carved slot is delivered clean), the alloc bit set
// and the block's live count bumped. It returns the link — the list's
// next head.
func (s slotBlock) pop(p mem.Addr) mem.Addr {
	off := (p - s.base) / mem.WordBytes
	next := mem.Addr(s.hw[off])
	s.hw[off] = 0
	bitSet(s.b.allocBits, int(uint32(off)*s.b.slotRecip>>recipShift))
	s.b.liveSlots++
	return next
}

// push is pop undone: the slot at p, which s holds, goes back on the
// list whose head is head. A returned slot may carry a mark bit —
// born-black allocation marks whole carved runs during a concurrent
// cycle, and a conservative root can mark an outstanding slot mid-cycle
// — which is cleared, or markedCount would overstate the live survey
// the next sweep bases its accounting on.
func (s slotBlock) push(p, head mem.Addr) {
	off := (p - s.base) / mem.WordBytes
	b := s.b
	slot := int(uint32(off) * b.slotRecip >> recipShift)
	bitClear(b.allocBits, slot)
	if bitGet(b.markBits, slot) {
		bitClear(b.markBits, slot)
		b.markedCount--
	}
	b.liveSlots--
	s.hw[off] = mem.Word(head)
}

// freshRun is the untouched tail of the block a list's last refill
// dedicated: slots [slot, end) of block bi, the first at address next,
// all zeroed and with clear alloc bits. The zero value is no run.
type freshRun struct {
	next      mem.Addr
	bi        int32
	slot, end int32
}

// newFreshRun is the run of every usable slot of the fresh block bi.
func (a *Allocator) newFreshRun(bi int) freshRun {
	words := int(a.blocks[bi].objWords)
	first := a.firstSlot(words)
	return freshRun{
		next: slotAddr(a.blockBase(bi), first, words),
		bi:   int32(bi),
		slot: int32(first),
		end:  int32(slotsPerBlock(words)),
	}
}

// takeFresh carves up to max slots off the front of f as one span: the
// slots' alloc bits are set a bitmap word at a time and the block's live
// count bumped, as that many pops would. The slots are already zero. The
// span is empty when f is.
func (a *Allocator) takeFresh(f *freshRun, max int) Span {
	n := min(int32(max), f.end-f.slot)
	if n <= 0 {
		return Span{}
	}
	b := &a.blocks[f.bi]
	words := int(b.objWords)
	bitRange(b.allocBits, int(f.slot), int(f.slot+n), true)
	b.liveSlots += int16(n)
	s := Span{Cursor: f.next, Limit: f.next + mem.Addr(int(n)*words*mem.WordBytes), Words: words}
	f.next = s.Limit
	f.slot += n
	return s
}

// freshTail returns how many slots at the end of run are the ones last
// carved off f — contiguous, in address order, ending where f now
// starts — and so can rewind it.
func (a *Allocator) freshTail(f *freshRun, run []mem.Addr) int {
	if f.end == 0 {
		return 0
	}
	b := &a.blocks[f.bi]
	stride := mem.Addr(int(b.objWords) * mem.WordBytes)
	first := int32(a.firstSlot(int(b.objWords)))
	n := int32(0)
	for p := f.next; n < int32(len(run)) && f.slot-n > first && run[len(run)-1-int(n)] == p-stride; p -= stride {
		n++
	}
	return int(n)
}

// rewindFresh gives the slots from cursor up to f's start back to f,
// which cursor must lie in: what takeFresh did to them is undone, and a
// mark bit a slot picked up while carved is dropped with it (see push).
func (a *Allocator) rewindFresh(f *freshRun, cursor mem.Addr) {
	b := &a.blocks[f.bi]
	lo := int32(slotOfWord(pageWordOff(cursor), int(b.objWords)))
	bitRange(b.allocBits, int(lo), int(f.slot), false)
	b.markedCount -= int32(bitRange(b.markBits, int(lo), int(f.slot), false))
	b.liveSlots -= int16(f.slot - lo)
	f.next, f.slot = cursor, lo
}

// bitRange sets (on) or clears (!on) bits [lo, hi) of bitmap a word at a
// time and returns how many of them changed.
func bitRange(bitmap []uint64, lo, hi int, on bool) int {
	changed := 0
	for lo < hi {
		end := min(hi, lo&^63+64)
		m := ^uint64(0) >> uint(64-(end-lo)) << uint(lo&63)
		word := &bitmap[lo>>6]
		if on {
			changed += bits.OnesCount64(m &^ *word)
			*word |= m
		} else {
			changed += bits.OnesCount64(m & *word)
			*word &^= m
		}
		lo = end
	}
	return changed
}
