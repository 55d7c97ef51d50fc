package alloc

import (
	"fmt"

	"repro/internal/mem"
)

// The free-slot kernel: every pop, carve and return of a threaded
// free-list slot goes through slotBlock. A free list is a chain of heap
// addresses, but sweeps and fresh dedications thread a block's slots
// together, so the next thirty-odd links of a list normally sit in the
// block its head does. The kernel therefore resolves an address once
// per block, not three times per slot: locateSlots finds the extent, the
// block descriptor and the block's words, and pop/push then work on a
// block-local word offset for as long as holds says the list stays on
// the page. Callers re-locate when a link leaves it.
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
	// atomic is the segment's store discipline (mem.Segment.AtomicStore):
	// link words are written with StoreWordAtomic when detached mark
	// workers may be reading them.
	atomic bool
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
		b:      b,
		hw:     (*[mem.PageWords]mem.Word)(e.seg.Words()[bo*mem.PageWords:]),
		base:   e.seg.Base() + mem.Addr(bo*mem.PageBytes),
		atomic: e.seg.AtomicStore(),
	}, nil
}

// holds reports whether p is a word-aligned address inside the located
// block. It is false for 0, the end of a list: a block's base is a
// nonzero multiple of the page size.
func (s slotBlock) holds(p mem.Addr) bool {
	off := p - s.base
	return off < mem.PageBytes && off%mem.WordBytes == 0
}

func (s slotBlock) storeLink(off mem.Addr, v mem.Word) {
	if s.atomic {
		mem.StoreWordAtomic(&s.hw[off], v)
		return
	}
	s.hw[off] = v
}

// pop takes the free slot at p, which s holds, off its list: the link
// word is zeroed (a carved slot is delivered clean), the alloc bit set
// and the block's live count bumped. It returns the link — the list's
// next head.
func (s slotBlock) pop(p mem.Addr) mem.Addr {
	off := (p - s.base) / mem.WordBytes
	next := mem.Addr(s.hw[off])
	s.storeLink(off, 0)
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
	s.storeLink(off, mem.Word(head))
}
