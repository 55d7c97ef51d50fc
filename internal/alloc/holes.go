package alloc

import (
	"math/bits"

	"repro/internal/mem"
)

// The hole allocator: every small-object allocation — a mutator cache's
// refill, the direct path's single object, a typed object — carves the
// next hole of its list, a maximal run of free slots (clear alloc bits)
// in one block, read from the alloc bitmap. Nothing is threaded through
// the heap: a free slot is zero, because the sweep zeroes what dies
// (zeroDeadRuns), Free zeroes what it frees and a block is zeroed when
// dedicated, so a carve writes no heap word and a cache hands its
// slots out by pointer bump.
//
// A list hands its free slots out in the order the paper's threaded
// free list did, which keeps every allocation address — and so every
// conservative false reference — what it was:
//
//   - A list is a stack of hole sources. A source is a block's slots
//     [lo, hi), of which the list serves the free ones in ascending
//     order, the hole at lo first: a swept or freshly dedicated block
//     is one source over all its usable slots, a freed slot or a
//     returned carve one over exactly its own slots.
//   - The sweep pushes each block it sweeps, in ascending block order,
//     so the highest comes out first, as threading put it on top; a
//     deferred sweep pushes the block when it runs — on demand, when
//     the list is out of free slots, or out of band (Free, ReturnSpan,
//     MarkHeldSpan, FinishSweep), where threading also put the block's
//     slots on top. Free and ReturnSpan push their slots, as a push
//     onto the list head did; a refill dedicates a fresh block only
//     when the list is empty.
//   - A slot a lower source covers may be freed into a higher one; it
//     is handed out from there first, alloc bit set, so the lower
//     source skips it later. Every free slot below a source's lo is
//     covered by a source above it, so a source never looks back.
//
// A carve takes up to max slots of the next hole as one {cursor, limit}
// span: the slots' alloc bits are set a bitmap word at a time and the
// block's live count bumped, and the allocation stats are deferred to
// consumption (CommitAllocs). A cache refill takes the whole hole, so a
// fresh block is one carve; the direct path takes one slot.

// holeSrc is one hole source: the free slots of block bi, based at
// base, in [lo, hi).
type holeSrc struct {
	bi     int32
	base   mem.Addr
	lo, hi uint16
}

// slotList is the free space of one size class (and atomicity) or one
// typed layout: its hole sources — the top one held in the list itself,
// where the direct path's one-slot carves find it without a further
// load, the ones under it in below, the next last — and its
// sweep-pending blocks (Config.LazySweep), queued in ascending block
// order and swept from the back. An empty top (lo == hi) is no source.
type slotList struct {
	top     holeSrc
	below   []holeSrc
	pending []int
}

// push puts src on top of l. Slots just below the top source's lo, in
// its block, extend it instead — that is the order they would be served
// in anyway, and a carve given back before anything else was carved
// after it rewinds its source — and an empty top is replaced, so
// returns do not pile sources up.
func (l *slotList) push(src holeSrc) {
	switch {
	case l.top.bi == src.bi && l.top.lo == src.hi:
		l.top.lo = src.lo
	case l.top.lo == l.top.hi:
		l.top = src
	default:
		l.below = append(l.below, l.top)
		l.top = src
	}
}

// sources returns l's hole sources, the top one last.
func (l *slotList) sources() []holeSrc {
	return append(l.below[:len(l.below):len(l.below)], l.top)
}

// pushSlots puts the slots [lo, hi) of the block at p on top of its
// list.
func (a *Allocator) pushSlots(p mem.Addr, lo, hi int) {
	bi := a.blockIndex(p)
	a.listOf(&a.blocks[bi]).push(holeSrc{bi: int32(bi), base: mem.AlignPageDown(p), lo: uint16(lo), hi: uint16(hi)})
}

// pushBlock puts every usable slot of small block bi on top of its list.
func (a *Allocator) pushBlock(bi int) {
	b := &a.blocks[bi]
	a.listOf(b).push(holeSrc{bi: int32(bi), base: a.blockBase(bi), lo: uint16(a.firstSlot(int(b.objWords))), hi: b.slots})
}

// reset empties l, ahead of a sweep barrier's rebuild.
func (l *slotList) reset() {
	l.top = holeSrc{}
	l.below = l.below[:0]
	l.pending = l.pending[:0]
}

// listOf returns the list small block b's free slots belong to.
func (a *Allocator) listOf(b *blockDesc) *slotList {
	if b.desc >= 0 {
		return a.typedList(typedKey{class: int(b.class), desc: b.desc})
	}
	return &a.lists[listIdx(int(b.class), b.atomic)]
}

// typedList returns the list of typed layout key, making it on first use.
func (a *Allocator) typedList(key typedKey) *slotList {
	l := a.typed[key]
	if l == nil {
		l = &slotList{}
		a.typed[key] = l
	}
	return l
}

// takeHole takes up to max free slots of l's next hole, for objects of
// class class scanned as desc says, refilling l when it has no free slot
// left (refill). ErrNeedMemory reports that the refill found nothing,
// with nothing carved.
func (a *Allocator) takeHole(l *slotList, class int, desc DescID, max int, desperate bool) (Span, error) {
	for {
		if h := &l.top; h.lo < h.hi {
			b := &a.blocks[h.bi]
			if lo := nextClear(b.allocBits, int(h.lo), int(h.hi)); lo < int(h.hi) {
				hi := lo + 1
				if max > 1 {
					hi = min(nextSet(b.allocBits, hi, int(h.hi)), lo+max)
					bitRange(b.allocBits, lo, hi, true)
				} else {
					bitSet(b.allocBits, lo)
				}
				b.liveSlots += int16(hi - lo)
				h.lo = uint16(hi)
				words := int(b.objWords)
				return Span{Cursor: slotAddr(h.base, lo, words), Limit: slotAddr(h.base, hi, words), Words: words}, nil
			}
			h.lo = h.hi
		}
		// The top source is spent: the one under it, or a refill.
		if n := len(l.below); n > 0 {
			l.top = l.below[n-1]
			l.below = l.below[:n-1]
		} else if err := a.refill(l, class, desc, desperate); err != nil {
			return Span{}, err
		}
	}
}

// refill puts a block with free slots on the empty list l: its highest
// sweep-pending block, swept now, or else a fresh block under the
// blacklist policy (desperate relaxes it).
func (a *Allocator) refill(l *slotList, class int, desc DescID, desperate bool) error {
	if bi, ok := a.popPending(&l.pending); ok {
		a.sweepBlock(bi) // pushes bi
		return nil
	}
	bi, ok := a.freshBlock(class, desc, desperate)
	if !ok {
		return ErrNeedMemory
	}
	a.pushBlock(bi)
	return nil
}

// nextClear returns the first clear bit of bitmap in [lo, hi), or hi.
func nextClear(bitmap []uint64, lo, hi int) int {
	for lo < hi {
		if w := ^bitmap[lo>>6] >> uint(lo&63); w != 0 {
			return min(lo+bits.TrailingZeros64(w), hi)
		}
		lo = lo&^63 + 64
	}
	return hi
}

// nextSet returns the first set bit of bitmap in [lo, hi), or hi.
func nextSet(bitmap []uint64, lo, hi int) int {
	for lo < hi {
		if w := bitmap[lo>>6] >> uint(lo&63); w != 0 {
			return min(lo+bits.TrailingZeros64(w), hi)
		}
		lo = lo&^63 + 64
	}
	return hi
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
