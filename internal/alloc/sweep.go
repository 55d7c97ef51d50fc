package alloc

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/trace"
)

// SweepResult reports what one sweep reclaimed and retained.
type SweepResult struct {
	ObjectsFreed   uint64
	BytesFreed     uint64
	ObjectsLive    uint64
	BytesLive      uint64
	BlocksReleased int // blocks returned to the free structure
	BlocksKept     int // dedicated blocks retained
}

// markedBytes returns the byte half of a block's mark summary. Blocks
// hold a single size class, so it is derived from markedCount rather
// than maintained as a second counter on the mark hot path.
func (b *blockDesc) markedBytes() uint64 {
	return uint64(b.markedCount) * uint64(int(b.objWords)*mem.WordBytes)
}

// sweepWordMask returns the bits of bitmap word wi (covering slots
// [wi*64, wi*64+64)) that correspond to usable slots, i.e. slots in
// [first, nslots).
func sweepWordMask(wi, first, nslots int) uint64 {
	lo := wi << 6
	start := first - lo
	if start < 0 {
		start = 0
	}
	end := nslots - lo
	if end > 64 {
		end = 64
	}
	if end <= start {
		return 0
	}
	return ^uint64(0) >> (64 - uint(end-start)) << uint(start)
}

// sweepSmall sweeps one small block in place: unmarked allocated slots
// are freed (alloc bit cleared, body zeroed), every non-live slot is
// threaded onto the block's free list in address order, and — when
// clearMarks is set — mark bits and the mark summary are cleared. The
// bitmaps are consumed a word at a time: zero words of interest are
// skipped whole, live words are resolved with trailing/leading-zero
// scans instead of per-slot bitGet. Threading walks slots in descending
// address order (highest word first, highest bit within each word
// first), producing exactly the list the seed's per-slot loop built.
//
// It performs no accounting: callers compute the SweepResult from the
// block's summary before the bits change (eagerly at the barrier in
// both sweep modes).
func (a *Allocator) sweepSmall(bi int, clearMarks bool) {
	b := &a.blocks[bi]
	words := int(b.objWords)
	nslots := slotsPerBlock(words)
	first := a.firstSlot(words)
	base := a.blockBase(bi)
	hw := a.blockWords(bi)
	typed := b.desc >= 0
	idx := listIdx(int(b.class), b.atomic)
	tkey := typedKey{class: int(b.class), desc: b.desc}
	var head mem.Addr
	if typed {
		head = a.typedFree[tkey]
	} else {
		head = a.freeList[idx]
	}
	for wi := len(b.allocBits) - 1; wi >= 0; wi-- {
		valid := sweepWordMask(wi, first, nslots)
		if valid == 0 {
			continue
		}
		slot0 := wi << 6
		am := b.allocBits[wi] & valid
		mm := b.markBits[wi] & am
		if dead := am &^ mm; dead != 0 {
			// Zero the freed bodies so the next owner gets clean memory;
			// the threading below rewrites each first word with a link.
			b.allocBits[wi] &^= dead
			zeroDeadRuns(hw, dead, slot0, words)
		}
		if clearMarks {
			b.markBits[wi] = 0
		}
		for m := valid &^ mm; m != 0; {
			top := 63 - bits.LeadingZeros64(m)
			m &^= 1 << uint(top)
			slot := slot0 + top
			hw[slot*words] = mem.Word(head)
			head = slotAddr(base, slot, words)
		}
	}
	if typed {
		a.typedFree[tkey] = head
	} else {
		a.freeList[idx] = head
	}
	b.liveSlots = int16(b.markedCount)
	if clearMarks {
		b.markedCount = 0
	}
}

// sweepBarrier is the collection barrier's sweep, behind Sweep and
// SweepSticky under both LazySweep settings. The per-block mark
// summaries classify each block in O(1) and give the exact SweepResult
// before any slot is touched: empty blocks (markedCount 0) go back to
// the free block structure (address ordered with coalescing by
// default, the paper's fragmentation argument), fully-live blocks need
// no threading, and only mixed blocks have per-slot work left. That
// work is all the two settings do differently. With LazySweep off it is
// done on the spot, as the paper's collector sweeps right after
// marking; with it on, the block is queued as sweep-pending for refill
// to process on demand. Either way the blocks go in ascending order and
// refills hand the highest one out first. clearMarks clears survivors'
// marks (full collections) or keeps them as the "old" flag (SweepSticky).
//
// Soundness of the deferred arm: a pending block's alloc and mark bits
// encode the cycle's liveness verdict, so all pending blocks must be
// swept (FinishSweep) before mark bits are touched again — the
// collector finishes the sweep at the start of the next cycle, and
// ClearMarks finishes them first.
func (a *Allocator) sweepBarrier(clearMarks bool) SweepResult {
	a.FinishSweep() // complete the previous cycle's leftovers first
	// Outstanding bump spans hold allocated-but-unissued slots; return
	// them before the accounting below reads liveSlots. The collector
	// flushes before marking, so this is a no-op there — it covers
	// direct allocator use.
	a.FlushSpans()
	var r SweepResult
	// Free lists, fresh runs and partial-block queues are rebuilt from
	// scratch: the slots and queued blocks may be released below. A fresh
	// run's slots are free by their bits, so the sweep threads them, or
	// releases their block, like any other free slot.
	for i := range a.freeList {
		a.freeList[i] = 0
	}
	for k := range a.typedFree {
		a.typedFree[k] = 0
	}
	a.fresh = [len(a.fresh)]freshRun{}
	clear(a.typedFresh)
	a.resetLineQueues()
	a.lazyClearMarks = clearMarks
	for bi := 0; bi < len(a.blocks); bi++ {
		b := &a.blocks[bi]
		switch b.state {
		case blockFree, blockLargeCont:
			continue
		case blockLargeHead:
			// Large objects are classified entirely by the summary; they
			// never go pending.
			n := int(b.spanLen)
			if b.markedCount != 0 {
				if clearMarks {
					b.markBits[0] = 0
					b.markedCount = 0
				}
				r.ObjectsLive++
				r.BytesLive += uint64(int(b.objWords) * mem.WordBytes)
				r.BlocksKept += n
			} else {
				r.ObjectsFreed++
				r.BytesFreed += uint64(int(b.objWords) * mem.WordBytes)
				a.releaseSpan(bi, n)
				r.BlocksReleased += n
				a.stats.BlocksDedicated -= n
				a.stats.BlocksFree += n
			}
			bi += n - 1
		case blockSmall:
			words := int(b.objWords)
			objBytes := uint64(words * mem.WordBytes)
			live := int(b.markedCount)
			freed := int(b.liveSlots) - live
			r.ObjectsFreed += uint64(freed)
			r.BytesFreed += uint64(freed) * objBytes
			if live == 0 {
				a.releaseSpan(bi, 1)
				r.BlocksReleased++
				a.stats.BlocksDedicated--
				a.stats.BlocksFree++
				continue
			}
			r.ObjectsLive += uint64(live)
			r.BytesLive += uint64(live) * objBytes
			r.BlocksKept++
			if live == slotsPerBlock(words)-a.firstSlot(words) {
				// Fully live: no slots to thread. A full cycle still
				// clears its marks here — a handful of word stores.
				if clearMarks {
					for i := range b.markBits {
						b.markBits[i] = 0
					}
					b.markedCount = 0
				}
				continue
			}
			if !a.cfg.LazySweep { // sweep now, inside the barrier
				if a.isLineBlock(b) {
					a.lineSweepSmall(bi, clearMarks)
					a.requeueLineBlock(bi, b)
				} else {
					a.sweepSmall(bi, clearMarks)
				}
				continue
			}
			b.pendingSweep = true
			a.pendingBlocks++
			if a.isLineBlock(b) {
				// Mixed line blocks queue as deferred carve targets: the
				// first carve (or FinishSweep) runs the line sweep, so the
				// deferred work drains through the same queue the bump
				// refill consumes.
				b.bumpQueued = true
				a.linePartial[lineIdx(b)] = append(a.linePartial[lineIdx(b)], bi)
				continue
			}
			if b.desc >= 0 {
				k := typedKey{class: int(b.class), desc: b.desc}
				a.sweepPendingTyped[k] = append(a.sweepPendingTyped[k], bi)
			} else {
				idx := listIdx(int(b.class), b.atomic)
				a.sweepPending[idx] = append(a.sweepPending[idx], bi)
			}
		}
	}
	a.stats.BytesLive = r.BytesLive
	a.stats.ObjectsLive = r.ObjectsLive
	return r
}

// sweepBlock completes the deferred sweep of one pending block.
func (a *Allocator) sweepBlock(bi int) {
	b := &a.blocks[bi]
	if !b.pendingSweep {
		return
	}
	b.pendingSweep = false
	a.pendingBlocks--
	a.stats.LazySweptBlocks++
	a.tracer.Emit(trace.EvSweepDrain, int64(bi), int64(a.pendingBlocks), 0)
	if a.isLineBlock(b) {
		a.lineSweepSmall(bi, a.lazyClearMarks)
	} else {
		a.sweepSmall(bi, a.lazyClearMarks)
	}
}

// popPending pops the highest-index still-pending block off a queue.
// Entries whose block was already swept out of band (by Free) are
// discarded.
func (a *Allocator) popPending(q *[]int) (int, bool) {
	for len(*q) > 0 {
		bi := (*q)[len(*q)-1]
		*q = (*q)[:len(*q)-1]
		if a.blocks[bi].pendingSweep {
			return bi, true
		}
	}
	return 0, false
}

// FinishSweep completes all deferred sweep work immediately, returning
// the number of blocks swept. With eager sweeping (or nothing pending)
// it is a no-op. The collector calls it before every mark phase so that
// no stale liveness bits survive into the next cycle; tests and
// measurements call it to observe final reclamation state.
func (a *Allocator) FinishSweep() int {
	if a.pendingBlocks == 0 {
		return 0
	}
	n := 0
	for idx := range a.sweepPending {
		for _, bi := range a.sweepPending[idx] {
			if a.blocks[bi].pendingSweep {
				a.sweepBlock(bi)
				n++
			}
		}
		a.sweepPending[idx] = a.sweepPending[idx][:0]
	}
	for k, q := range a.sweepPendingTyped {
		for _, bi := range q {
			if a.blocks[bi].pendingSweep {
				a.sweepBlock(bi)
				n++
			}
		}
		a.sweepPendingTyped[k] = q[:0]
	}
	// Line blocks defer through the partial-block queues. Unlike the
	// free-list queues the entries stay: a swept line block remains a
	// carve target for the bump refill.
	for idx := range a.linePartial {
		for _, bi := range a.linePartial[idx] {
			if a.blocks[bi].pendingSweep {
				a.sweepBlock(bi)
				n++
			}
		}
	}
	return n
}

// SweepPending returns the number of blocks whose sweep is deferred.
func (a *Allocator) SweepPending() int { return a.pendingBlocks }

// ClearMarks clears every mark bit (and mark summary) without sweeping.
// The collector uses it for mark-only experiments and to reset sticky
// bits before a full generational cycle. Pending lazy sweeps are
// finished first: their mark bits encode the previous cycle's liveness
// and must be consumed, not discarded.
func (a *Allocator) ClearMarks() {
	a.FinishSweep()
	for bi := range a.blocks {
		b := &a.blocks[bi]
		switch b.state {
		case blockLargeHead:
			b.markBits[0] = 0
			b.markedCount = 0
		case blockSmall:
			for i := range b.markBits {
				b.markBits[i] = 0
			}
			b.markedCount = 0
		}
	}
}

// CountMarked returns the number and total bytes of marked objects; it
// is used by mark-only experiments ("apparently accessible" counts in
// the paper's section 3.1). The count is computed from the bitmaps with
// word-at-a-time population counts — independently of the maintained
// summaries, so tests can cross-check the two.
func (a *Allocator) CountMarked() (objects uint64, bytes uint64) {
	for bi := range a.blocks {
		b := &a.blocks[bi]
		switch b.state {
		case blockLargeHead:
			if b.markBits[0]&1 != 0 {
				objects++
				bytes += uint64(int(b.objWords) * mem.WordBytes)
			}
		case blockSmall:
			n := popcount(b.markBits)
			objects += uint64(n)
			bytes += uint64(n) * uint64(int(b.objWords)*mem.WordBytes)
		}
	}
	return objects, bytes
}

// Free explicitly deallocates the object at base, like the original
// collector's GC_free. The paper's leak-detection usage mixes explicit
// deallocation with collection; tests also use Free to construct
// specific heap shapes.
func (a *Allocator) Free(base mem.Addr) error {
	if !a.InCommitted(base) {
		return fmt.Errorf("alloc: Free(%#x): not a heap address", uint32(base))
	}
	bi := a.blockIndex(base)
	b := &a.blocks[bi]
	hw := a.blockWords(bi)
	switch b.state {
	case blockLargeHead:
		if base != a.blockBase(bi) {
			return fmt.Errorf("alloc: Free(%#x): not an object base", uint32(base))
		}
		n := int(b.spanLen)
		a.releaseSpan(bi, n)
		a.stats.BlocksDedicated -= n
		a.stats.BlocksFree += n
		return nil
	case blockSmall:
		words := int(b.objWords)
		slot := slotOfWord(pageWordOff(base), words)
		if base != slotAddr(mem.AlignPageDown(base), slot, words) {
			return fmt.Errorf("alloc: Free(%#x): not an object base", uint32(base))
		}
		if slot >= slotsPerBlock(words) {
			return fmt.Errorf("alloc: Free(%#x): not allocated", uint32(base))
		}
		if b.pendingSweep {
			// Complete the deferred sweep first: freeing a slot the lazy
			// sweep still considers dead-or-free would double-thread it.
			// The stale queue entry is discarded when popped.
			if a.isLineBlock(b) {
				// In the free-list profile this sweepBlock threads the
				// block's slots onto the list HEAD, above everything
				// already threaded. Mirror that hoist: return the class's
				// central span (its block re-queues behind) and move this
				// block to the back of the queue — the next-popped
				// position. The duplicate entry is harmless: carving is
				// bits-driven and exhausted entries are skipped.
				idx := lineIdx(b)
				if s := a.lineSpans[idx]; s.Cursor < s.Limit {
					a.lineSpans[idx] = Span{}
					a.ReturnSpan(s.Cursor, s.Limit)
				}
				a.sweepBlock(bi)
				a.linePartial[idx] = append(a.linePartial[idx], bi)
				b.bumpQueued = true
			} else {
				a.sweepBlock(bi)
			}
		}
		if !bitGet(b.allocBits, slot) {
			return fmt.Errorf("alloc: Free(%#x): not allocated", uint32(base))
		}
		if a.isLineBlock(b) {
			return a.freeLineSlot(bi, b, base, slot, words)
		}
		bitClear(b.allocBits, slot)
		if bitGet(b.markBits, slot) {
			bitClear(b.markBits, slot)
			b.markedCount--
		}
		b.liveSlots--
		for w := 1; w < words; w++ {
			hw[slot*words+w] = 0
		}
		if b.desc >= 0 {
			tkey := typedKey{class: int(b.class), desc: b.desc}
			hw[slot*words] = mem.Word(a.typedFree[tkey])
			a.typedFree[tkey] = base
			return nil
		}
		idx := listIdx(int(b.class), b.atomic)
		hw[slot*words] = mem.Word(a.freeList[idx])
		a.freeList[idx] = base
		return nil
	}
	return fmt.Errorf("alloc: Free(%#x): not an object", uint32(base))
}

// popcount returns the number of set bits in a bitmap.
func popcount(bitmap []uint64) int {
	n := 0
	for _, w := range bitmap {
		n += bits.OnesCount64(w)
	}
	return n
}

// zeroDeadRuns zeroes the bodies of the slots set in dead, the bitmap
// word whose bit i is slot slot0+i of a block of words-word slots, with
// one clear per maximal run of dead slots.
func zeroDeadRuns(hw []mem.Word, dead uint64, slot0, words int) {
	for dead != 0 {
		lo := bits.TrailingZeros64(dead)
		hi := lo + bits.TrailingZeros64(^(dead >> uint(lo)))
		clear(hw[(slot0+lo)*words : (slot0+hi)*words])
		dead = dead >> uint(hi) << uint(hi)
	}
}
