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
// are freed (alloc bit cleared, body zeroed, so every free slot is zero
// and a carve hands it out clean), mark bits and the mark summary are
// cleared when clearMarks is set, and the block goes on top of its list
// (holes.go), whose next carve reads its holes from the alloc bits. The
// bitmaps are consumed a word at a time: zero words of interest are
// skipped whole, dead runs are zeroed with one clear each.
//
// It performs no accounting: callers compute the SweepResult from the
// block's summary before the bits change (eagerly at the barrier in
// both sweep modes).
func (a *Allocator) sweepSmall(bi int, clearMarks bool) {
	b := &a.blocks[bi]
	words := int(b.objWords)
	nslots := int(b.slots)
	first := a.firstSlot(words)
	hw := a.blockWords(bi)
	for wi := range b.allocBits {
		slot0 := wi << 6
		if dead := b.allocBits[wi] &^ b.markBits[wi] & sweepWordMask(wi, first, nslots); dead != 0 {
			b.allocBits[wi] &^= dead
			zeroDeadRuns(hw, dead, slot0, words)
		}
		if clearMarks {
			b.markBits[wi] = 0
		}
	}
	b.liveSlots = int16(b.markedCount)
	if clearMarks {
		b.markedCount = 0
	}
	a.pushBlock(bi)
}

// sweepBarrier is the collection barrier's sweep, behind Sweep and
// SweepSticky under both LazySweep settings. The per-block mark
// summaries classify each block in O(1) and give the exact SweepResult
// before any slot is touched: empty blocks (markedCount 0) go back to
// the free block structure (address ordered with coalescing by
// default, the paper's fragmentation argument), fully-live blocks have
// no free slot, and only mixed blocks have per-slot work left. That
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
	var r SweepResult
	// The lists are rebuilt from scratch: their blocks may be released
	// below, and a block's free slots are free by its bits.
	for i := range a.lists {
		a.lists[i].reset()
	}
	for _, l := range a.typed {
		l.reset()
	}
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
				// Fully live: no free slot for a list. A full cycle still
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
				a.sweepSmall(bi, clearMarks)
				continue
			}
			b.pendingSweep = true
			a.pendingBlocks++
			l := a.listOf(b)
			l.pending = append(l.pending, bi)
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
	a.sweepSmall(bi, a.lazyClearMarks)
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
// it is a no-op. Each list's blocks are swept in ascending order, so
// each goes on top of the one before it, as their threading once did.
// The collector calls it before every mark phase so that no stale
// liveness bits survive into the next cycle; tests and measurements
// call it to observe final reclamation state.
func (a *Allocator) FinishSweep() int {
	if a.pendingBlocks == 0 {
		return 0
	}
	n := 0
	finish := func(l *slotList) {
		for _, bi := range l.pending {
			if a.blocks[bi].pendingSweep {
				a.sweepBlock(bi)
				n++
			}
		}
		l.pending = l.pending[:0]
	}
	for i := range a.lists {
		finish(&a.lists[i])
	}
	for _, l := range a.typed {
		finish(l)
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
			// Complete the deferred sweep first, which puts the block on
			// top of its list: the freed slot goes above it, as it went
			// onto a threaded list above the block's slots. The stale
			// queue entry is discarded when popped.
			a.sweepBlock(bi)
		}
		if !bitGet(b.allocBits, slot) {
			return fmt.Errorf("alloc: Free(%#x): not allocated", uint32(base))
		}
		bitClear(b.allocBits, slot)
		if bitGet(b.markBits, slot) {
			bitClear(b.markBits, slot)
			b.markedCount--
		}
		b.liveSlots--
		clear(hw[slot*words : (slot+1)*words])
		a.pushSlots(base, slot, slot+1)
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
