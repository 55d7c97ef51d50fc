package alloc

import "repro/internal/mem"

// Held slots. A mutator cache (core.Mutator) keeps the carved slots it
// has not handed out yet across a collection, instead of returning them
// at the stop. The collector marks them as the first act of the mark
// step, so the sweep keeps them, and takes them back out of the live
// survey at the close (ExcludeHeld). A cache holds one span per class,
// which lies in one block and is marked a bitmap word at a time; the
// marker keeps the mark summary exact, and runs with no other marker
// active.
//
// The inverse (on false) is for a generational world, whose sticky
// sweep would otherwise leave every held slot old: an object later
// handed out of one must be young, or no minor cycle reclaims it. A
// sweep-pending block is swept first, because its deferred sweep frees
// every allocated slot it finds unmarked.

// MarkHeldSpan sets (on) or clears (!on) the mark bits of the slots of
// the held bump span [cursor, limit).
func (a *Allocator) MarkHeldSpan(cursor, limit mem.Addr, on bool) {
	if cursor >= limit {
		return
	}
	bi := a.blockIndex(cursor)
	b := &a.blocks[bi]
	if !on && b.pendingSweep {
		a.sweepBlock(bi)
	}
	words := int(b.objWords)
	lo := slotOfWord(pageWordOff(cursor), words)
	hi := lo + slotOfWord(int(limit-cursor)/mem.WordBytes, words)
	if on {
		b.markedCount += int32(bitRange(b.markBits, lo, hi, true))
	} else {
		b.markedCount -= int32(bitRange(b.markBits, lo, hi, false))
	}
}

// ExcludeHeld takes objects and bytes the last sweep kept only because
// mutator caches hold them out of the live survey (Stats' ObjectsLive
// and BytesLive): the survey counts what it counted when caches were
// emptied before every sweep.
func (a *Allocator) ExcludeHeld(objects, bytes uint64) {
	a.stats.ObjectsLive -= objects
	a.stats.BytesLive -= bytes
}
