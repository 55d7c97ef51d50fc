package alloc

import (
	"math/bits"

	"repro/internal/mem"
)

// Card support for the generational extension (DESIGN.md, E12).
//
// The paper's last section-3.1 paragraph observes that stray stack
// pointers "significantly lengthen the lifetime of some objects, thus
// placing a ceiling on the effectiveness of generational collection",
// citing the generational-conservative design of Demers et al. (its
// reference [13]). That design keeps mark bits *sticky* across minor
// collections — a marked object is old, an unmarked one young — and
// uses page-granularity dirty bits so that old objects whose pages were
// written since the last collection can be rescanned for old-to-young
// pointers. Both pieces live here: one dirty bit per heap block, set by
// the collector's write barrier, and a sweep variant that preserves
// mark bits.

// MarkDirty records a mutation of the block containing a (which must be
// a committed heap address; other addresses are ignored).
func (a *Allocator) MarkDirty(addr mem.Addr) {
	if !a.InCommitted(addr) {
		return
	}
	bi := a.blockIndex(addr)
	a.dirty[bi>>6] |= 1 << (uint(bi) & 63)
}

// DirtyBlocks calls fn with each dirty block index.
func (a *Allocator) DirtyBlocks(fn func(bi int)) {
	for w, v := range a.dirty {
		for v != 0 {
			i := w<<6 + bits.TrailingZeros64(v)
			if i < len(a.blocks) {
				fn(i)
			}
			v &= v - 1
		}
	}
}

// ClearDirty resets all dirty bits; the collector calls it after each
// minor collection.
func (a *Allocator) ClearDirty() {
	for i := range a.dirty {
		a.dirty[i] = 0
	}
}

// ForEachMarkedObject calls fn with the base address of every marked
// allocated object in block bi. The minor collection uses it to rescan
// old objects on dirty blocks. The bitmaps are walked a word at a time:
// the mark summary rejects fully-unmarked blocks outright, words with
// no marked allocated slot are skipped whole, and
// set bits are resolved with trailing-zero scans instead of per-slot
// bitGet.
func (a *Allocator) ForEachMarkedObject(bi int, fn func(base mem.Addr)) {
	b := &a.blocks[bi]
	switch b.state {
	case blockLargeHead:
		if b.markBits[0]&1 != 0 {
			fn(a.blockBase(bi))
		}
	case blockLargeCont:
		// The object belongs to its head block; a write to a
		// continuation page dirties the head's object as well.
		head := bi - int(b.spanLen)
		if a.blocks[head].markBits[0]&1 != 0 {
			fn(a.blockBase(head))
		}
	case blockSmall:
		if b.markedCount == 0 {
			return
		}
		objBytes := int(b.objWords) * mem.WordBytes
		base := a.blockBase(bi)
		for wi, mv := range b.markBits {
			for w := mv & b.allocBits[wi]; w != 0; w &= w - 1 {
				slot := wi<<6 + bits.TrailingZeros64(w)
				fn(base + mem.Addr(slot*objBytes))
			}
		}
	}
}

// ForEachObject calls fn with the base address of every currently
// allocated object, in address order. Objects in sweep-pending blocks
// follow the IsAllocated rule: an unmarked one was classified dead by
// the last collection (only its reclamation is deferred), so it is
// skipped. Heap-snapshot exports and retention reports use this to
// enumerate the heap without probing every slot address.
func (a *Allocator) ForEachObject(fn func(base mem.Addr)) {
	for bi := range a.blocks {
		b := &a.blocks[bi]
		switch b.state {
		case blockLargeHead:
			if !b.pendingSweep || b.markBits[0]&1 != 0 {
				fn(a.blockBase(bi))
			}
		case blockSmall:
			objBytes := int(b.objWords) * mem.WordBytes
			base := a.blockBase(bi)
			for wi, av := range b.allocBits {
				w := av
				if b.pendingSweep {
					w &= b.markBits[wi]
				}
				for ; w != 0; w &= w - 1 {
					slot := wi<<6 + bits.TrailingZeros64(w)
					fn(base + mem.Addr(slot*objBytes))
				}
			}
		}
	}
}

// SweepSticky is Sweep with mark bits preserved: unmarked objects are
// freed, marked objects stay marked ("old"). Together with MarkDirty
// and a root re-scan it implements the sticky-mark-bit minor collection
// of the generational-conservative design. Under LazySweep the deferred
// block sweeps preserve marks the same way, so a block holding any
// old-marked object (markedCount > 0) is never released by a minor
// collection, pending or not.
func (a *Allocator) SweepSticky() SweepResult { return a.sweepBarrier(false) }

// Sweep reclaims every unmarked object, rebuilds the size-class lists, and
// clears mark bits for the next full cycle. See also SweepSticky.
func (a *Allocator) Sweep() SweepResult { return a.sweepBarrier(true) }
