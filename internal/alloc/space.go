package alloc

import "repro/internal/mem"

// SpaceBreakdown is an exact byte accounting of the committed heap:
// every committed byte lands in exactly one bucket, so
//
//	HeapBytes = FreeBlockBytes + LiveBytes + CachedBytes +
//	            FreeSlotBytes + OverheadBytes + LargeSlackBytes
//
// holds identically under every configuration. It is the experiment-
// facing companion to CheckIntegrity: the audit proves slot-count
// conservation, this exposes where the bytes are so fragmentation and
// space-overhead claims can be checked against the whole heap.
type SpaceBreakdown struct {
	HeapBytes      int // committed heap (every block, any state)
	FreeBlockBytes int // wholly-free blocks awaiting dedication
	// LiveBytes counts allocated slots and large objects. Slots carved
	// into mutator caches are indistinguishable from live here (their
	// alloc bits are set); pass their addresses to CheckIntegrity for
	// the exact audit.
	LiveBytes int
	// CachedBytes counted carved slots the line heap held centrally. The
	// allocator holds none now (its carves go to mutator caches, counted
	// in LiveBytes), so it is always zero.
	CachedBytes int
	// FreeSlotBytes counts free slots inside dedicated small blocks.
	FreeSlotBytes int
	// OverheadBytes counts per-block space no slot can occupy: the
	// block-start offset reserved against off-by-one block straddles
	// (firstSlot) and the tail remainder when the class does not tile
	// the block exactly.
	OverheadBytes int
	// LargeSlackBytes is rounding inside large-object block spans: the
	// span is whole blocks, the object is not.
	LargeSlackBytes int
}

// SpaceBreakdown walks the block table and buckets every committed
// byte. Sweep-pending blocks are accounted by their current bitmaps,
// which still describe the previous cycle — the identity holds, but
// Live/Free splits for those blocks move once the deferred sweep runs.
func (a *Allocator) SpaceBreakdown() SpaceBreakdown {
	var sb SpaceBreakdown
	sb.HeapBytes = len(a.blocks) * mem.PageBytes

	for bi := range a.blocks {
		b := &a.blocks[bi]
		switch b.state {
		case blockFree:
			sb.FreeBlockBytes += mem.PageBytes
		case blockSmall:
			words := int(b.objWords)
			nslots := slotsPerBlock(words)
			first := a.firstSlot(words)
			sb.OverheadBytes += (first*words + mem.PageWords - nslots*words) * mem.WordBytes
			for slot := first; slot < nslots; slot++ {
				if bitGet(b.allocBits, slot) {
					sb.LiveBytes += words * mem.WordBytes
				} else {
					sb.FreeSlotBytes += words * mem.WordBytes
				}
			}
		case blockLargeHead:
			// A large head IS an allocated object (freeing releases the
			// span back to blockFree); there are no alloc bits to consult.
			spanBytes := int(b.spanLen) * mem.PageBytes
			objBytes := int(b.objWords) * mem.WordBytes
			sb.LiveBytes += objBytes
			sb.LargeSlackBytes += spanBytes - objBytes
		case blockLargeCont:
			// Counted by the head block's span.
		}
	}
	return sb
}

// Sum re-adds the buckets; callers assert Sum() == HeapBytes.
func (sb SpaceBreakdown) Sum() int {
	return sb.FreeBlockBytes + sb.LiveBytes + sb.CachedBytes +
		sb.FreeSlotBytes + sb.OverheadBytes + sb.LargeSlackBytes
}
