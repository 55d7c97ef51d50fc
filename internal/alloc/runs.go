package alloc

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Batched carves for per-mutator allocation caches (core.Mutator). The
// paper's collector serves multi-threaded PCR programs; the standard
// recipe — used by the Boehm collector's thread-local free lists and by
// nofl-style block allocators alike — is to hand each mutator a private
// run of free slots in one locked operation, so the common allocation
// is a lock-free pointer bump along the run.
//
// The contract that keeps the single-mutator path bit-for-bit identical
// to per-object Alloc calls:
//
//   - AllocBatch carves the next hole of its list (holes.go): the slots
//     a sequence of Alloc calls would take next, in their order, with
//     the same refill — a lazy sweep or a fresh block at exactly the
//     allocation index the unbatched path reaches it.
//   - Carved slots get their alloc bits and liveSlots accounting
//     immediately (the bitmaps are shared, word-granular state that a
//     lock-free consumer must not touch), but the allocation *stats*
//     are deferred: the mutator counts consumed slots locally and
//     publishes them with CommitAllocs at its next slow path or
//     safepoint, so BytesSinceGC — the collection trigger — reflects
//     only objects actually handed out.
//   - ReturnSpan gives the unconsumed tail of a carve back on top of its
//     list, so the next carve starts where the tail did: a flush is
//     invisible to the allocations after it. A collection does not
//     flush: it marks the tail (held.go).
//
// A carved slot is zero when carved (every free slot is), and the
// consumer never writes heap memory, which keeps the fast path free of
// any shared-memory access.

// Span is one carved bump run: the slots at [Cursor, Limit) in steps
// of Words*WordBytes are allocated (bits set) but not yet handed out.
type Span struct {
	Cursor, Limit mem.Addr
	Words         int
}

// AllocBatch carves up to max slots of the next hole of the small size
// class for nwords for a mutator cache, as one span. ErrNeedMemory
// propagates to the caller's collect/expand retry policy with nothing
// carved.
func (a *Allocator) AllocBatch(nwords int, atomic bool, max int) (Span, error) {
	if nwords < 1 || IsLarge(nwords) {
		return Span{}, fmt.Errorf("alloc: AllocBatch of %d words", nwords)
	}
	class, _ := ClassFor(nwords)
	return a.takeHole(&a.lists[listIdx(class, atomic)], class, untypedDesc(atomic), max, false)
}

// AllocSpan carves the whole next hole of the small size class for
// nwords: AllocBatch with no cap.
func (a *Allocator) AllocSpan(nwords int, atomic bool) (Span, error) {
	return a.AllocBatch(nwords, atomic, mem.PageWords)
}

// AllocRun is AllocBatch as a run of addresses: up to max slots of the
// next hole, appended to out.
func (a *Allocator) AllocRun(nwords int, atomic bool, max int, out []mem.Addr) ([]mem.Addr, error) {
	s, err := a.AllocBatch(nwords, atomic, max)
	for p := s.Cursor; p < s.Limit; p += mem.Addr(s.Words * mem.WordBytes) {
		out = append(out, p)
	}
	return out, err
}

// ReturnSpan gives the unconsumed tail [cursor, limit) of a carve back:
// alloc bits cleared, and a mark bit a slot picked up while carved —
// born-black carves mark whole spans during a concurrent cycle, and a
// conservative root can mark an outstanding slot mid-cycle — dropped
// with it, or markedCount would overstate the live survey the next
// sweep bases its accounting on. The slots go on top of their list. It
// returns how many slots went back; stats are untouched (the carve
// never counted them). A span held across a collection may lie in a
// block whose sweep is deferred; that block is swept first, as Free
// does.
func (a *Allocator) ReturnSpan(cursor, limit mem.Addr) int {
	if cursor >= limit {
		return 0
	}
	bi := a.blockIndex(cursor)
	b := &a.blocks[bi]
	if b.pendingSweep {
		a.sweepBlock(bi)
	}
	words := int(b.objWords)
	lo := slotOfWord(pageWordOff(cursor), words)
	n := slotOfWord(int(limit-cursor)/mem.WordBytes, words)
	bitRange(b.allocBits, lo, lo+n, false)
	b.markedCount -= int32(bitRange(b.markBits, lo, lo+n, false))
	b.liveSlots -= int16(n)
	a.pushSlots(cursor, lo, lo+n)
	return n
}

// CommitAllocs folds a mutator's locally-counted consumed-slot totals
// into the allocator's statistics. Callers hold the central lock; the
// per-slot carve bookkeeping already happened in the carve, so this is
// the only accounting a cached allocation defers.
func (a *Allocator) CommitAllocs(objects, bytes uint64) {
	a.stats.ObjectsAllocated += objects
	a.stats.BytesAllocated += bytes
	a.stats.BytesSinceGC += bytes
}

// LineStats was the line heap's space accounting. The line heap is
// gone — small blocks are reclaimed and carved a slot at a time — so
// every field reads zero; the type stays for the records that hold it.
type LineStats struct {
	LineBlocks int
	TotalLines int
	LiveLines  int
	FreeLines  int
	WasteSlots int
	WasteBytes uint64
}

// LineStats returns the zero LineStats.
func (a *Allocator) LineStats() LineStats { return LineStats{} }

// CheckIntegrity audits the allocator's slot accounting against the
// given set of slots currently carved into mutator caches. It verifies
// the concurrency battery's core invariants:
//
//   - no double-carve: no slot is in two caches, and every cached slot
//     is a small-block slot with its alloc bit set, so no list serves
//     it; one in a sweep-pending block is marked too (the deferred
//     sweep keeps it only then — which is why the collector marks every
//     cached slot at the mark step);
//   - the lists: every hole source lies in the usable slots of a swept
//     small block of its own list's class and layout;
//   - conservation of slots: for every swept small block, alloc-bit
//     population == liveSlots, and every free usable slot is zero and
//     covered by a source of the block's list, so no free slot is lost;
//   - conservation of blocks: free spans hold exactly the blockFree
//     blocks and the dedicated/free counts match Stats;
//   - the mark side (checkMarkSide): no slot is marked without being
//     allocated, every mark summary equals its bitmap's population, and
//     the geometry cached in a small block's descriptor is its class's.
//
// It returns nil when consistent and a descriptive error otherwise.
// It is read-only and single-threaded: callers stop the world (or own
// every lock) first.
func (a *Allocator) CheckIntegrity(cached []mem.Addr) error {
	cachedSet := make(map[mem.Addr]bool, len(cached))
	for _, p := range cached {
		if cachedSet[p] {
			return fmt.Errorf("alloc: integrity: slot %#x carved into two mutator caches", uint32(p))
		}
		cachedSet[p] = true
		if !a.InCommitted(p) {
			return fmt.Errorf("alloc: integrity: cached slot %#x outside committed heap", uint32(p))
		}
		bi := a.blockIndex(p)
		b := &a.blocks[bi]
		if b.state != blockSmall {
			return fmt.Errorf("alloc: integrity: cached slot %#x in non-small block %d (state %d)", uint32(p), bi, b.state)
		}
		slot := slotOfWord(pageWordOff(p), int(b.objWords))
		if p != slotAddr(mem.AlignPageDown(p), slot, int(b.objWords)) {
			return fmt.Errorf("alloc: integrity: cached slot %#x misaligned for class %d", uint32(p), b.class)
		}
		if b.pendingSweep && !bitGet(b.markBits, slot) {
			return fmt.Errorf("alloc: integrity: unmarked cached slot %#x in sweep-pending block %d", uint32(p), bi)
		}
		if !bitGet(b.allocBits, slot) {
			return fmt.Errorf("alloc: integrity: cached slot %#x has a clear alloc bit", uint32(p))
		}
	}

	// covered[bi] has a bit set for each free slot of block bi that a
	// source will serve.
	covered := make(map[int][]uint64)
	sources := func(l *slotList, label string, ours func(b *blockDesc) bool) error {
		for _, h := range l.sources() {
			if h.lo == h.hi {
				continue // an empty top: no source
			}
			bi := int(h.bi)
			if bi < 0 || bi >= len(a.blocks) {
				return fmt.Errorf("alloc: integrity: %s source in block %d of %d", label, bi, len(a.blocks))
			}
			b := &a.blocks[bi]
			if b.state != blockSmall || b.pendingSweep || !ours(b) || h.base != a.blockBase(bi) {
				return fmt.Errorf("alloc: integrity: %s source in block %d at %#x (state %d, pending %v, class %d, desc %d)",
					label, bi, uint32(h.base), b.state, b.pendingSweep, b.class, b.desc)
			}
			if int(h.lo) < a.firstSlot(int(b.objWords)) || h.lo > h.hi || int(h.hi) > slotsPerBlock(int(b.objWords)) {
				return fmt.Errorf("alloc: integrity: %s source slots [%d, %d) do not fit block %d of %d-word slots",
					label, h.lo, h.hi, bi, b.objWords)
			}
			cov := covered[bi]
			if cov == nil {
				cov = make([]uint64, len(b.allocBits))
				covered[bi] = cov
			}
			for s := int(h.lo); s < int(h.hi); s++ {
				if !bitGet(b.allocBits, s) {
					bitSet(cov, s)
				}
			}
		}
		return nil
	}
	for idx := range a.lists {
		ours := func(b *blockDesc) bool { return b.desc < 0 && listIdx(int(b.class), b.atomic) == idx }
		if err := sources(&a.lists[idx], fmt.Sprintf("list %d", idx), ours); err != nil {
			return err
		}
	}
	for key, l := range a.typed {
		ours := func(b *blockDesc) bool { return b.desc == key.desc && int(b.class) == key.class }
		if err := sources(l, fmt.Sprintf("typed list %d/%d", key.class, key.desc), ours); err != nil {
			return err
		}
	}

	freeBlocks, dedicated := 0, 0
	for bi := range a.blocks {
		b := &a.blocks[bi]
		if b.state == blockFree {
			freeBlocks++
			continue
		}
		dedicated++
		if err := checkMarkSide(bi, b); err != nil {
			return err
		}
		if b.state != blockSmall || b.pendingSweep {
			// A sweep-pending block's bits are the previous cycle's and
			// no list serves it; nothing to reconcile until sweepBlock
			// runs.
			continue
		}
		if live := popcount(b.allocBits); live != int(b.liveSlots) {
			return fmt.Errorf("alloc: integrity: block %d alloc bits %d != liveSlots %d", bi, live, b.liveSlots)
		}
		words := int(b.objWords)
		hw := a.blockWords(bi)
		for s := a.firstSlot(words); s < int(b.slots); s++ {
			if bitGet(b.allocBits, s) {
				continue
			}
			p := slotAddr(a.blockBase(bi), s, words)
			if cov := covered[bi]; cov == nil || !bitGet(cov, s) {
				return fmt.Errorf("alloc: integrity: free slot %#x of block %d is on no list", uint32(p), bi)
			}
			for _, w := range hw[s*words : (s+1)*words] {
				if w != 0 {
					return fmt.Errorf("alloc: integrity: free slot %#x is not zeroed", uint32(p))
				}
			}
		}
	}
	spanFree := 0
	for _, sp := range a.free {
		for j := 0; j < sp.n; j++ {
			if st := a.blocks[sp.start+j].state; st != blockFree {
				return fmt.Errorf("alloc: integrity: free span holds block %d with state %d", sp.start+j, st)
			}
		}
		spanFree += sp.n
	}
	if spanFree != freeBlocks {
		return fmt.Errorf("alloc: integrity: free spans cover %d blocks, %d blocks are free", spanFree, freeBlocks)
	}
	if freeBlocks != a.stats.BlocksFree || dedicated != a.stats.BlocksDedicated {
		return fmt.Errorf("alloc: integrity: stats say %d free/%d dedicated, heap has %d/%d",
			a.stats.BlocksFree, a.stats.BlocksDedicated, freeBlocks, dedicated)
	}
	return nil
}

// checkMarkSide audits what the mark loop's candidate step leans on in
// block bi. markBits ⊆ allocBits is what makes a marked slot a live
// object to the sweep (liveSlots becomes markedCount) and to resolve's
// callers, and the summary equals the bitmap's population count; both
// hold at every audit point. The cached reciprocal and slot count are
// what resolve divides and bounds a slot index by instead of the
// tables.
func checkMarkSide(bi int, b *blockDesc) error {
	switch b.state {
	case blockSmall:
		for wi, mv := range b.markBits {
			if stray := mv &^ b.allocBits[wi]; stray != 0 {
				return fmt.Errorf("alloc: integrity: block %d slot %d is marked but not allocated",
					bi, wi<<6+bits.TrailingZeros64(stray))
			}
		}
		if marked := popcount(b.markBits); marked != int(b.markedCount) {
			return fmt.Errorf("alloc: integrity: block %d mark bits %d != markedCount %d", bi, marked, b.markedCount)
		}
		if w := b.objWords; b.slotRecip != slotRecip[w] || b.slots != slotCount[w] {
			return fmt.Errorf("alloc: integrity: block %d caches geometry (%d, %d) for %d-word objects, tables say (%d, %d)",
				bi, b.slotRecip, b.slots, w, slotRecip[w], slotCount[w])
		}
	case blockLargeHead:
		if mv := b.markBits[0]; mv > 1 || int32(mv) != b.markedCount {
			return fmt.Errorf("alloc: integrity: large block %d mark word %#x, markedCount %d", bi, mv, b.markedCount)
		}
	}
	return nil
}
