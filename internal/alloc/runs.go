package alloc

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Batched free-list carve-out for per-mutator allocation caches
// (core.Mutator). The paper's collector serves multi-threaded PCR
// programs; the standard recipe — used by the Boehm collector's
// thread-local free lists and by nofl-style block allocators alike —
// is to hand each mutator a private run of free slots in one locked
// operation, so the common allocation is a lock-free pointer bump
// along the run.
//
// The contract that keeps the single-mutator path bit-for-bit
// identical to per-object Alloc calls:
//
//   - AllocRun pops slots off the same threaded free list, in the same
//     order, with the same refill trigger (an empty list at entry) that
//     a sequence of Alloc calls would use, and stops early when the
//     list runs dry rather than refilling mid-run — so block
//     dedication and lazy-sweep drains happen at exactly the same
//     allocation index as the unbatched path.
//   - Carved slots get their alloc bits and liveSlots accounting
//     immediately (the bitmaps are shared, word-granular state that a
//     lock-free consumer must not touch), but the allocation *stats*
//     are deferred: the mutator counts consumed slots locally and
//     publishes them with CommitAllocs at its next slow path or
//     safepoint, so BytesSinceGC — the collection trigger — reflects
//     only objects actually handed out.
//   - ReturnRun restores the unconsumed tail of a run exactly: pushed
//     back in reverse, the rebuilt list has the same head, the same
//     link words, and the same bits as if the tail had never been
//     carved. A flush is therefore invisible to the allocations after
//     it. A collection does not flush: it marks the tail (held.go).
//
// A carved slot's link word is zeroed at carve time (under the
// caller's lock); the consumer never writes heap memory, which keeps
// the fast path free of any shared-memory access.

// AllocRun carves up to max free slots of the small size class for
// nwords into out (appended and returned). The first slot may refill
// the free list — sweeping lazy-pending blocks or dedicating a fresh
// block — exactly as a single Alloc would; ErrNeedMemory propagates to
// the caller's collect/expand retry policy with nothing carved. The
// run ends early when the list empties: the next AllocRun refills at
// the same point per-object allocation would have.
func (a *Allocator) AllocRun(nwords int, atomic bool, max int, out []mem.Addr) ([]mem.Addr, error) {
	if nwords < 1 {
		return out, fmt.Errorf("alloc: bad size %d", nwords)
	}
	if IsLarge(nwords) {
		return out, fmt.Errorf("alloc: AllocRun of large object (%d words)", nwords)
	}
	if a.cfg.LineAlloc {
		// Under the line profile small untyped slots are never threaded;
		// mixing list carves with bump spans would corrupt both.
		return out, fmt.Errorf("alloc: AllocRun under LineAlloc (use AllocSpan)")
	}
	if max < 1 {
		max = 1
	}
	class, _ := ClassFor(nwords)
	idx := class
	if atomic {
		idx += NumClasses
	}
	if a.freeList[idx] == 0 {
		if err := a.refill(class, atomic, idx, false); err != nil {
			return out, err
		}
	}
	// One block lookup per stretch of the list that stays in a block
	// (freelist.go); the head is written back once, at the faulting link
	// if a link is bad.
	head := a.freeList[idx]
	var err error
	for n := 0; n < max && head != 0; {
		var s slotBlock
		if s, err = a.locateSlots(head, class); err != nil {
			break
		}
		for {
			out = append(out, head)
			head = s.pop(head)
			if n++; n == max || !s.holds(head) {
				break
			}
		}
	}
	a.freeList[idx] = head
	return out, err
}

// ReturnRun gives the unconsumed tail of a carved run back to its free
// list, restoring exactly the list a sequence of per-object Allocs
// would have left: slots are pushed in reverse so run[0] becomes the
// head again with its original links rebuilt. Stats are untouched —
// AllocRun never counted the slots (see CommitAllocs). run must be
// slots AllocRun carved, on a heap that still takes stores: anything
// else is a bug in the caller, and panics.
//
// A run held across a collection may lie in a block whose sweep is
// deferred (its slots marked, so that sweep would keep them). That
// block is swept before any slot goes back into it, as Free does:
// swept later, it would thread the returned slots a second time.
func (a *Allocator) ReturnRun(nwords int, atomic bool, run []mem.Addr) {
	if len(run) == 0 {
		return
	}
	class, _ := ClassFor(nwords)
	idx := class
	if atomic {
		idx += NumClasses
	}
	head := a.freeList[idx]
	for i := len(run) - 1; i >= 0; {
		s, err := a.locateSlots(run[i], class)
		if err != nil {
			// run is what AllocRun carved: only a bug gets here.
			panic(fmt.Sprintf("alloc: ReturnRun: %v", err))
		}
		if s.b.pendingSweep {
			a.freeList[idx] = head
			a.sweepBlock(a.blockIndex(run[i]))
			head = a.freeList[idx]
		}
		for ; i >= 0 && s.holds(run[i]); i-- {
			s.push(run[i], head)
			head = run[i]
		}
	}
	a.freeList[idx] = head
}

// CommitAllocs folds a mutator's locally-counted consumed-slot totals
// into the allocator's statistics. Callers hold the central lock; the
// per-slot carve bookkeeping already happened in AllocRun, so this is
// the only accounting a cached allocation defers.
func (a *Allocator) CommitAllocs(objects, bytes uint64) {
	a.stats.ObjectsAllocated += objects
	a.stats.BytesAllocated += bytes
	a.stats.BytesSinceGC += bytes
}

// CheckIntegrity audits the allocator's slot accounting against the
// given set of slots currently carved into mutator caches. It verifies
// the concurrency battery's core invariants:
//
//   - no double-carve: no slot appears twice across the free lists and
//     the caches, and no free-list slot has its alloc bit set;
//   - cached slots are live: every cached slot is a small-block slot
//     with its alloc bit set, and one in a sweep-pending block is
//     marked too (the deferred sweep keeps it only then — which is why
//     the collector marks every cached slot at the mark step);
//   - conservation of slots: for every swept small block,
//     alloc-bit population == liveSlots and live + free == usable, so
//     live (including cached) + free + unusable = total;
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
	type slotRef struct {
		bi   int
		slot int
	}
	seen := make(map[mem.Addr]string, len(cached))
	cachedSet := make(map[mem.Addr]bool, len(cached))
	freePerBlock := make(map[int]int)

	locate := func(p mem.Addr, from string) (slotRef, *blockDesc, error) {
		if !a.InCommitted(p) {
			return slotRef{}, nil, fmt.Errorf("alloc: integrity: %s slot %#x outside committed heap", from, uint32(p))
		}
		bi := a.blockIndex(p)
		b := &a.blocks[bi]
		if b.state != blockSmall {
			return slotRef{}, nil, fmt.Errorf("alloc: integrity: %s slot %#x in non-small block %d (state %d)", from, uint32(p), bi, b.state)
		}
		slot := slotOfWord(pageWordOff(p), int(b.objWords))
		if p != slotAddr(mem.AlignPageDown(p), slot, int(b.objWords)) {
			return slotRef{}, nil, fmt.Errorf("alloc: integrity: %s slot %#x misaligned for class %d", from, uint32(p), b.class)
		}
		return slotRef{bi: bi, slot: slot}, b, nil
	}

	for _, p := range cached {
		if cachedSet[p] {
			return fmt.Errorf("alloc: integrity: slot %#x carved into two mutator caches", uint32(p))
		}
		cachedSet[p] = true
		seen[p] = "cache"
		ref, b, err := locate(p, "cached")
		if err != nil {
			return err
		}
		if b.pendingSweep && !bitGet(b.markBits, ref.slot) {
			return fmt.Errorf("alloc: integrity: unmarked cached slot %#x in sweep-pending block %d", uint32(p), ref.bi)
		}
		if !bitGet(b.allocBits, ref.slot) {
			return fmt.Errorf("alloc: integrity: cached slot %#x has a clear alloc bit", uint32(p))
		}
	}

	walk := func(head mem.Addr, label string) error {
		for p := head; p != 0; {
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("alloc: integrity: slot %#x on %s already accounted to %s", uint32(p), label, prev)
			}
			seen[p] = label
			ref, b, err := locate(p, label)
			if err != nil {
				return err
			}
			if b.pendingSweep {
				return fmt.Errorf("alloc: integrity: free-list slot %#x in sweep-pending block %d", uint32(p), ref.bi)
			}
			if bitGet(b.allocBits, ref.slot) {
				return fmt.Errorf("alloc: integrity: slot %#x on %s has its alloc bit set", uint32(p), label)
			}
			freePerBlock[ref.bi]++
			next, err := a.loadWord(p)
			if err != nil {
				return fmt.Errorf("alloc: integrity: %s: %v", label, err)
			}
			p = mem.Addr(next)
		}
		return nil
	}
	// Central bump spans (LineAlloc) hold carved-but-unissued slots;
	// account them exactly like mutator-cached slots.
	var spanErr error
	a.lineSpanSlots(func(p mem.Addr) {
		if spanErr != nil {
			return
		}
		if prev, dup := seen[p]; dup {
			spanErr = fmt.Errorf("alloc: integrity: slot %#x in a central span already accounted to %s", uint32(p), prev)
			return
		}
		seen[p] = "central span"
		ref, b, err := locate(p, "central span")
		if err != nil {
			spanErr = err
			return
		}
		if b.pendingSweep {
			spanErr = fmt.Errorf("alloc: integrity: central-span slot %#x in sweep-pending block %d", uint32(p), ref.bi)
			return
		}
		if !bitGet(b.allocBits, ref.slot) {
			spanErr = fmt.Errorf("alloc: integrity: central-span slot %#x has a clear alloc bit", uint32(p))
		}
	})
	if spanErr != nil {
		return spanErr
	}

	for idx, head := range a.freeList {
		if err := walk(head, fmt.Sprintf("freeList[%d]", idx)); err != nil {
			return err
		}
	}
	for key, head := range a.typedFree {
		if err := walk(head, fmt.Sprintf("typedFree[%d/%d]", key.class, key.desc)); err != nil {
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
		if b.state != blockSmall {
			continue
		}
		if b.pendingSweep {
			// A sweep-pending block's bits are the previous cycle's and
			// its slots are on no list; nothing to reconcile until
			// sweepBlock runs.
			continue
		}
		live := popcount(b.allocBits)
		if live != int(b.liveSlots) {
			return fmt.Errorf("alloc: integrity: block %d alloc bits %d != liveSlots %d", bi, live, b.liveSlots)
		}
		words := int(b.objWords)
		usable := slotsPerBlock(words) - a.firstSlot(words)
		if a.isLineBlock(b) {
			// Line blocks thread nothing: free space is the lines' affair.
			// The cached line mask must agree with the alloc bits.
			if freePerBlock[bi] != 0 {
				return fmt.Errorf("alloc: integrity: line block %d has %d threaded slots", bi, freePerBlock[bi])
			}
			if b.lineLive != a.lineLiveOf(bi) {
				return fmt.Errorf("alloc: integrity: line block %d lineLive %#x != derived %#x", bi, b.lineLive, a.lineLiveOf(bi))
			}
			continue
		}
		if live+freePerBlock[bi] != usable {
			return fmt.Errorf("alloc: integrity: block %d live %d + free %d != usable %d", bi, live, freePerBlock[bi], usable)
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
