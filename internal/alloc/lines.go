package alloc

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Line-structured allocation (Config.LineAlloc), after the block/line
// heap organisation of Immix-style collectors (see PAPERS.md, Nofl):
// each small-object block is partitioned into fixed-size lines, and
// instead of threading free slots into per-class linked lists the
// sweep classifies blocks by line occupancy. Allocation carves a
// {cursor, limit} bump span over a run of wholly-free lines and hands
// objects out by pointer increment — no heap loads or stores on the
// hot path at all, where the free-list pop costs a simulated load and
// store per object.
//
// The slot grid is unchanged: lines are a reclamation and carving
// granularity laid over the same class-sized slots, so FindObject,
// mark bitmaps and the mark summaries are untouched. A line is free
// when no allocated slot overlaps it (the per-block lineLive mask
// caches this, derived from the alloc bitmap — the mark path needs no
// line maintenance, because a marked slot always has its alloc bit
// set already). Free slots that overlap a live line are unreachable
// by bump allocation until the line's other objects die; that
// stranded space is the line-waste the paper-style space-overhead
// metric reports (LineStats).
//
// The contract that keeps allocation addresses bit-for-bit identical
// to the free-list profile on line-aligned workloads (classes whose
// slot size is a whole number of lines — 64, 128, 256 and 512 words):
//
//   - Sweep queues partially-free blocks in ascending block order and
//     carving pops from the back, exactly the order the rebuilt free
//     lists would pop blocks; within a block, runs are carved in
//     ascending address order, the order threading hands slots out.
//   - A span is carved whole (one run of free lines) and consumed by
//     ascending address; slots get their alloc bits and liveSlots
//     accounting at carve time, like AllocBatch carves, with the
//     allocation stats deferred to consumption.
//   - ReturnSpan clears the unconsumed tail's bits and requeues the
//     block at the back of its class queue, so the very next carve
//     re-issues the same cursor — the analogue of ReturnRun pushing a
//     cached run back onto the list head.
//
// Every outstanding span must be returned or marked before a mark
// phase: span slots are allocated-but-unreachable, so marking would
// see phantom objects and the sweep after it would reclaim memory a
// mutator still holds a cursor into. The central spans are returned
// (FlushSpans); mutator caches keep theirs, which the collector marks
// as its mark step begins (MarkHeldSpan, held.go).

// LineWords is the line size in words (256 bytes): big enough that a
// line span amortises carving over many small objects, small enough
// that a block partitions into a useful number of reclamation units.
const LineWords = 64

// LinesPerBlock is how many lines partition one block.
const LinesPerBlock = mem.PageWords / LineWords

// lineMaskAll has one bit per line of a block.
const lineMaskAll = 1<<LinesPerBlock - 1

// Span is one carved bump run: the slots at [Cursor, Limit) in steps
// of Words*WordBytes are allocated (bits set) but not yet handed out.
type Span struct {
	Cursor, Limit mem.Addr
	Words         int
}

// slots returns how many slots the span still covers.
func (s Span) slots(words int) int {
	if s.Cursor >= s.Limit {
		return 0
	}
	return slotOfWord(int(s.Limit-s.Cursor)/mem.WordBytes, words)
}

// isLineBlock reports whether b is managed at line granularity: small
// untyped blocks under Config.LineAlloc. Typed blocks keep threaded
// free lists (their per-descriptor lists are shared and cold), as do
// all blocks when the profile is off.
func (a *Allocator) isLineBlock(b *blockDesc) bool {
	return a.cfg.LineAlloc && b.state == blockSmall && b.desc < 0
}

// lineIdx returns the free-list index of a line block's class (listIdx),
// reused for the line span and partial-block queues.
func lineIdx(b *blockDesc) int { return listIdx(int(b.class), b.atomic) }

// nextFreeRun returns the lowest maximal run [l0, l1) of set bits in
// free, which must be nonzero.
func nextFreeRun(free uint32) (l0, l1 int) {
	l0 = bits.TrailingZeros32(free)
	l1 = l0 + bits.TrailingZeros32(^(free >> uint(l0)))
	return
}

// runMask returns the mask of lines [l0, l1).
func runMask(l0, l1 int) uint32 {
	return (1<<uint(l1) - 1) &^ (1<<uint(l0) - 1)
}

// runSlots returns the slots [sLo, sHi) of a block of the given class
// size that lie wholly inside the line run [l0, l1), clipped to the
// block's usable slots [first, nslots). The range is empty (sHi ≤ sLo)
// when the run is too fragmented to hold a whole slot.
func runSlots(l0, l1, words, first, nslots int) (sLo, sHi int) {
	sLo = slotOfWord(l0*LineWords+words-1, words)
	if sLo < first {
		sLo = first
	}
	sHi = slotOfWord(l1*LineWords, words)
	if sHi > nslots {
		sHi = nslots
	}
	return sLo, sHi
}

// slotLines returns the mask of lines overlapped by slots [sLo, sHi)
// of a block of the given class size; sHi must exceed sLo.
func slotLines(sLo, sHi, words int) uint16 {
	lo := sLo * words / LineWords
	hi := (sHi*words - 1) / LineWords
	return uint16(runMask(lo, hi+1))
}

// lineLiveOf recomputes a block's live-line mask from its alloc
// bitmap: a line is live when any allocated slot overlaps it. The slots
// overlapping a line are one contiguous range — from the slot holding
// its first word to the slot holding its last — so each line costs one
// range test on the bitmap, however many slots are allocated. A line
// past the last slot (block-tail waste) is never live.
func (a *Allocator) lineLiveOf(bi int) uint16 {
	b := &a.blocks[bi]
	words := int(b.objWords)
	last := int(b.slots) - 1
	var lm uint16
	for l := 0; l < LinesPerBlock; l++ {
		lo := slotOfWord(l*LineWords, words)
		if lo > last {
			break
		}
		hi := min(slotOfWord(l*LineWords+LineWords-1, words), last)
		if anyBitIn(b.allocBits, lo, hi) {
			lm |= 1 << uint(l)
		}
	}
	return lm
}

// anyBitIn reports whether bitmap has a bit set in [lo, hi].
func anyBitIn(bitmap []uint64, lo, hi int) bool {
	for wi := lo >> 6; wi <= hi>>6; wi++ {
		m := ^uint64(0)
		if wi == lo>>6 {
			m <<= uint(lo & 63)
		}
		if wi == hi>>6 {
			m &= ^uint64(0) >> uint(63-(hi&63))
		}
		if bitmap[wi]&m != 0 {
			return true
		}
	}
	return false
}

// requeueLineBlock puts a block back on its class's partial queue if
// it has a wholly-free line and is not queued already. Callers have
// just cleared alloc bits (ReturnSpan, Free) or swept the block.
func (a *Allocator) requeueLineBlock(bi int, b *blockDesc) {
	if b.bumpQueued || ^uint32(b.lineLive)&lineMaskAll == 0 {
		return
	}
	b.bumpQueued = true
	idx := lineIdx(b)
	a.linePartial[idx] = append(a.linePartial[idx], bi)
}

// carveRun carves the block's lowest run of free lines into a bump
// span: alloc bits set, liveSlots counted, lineLive extended — the
// stats are deferred to consumption, as with AllocBatch. Runs too
// fragmented to hold a whole slot are skipped; ok is false when no
// run yields a slot. If free lines remain past the carved span the
// block goes back on the partial queue.
func (a *Allocator) carveRun(bi, idx, words int) (Span, bool) {
	b := &a.blocks[bi]
	nslots := slotsPerBlock(words)
	first := a.firstSlot(words)
	base := a.blockBase(bi)
	free := ^uint32(b.lineLive) & lineMaskAll
	for free != 0 {
		l0, l1 := nextFreeRun(free)
		free &^= runMask(l0, l1)
		sLo, sHi := runSlots(l0, l1, words, first, nslots)
		if sHi <= sLo {
			continue
		}
		bitRange(b.allocBits, sLo, sHi, true)
		b.liveSlots += int16(sHi - sLo)
		b.lineLive |= slotLines(sLo, sHi, words)
		a.requeueLineBlock(bi, b)
		sp := Span{
			Cursor: slotAddr(base, sLo, words),
			Limit:  slotAddr(base, sHi, words),
			Words:  words,
		}
		a.tracer.Emit(trace.EvSpanRefill, int64(sp.Cursor), int64(sHi-sLo), int64(words))
		return sp, true
	}
	return Span{}, false
}

// nextSpan produces the next bump span for a class: first from the
// partial-block queue (line-sweeping lazy-pending blocks on demand,
// like refill drains sweepPending), then by dedicating a fresh block
// under the same blacklist policy as the free-list refill.
func (a *Allocator) nextSpan(class int, atomicObj bool, idx int, desperate bool) (Span, error) {
	words := classWords[class]
	for {
		q := &a.linePartial[idx]
		n := len(*q)
		if n == 0 {
			break
		}
		bi := (*q)[n-1]
		*q = (*q)[:n-1]
		b := &a.blocks[bi]
		b.bumpQueued = false
		if b.state != blockSmall {
			continue
		}
		if b.pendingSweep {
			a.sweepBlock(bi)
		}
		if sp, ok := a.carveRun(bi, idx, words); ok {
			return sp, nil
		}
	}
	bi, ok := a.freshBlock(class, untypedDesc(atomicObj), desperate)
	if !ok {
		return Span{}, ErrNeedMemory
	}
	sp, ok := a.carveRun(bi, idx, words)
	if !ok {
		// A fresh block is one whole free run; every class fits at
		// least one slot in it.
		panic(fmt.Sprintf("alloc: fresh block %d carved no span for class %d", bi, class))
	}
	return sp, nil
}

// freeLineSlot is Free's line-profile path. The slot keeps its alloc
// bit and joins the class's freed LIFO, which allocation serves before
// any bump span — the exact analogue of the threaded list's
// push-to-head, so Free/realloc address order matches the free-list
// profile. The bit comes off at the next flush barrier (FlushSpans) if
// the slot was not re-issued by then. The body is zeroed here, link
// word included, so a re-issue hands out clean memory.
func (a *Allocator) freeLineSlot(bi int, b *blockDesc, base mem.Addr, slot, words int) error {
	idx := lineIdx(b)
	// The alloc bit alone cannot reject a double free (it stays set
	// while the slot waits on the LIFO), and a slot inside the central
	// span was never handed out; both are caller errors.
	if s := a.lineSpans[idx]; base >= s.Cursor && base < s.Limit {
		return fmt.Errorf("alloc: Free(%#x): not allocated", uint32(base))
	}
	for _, q := range a.lineFreed[idx] {
		if q == base {
			return fmt.Errorf("alloc: Free(%#x): not allocated", uint32(base))
		}
	}
	if bitGet(b.markBits, slot) {
		bitClear(b.markBits, slot)
		b.markedCount--
	}
	hw := a.blockWords(bi)
	for w := 0; w < words; w++ {
		hw[slot*words+w] = 0
	}
	a.lineFreed[idx] = append(a.lineFreed[idx], base)
	return nil
}

// popFreed serves the most recently freed slot of a class, if any.
func (a *Allocator) popFreed(idx int) (mem.Addr, bool) {
	q := a.lineFreed[idx]
	if len(q) == 0 {
		return 0, false
	}
	p := q[len(q)-1]
	a.lineFreed[idx] = q[:len(q)-1]
	return p, true
}

// allocLine is the central allocation path under LineAlloc: serve the
// freed LIFO first, then consume the class's central span by pointer
// bump, refilling it from the partial queue or a fresh block when
// exhausted. The object's memory is already zero — dead slots are
// zeroed whole by the line sweep and fresh blocks at dedication — so
// the hand-out touches no heap words.
func (a *Allocator) allocLine(class, words int, atomicObj bool, idx int, desperate bool) (mem.Addr, error) {
	p, ok := a.popFreed(idx)
	if !ok {
		s := &a.lineSpans[idx]
		if s.Cursor >= s.Limit {
			ns, err := a.nextSpan(class, atomicObj, idx, desperate)
			if err != nil {
				return 0, err
			}
			*s = ns
		}
		p = s.Cursor
		s.Cursor += mem.Addr(words * mem.WordBytes)
	}
	a.CommitAllocs(1, uint64(words*mem.WordBytes))
	return p, nil
}

// AllocSpan carves a whole bump span of the small size class for
// nwords, for a mutator cache (core.Mutator). A non-empty central
// span is handed over first — the analogue of AllocBatch popping the
// central list head, so flushed remainders are re-issued before new
// carving. Stats are deferred: the consumer counts hand-outs locally
// and publishes via CommitAllocs; ReturnSpan gives an unconsumed tail
// back. ErrNeedMemory propagates with nothing carved.
func (a *Allocator) AllocSpan(nwords int, atomicObj bool) (Span, error) {
	if !a.cfg.LineAlloc {
		return Span{}, fmt.Errorf("alloc: AllocSpan without LineAlloc")
	}
	if nwords < 1 || IsLarge(nwords) {
		return Span{}, fmt.Errorf("alloc: AllocSpan of %d words", nwords)
	}
	class, words := ClassFor(nwords)
	idx := listIdx(class, atomicObj)
	// Freed slots are served before spans, one-slot spans in LIFO order,
	// exactly as AllocBatch would pop them off the rebuilt list head.
	if p, ok := a.popFreed(idx); ok {
		return Span{Cursor: p, Limit: p + mem.Addr(words*mem.WordBytes), Words: words}, nil
	}
	if s := a.lineSpans[idx]; s.Cursor < s.Limit {
		a.lineSpans[idx] = Span{}
		return s, nil
	}
	return a.nextSpan(class, atomicObj, idx, false)
}

// ReturnSpan gives the unconsumed tail [cursor, limit) of a carved
// span back: alloc bits cleared, liveSlots and the line mask
// recomputed, and the block requeued at the back of its class queue —
// so the next carve re-issues exactly this cursor, as ReturnRun's
// push-to-head does for cached runs. It returns the slot count
// returned. Stats are untouched (the slots were never counted). A span
// held across a collection may lie in a sweep-pending block; that block
// is swept first, as in ReturnRun. Without LineAlloc the span is a
// fresh-run carve, and goes back as ReturnRun gives back a run
// (returnFreshSpan).
func (a *Allocator) ReturnSpan(cursor, limit mem.Addr) int {
	if cursor >= limit {
		return 0
	}
	if !a.cfg.LineAlloc {
		return a.returnFreshSpan(cursor, limit)
	}
	bi := a.blockIndex(cursor)
	b := &a.blocks[bi]
	if b.pendingSweep {
		a.sweepBlock(bi)
	}
	words := int(b.objWords)
	n := slotOfWord(int(limit-cursor)/mem.WordBytes, words)
	s0 := slotOfWord(pageWordOff(cursor), words)
	bitRange(b.allocBits, s0, s0+n, false)
	// Drop any mark bits too (born-grey carves and conservative mid-cycle
	// hits both set them): a returned slot must not count toward
	// markedCount, which sweeps treat as the live survey.
	b.markedCount -= int32(bitRange(b.markBits, s0, s0+n, false))
	b.liveSlots -= int16(n)
	b.lineLive = a.lineLiveOf(bi)
	a.requeueLineBlock(bi, b)
	return n
}

// FlushSpans returns every central bump span, so no carved-but-unissued
// slot survives into a mark phase (the collector calls it wherever it
// finishes deferred sweeps; see the package comment above). It returns
// the number of slots returned; a no-op without LineAlloc or with no
// outstanding spans.
func (a *Allocator) FlushSpans() int {
	n := 0
	for idx := range a.lineSpans {
		s := a.lineSpans[idx]
		if s.Cursor >= s.Limit {
			continue
		}
		a.lineSpans[idx] = Span{}
		n += a.ReturnSpan(s.Cursor, s.Limit)
	}
	// Drain the freed LIFO: waiting slots finally drop their alloc bits
	// and become line-free space (the sweep that follows must not count
	// them live, matching the free-list profile where Free cleared the
	// bit immediately).
	for idx := range a.lineFreed {
		for _, p := range a.lineFreed[idx] {
			bi := a.blockIndex(p)
			b := &a.blocks[bi]
			bitClear(b.allocBits, slotOfWord(pageWordOff(p), int(b.objWords)))
			b.liveSlots--
			b.lineLive = a.lineLiveOf(bi)
			a.requeueLineBlock(bi, b)
			n++
		}
		a.lineFreed[idx] = a.lineFreed[idx][:0]
	}
	return n
}

// lineSpanSlots reports the central spans' outstanding slots per index
// (integrity audits account them like mutator-cached slots).
func (a *Allocator) lineSpanSlots(fn func(p mem.Addr)) {
	for idx := range a.lineSpans {
		s := a.lineSpans[idx]
		for p := s.Cursor; p < s.Limit; p += mem.Addr(s.Words * mem.WordBytes) {
			fn(p)
		}
	}
	for idx := range a.lineFreed {
		for _, p := range a.lineFreed[idx] {
			fn(p)
		}
	}
}

// LineStats is the line-heap space accounting: the paper-style
// space-overhead view of bump allocation. WasteSlots counts free
// slots that overlap a live line — space no bump span can reach until
// the rest of the line dies; wholly-free lines are not waste (they
// are carvable). Sweep-pending blocks are skipped: their bitmaps
// still describe the previous cycle.
type LineStats struct {
	LineBlocks int    // small untyped blocks under line management
	TotalLines int    // lines across those blocks
	LiveLines  int    // lines overlapped by an allocated slot
	FreeLines  int    // wholly-free (carvable) lines
	WasteSlots int    // free slots stranded in live lines
	WasteBytes uint64 // the same in bytes
}

// LineStats computes the line-heap space accounting by walking the
// block table; empty (zero) when LineAlloc is off.
func (a *Allocator) LineStats() LineStats {
	var ls LineStats
	if !a.cfg.LineAlloc {
		return ls
	}
	for bi := range a.blocks {
		b := &a.blocks[bi]
		if !a.isLineBlock(b) || b.pendingSweep {
			continue
		}
		words := int(b.objWords)
		nslots := slotsPerBlock(words)
		first := a.firstSlot(words)
		live := bits.OnesCount16(b.lineLive)
		ls.LineBlocks++
		ls.TotalLines += LinesPerBlock
		ls.LiveLines += live
		ls.FreeLines += LinesPerBlock - live
		carvable := 0
		free := ^uint32(b.lineLive) & lineMaskAll
		for free != 0 {
			l0, l1 := nextFreeRun(free)
			free &^= runMask(l0, l1)
			if sLo, sHi := runSlots(l0, l1, words, first, nslots); sHi > sLo {
				carvable += sHi - sLo
			}
		}
		if waste := nslots - first - int(b.liveSlots) - carvable; waste > 0 {
			ls.WasteSlots += waste
			ls.WasteBytes += uint64(waste * words * mem.WordBytes)
		}
	}
	return ls
}

// lineSweepSmall sweeps one line block in place: dead slots are freed
// with their whole body zeroed (the link word included — line slots
// carry no threading, so a future bump hand-out finds clean memory),
// marks are cleared when requested, and the live-line mask is
// recomputed from the surviving alloc bits. No free list is touched.
// Like sweepSmall it does no accounting; the SweepResult was computed
// from the mark summary at the barrier.
func (a *Allocator) lineSweepSmall(bi int, clearMarks bool) {
	b := &a.blocks[bi]
	words := int(b.objWords)
	nslots := slotsPerBlock(words)
	first := a.firstSlot(words)
	hw := a.blockWords(bi)
	for wi := range b.allocBits {
		valid := sweepWordMask(wi, first, nslots)
		if valid != 0 {
			slot0 := wi << 6
			am := b.allocBits[wi] & valid
			mm := b.markBits[wi] & am
			if dead := am &^ mm; dead != 0 {
				b.allocBits[wi] &^= dead
				zeroDeadRuns(hw, dead, slot0, words)
			}
		}
		if clearMarks {
			b.markBits[wi] = 0
		}
	}
	b.liveSlots = int16(b.markedCount)
	if clearMarks {
		b.markedCount = 0
	}
	b.lineLive = a.lineLiveOf(bi)
}

// resetLineQueues empties every partial-block queue (and the queued
// flags) ahead of a sweep barrier's reclassification, mirroring the
// free-list rebuild.
func (a *Allocator) resetLineQueues() {
	if !a.cfg.LineAlloc {
		return
	}
	for idx := range a.linePartial {
		for _, bi := range a.linePartial[idx] {
			if a.blocks[bi].state == blockSmall {
				a.blocks[bi].bumpQueued = false
			}
		}
		a.linePartial[idx] = a.linePartial[idx][:0]
	}
}
