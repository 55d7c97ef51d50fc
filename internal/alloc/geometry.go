package alloc

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mem"
)

// Block geometry kernel: the one place that turns an address into a
// block, a slot and an object base. The candidate validity test runs for
// every root word and every scanned heap field, and the allocation side
// converts an address back to a slot for every object it hands out, so
// neither may execute a hardware division: slot indices come from a
// per-object-size reciprocal, slot counts from a table.

// recipShift is the fixed-point position of slotRecip. With
// recip = ceil(2^20 / w) = 2^20/w + e, 0 ≤ e < 1,
//
//	off*recip / 2^20 = off/w + off*e/2^20,
//
// and the floor equals floor(off/w) as long as the error term stays
// below 1/w, the distance from the largest possible fractional part
// (w-1)/w to the next integer: off*e/2^20 < 1/w holds whenever
// off*w < 2^20. Blocks are 1024 words and small objects at most 512,
// so every word offset below 2048 — a block, plus the round-up slack of
// the line carver — is exact, and the product fits 32 bits.
const (
	recipShift   = 20
	maxExactWord = 2*mem.PageWords - 1
)

var (
	// slotRecip[w] is ceil(2^20 / w); see slotOfWord.
	slotRecip [MaxSmallWords + 1]uint32
	// slotCount[w] is how many w-word objects fit in one block.
	slotCount [MaxSmallWords + 1]uint16
)

func init() {
	for w := 1; w <= MaxSmallWords; w++ {
		slotRecip[w] = uint32((1<<recipShift + w - 1) / w)
		slotCount[w] = uint16(mem.PageWords / w)
	}
}

// slotOfWord returns wordOff / w by multiply and shift; exact for
// 0 ≤ wordOff ≤ maxExactWord and 1 ≤ w ≤ MaxSmallWords.
func slotOfWord(wordOff, w int) int {
	return int(uint32(wordOff) * slotRecip[w] >> recipShift)
}

// slotsPerBlock returns how many objects of w words fit in one block.
func slotsPerBlock(w int) int { return int(slotCount[w]) }

// pageWordOff returns p's word offset within its block. Every extent is
// page-aligned, so the offset is the address's low bits.
func pageWordOff(p mem.Addr) int { return int(p&(mem.PageBytes-1)) / mem.WordBytes }

// slotAt returns the block holding p and the index of the slot p falls
// in. p must lie in a committed small block; the allocation side uses it
// for addresses it threaded or carved itself.
func (a *Allocator) slotAt(p mem.Addr) (*blockDesc, int) {
	b := &a.blocks[a.blockIndex(p)]
	return b, slotOfWord(pageWordOff(p), int(b.objWords))
}

// slotAddr returns the address of a slot in the w-word block at base.
func slotAddr(base mem.Addr, slot, w int) mem.Addr {
	return base + mem.Addr(slot*w*mem.WordBytes)
}

// resolve is the pointer validity check: it maps a candidate value to
// the block, slot and base address of the allocated object it refers
// to. interior selects the policy — any address inside an object, or
// exact bases only. ok is false for values outside the committed heap,
// free blocks, free slots, block-tail waste, interior addresses under
// the base-only policy, and addresses past the first page of an
// ignore-off-page object. Large objects resolve to slot 0 of their head
// block, whose one-word bitmap holds their mark.
//
// Everything that asks "is this an object?" — FindObject, the mark
// entry points, IsAllocated — goes through here, so the rules exist
// once.
func (a *Allocator) resolve(p mem.Addr, interior bool) (b *blockDesc, slot int, base mem.Addr, ok bool) {
	var bi int
	if len(a.extents) == 1 {
		// The test runs for every candidate, so the common single-extent
		// heap avoids the extent search: its block table covers exactly
		// the committed pages from hullLo up, and a value below hullLo
		// wraps to an index past any table.
		bi = int((p - a.hullLo) / mem.PageBytes)
		if bi >= len(a.blocks) {
			return nil, 0, 0, false
		}
	} else {
		e := a.extentOfAddr(p)
		if e == nil {
			return nil, 0, 0, false
		}
		bi = e.startBlock + int((p-e.seg.Base())/mem.PageBytes)
	}
	b = &a.blocks[bi]
	base = mem.AlignPageDown(p)
	switch b.state {
	case blockSmall:
		w := int(b.objWords)
		slot = slotOfWord(pageWordOff(p), w)
		if slot >= slotsPerBlock(w) {
			return nil, 0, 0, false // block-tail waste
		}
		if !bitGet(b.allocBits, slot) {
			return nil, 0, 0, false
		}
		base = slotAddr(base, slot, w)
		if p != base && !interior {
			return nil, 0, 0, false
		}
		return b, slot, base, true
	case blockLargeCont:
		if !interior {
			return nil, 0, 0, false
		}
		// A span never crosses extents, so the head is spanLen whole
		// pages below in both index and address.
		base -= mem.Addr(b.spanLen) * mem.PageBytes
		b = &a.blocks[bi-int(b.spanLen)]
		if b.ignoreOffPage {
			// The client promised to keep a first-page pointer; deep
			// interior candidates are invalid (observation 7).
			return nil, 0, 0, false
		}
		fallthrough
	case blockLargeHead:
		if p == base || interior && p < base+mem.Addr(b.objWords)*mem.WordBytes {
			return b, 0, base, true
		}
	}
	return nil, 0, 0, false
}

// atomicSetBit sets bit i of bits with a CAS loop, returning true if
// this call changed it from 0 to 1 (exactly one of any set of
// concurrent callers wins).
func atomicSetBit(bits []uint64, i int) bool {
	w := &bits[i>>6]
	m := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&m != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|m) {
			return true
		}
	}
}

// setMark sets the mark bit of slot, by compare-and-swap when cas is
// set, and maintains the block's mark summary. It reports whether this
// call made the transition: under cas exactly one of any set of
// concurrent callers wins, so the summary add runs once per object and
// equals the bitmap's population count at the barrier. The plain path
// stays non-atomic so serial marking pays nothing for the capability.
func (b *blockDesc) setMark(slot int, cas bool) bool {
	if cas {
		if !atomicSetBit(b.markBits, slot) {
			return false
		}
		atomic.AddInt32(&b.markedCount, 1)
		return true
	}
	if bitGet(b.markBits, slot) {
		return false
	}
	bitSet(b.markBits, slot)
	b.markedCount++
	return true
}

// FindObject resolves a candidate pointer value to an object base
// address. interior selects the pointer-validity policy: when true, any
// address strictly inside an allocated object (any byte offset) is
// valid; when false only the exact base address is. ok is false for
// free slots, block-interior waste, unmapped candidates, and (in
// base-only mode) interior addresses.
//
// This is the paper's "pointer validity check"; the caller is
// responsible for the companion "heap proximity check" (InVicinity) and
// for blacklisting failures.
func (a *Allocator) FindObject(p mem.Addr, interior bool) (mem.Addr, bool) {
	_, _, base, ok := a.resolve(p, interior)
	return base, ok
}

// IsAllocated reports whether base is the base address of a currently
// allocated object. Experiments use it to measure retention after a
// collection. An object in a sweep-pending block whose mark bit is
// clear was classified dead by the last collection — only its
// reclamation is deferred — so it reports as not allocated, keeping
// retention measurements identical between lazy and eager sweeping.
func (a *Allocator) IsAllocated(base mem.Addr) bool {
	b, slot, _, ok := a.resolve(base, false)
	return ok && (!b.pendingSweep || bitGet(b.markBits, slot))
}

// Mark sets the mark bit for the object with the given base address,
// returning true if it was not previously marked. It panics if base is
// not the base of an allocated object.
func (a *Allocator) Mark(base mem.Addr) bool { return a.markBase(base, false) }

// MarkAtomic is Mark with the bit set by compare-and-swap, safe for
// concurrent use by parallel mark workers: for any object exactly one
// concurrent caller observes true.
func (a *Allocator) MarkAtomic(base mem.Addr) bool { return a.markBase(base, true) }

func (a *Allocator) markBase(base mem.Addr, cas bool) bool {
	b, slot, _, ok := a.resolve(base, false)
	if !ok {
		panic(fmt.Sprintf("alloc: Mark(%#x) on a non-object", uint32(base)))
	}
	return b.setMark(slot, cas)
}

// Marked reports whether the object at base is marked; false when base
// is not an object base.
func (a *Allocator) Marked(base mem.Addr) bool {
	b, slot, _, ok := a.resolve(base, false)
	return ok && bitGet(b.markBits, slot)
}

// MarkOutcome is what MarkCandidate did with a candidate value.
type MarkOutcome uint8

// Mark outcomes.
const (
	// NotObject: the value is not a valid object address under the
	// policy; nothing was marked.
	NotObject MarkOutcome = iota
	// Already: a valid reference to an object marked before this call
	// (possibly by a concurrent worker).
	Already
	// WonScan: this call marked the object, and its contents must be
	// scanned.
	WonScan
	// WonAtomic: this call marked the object, which is pointer-free.
	WonAtomic
)

// MarkCandidate is the mark loop's whole per-candidate step in one
// block lookup: the validity check of FindObject, the mark-bit
// transition of Mark (MarkAtomic when cas is set), and the size and
// atomicity ObjectSpan would report. base and words are valid for every
// outcome but NotObject.
func (a *Allocator) MarkCandidate(p mem.Addr, interior, cas bool) (base mem.Addr, words int, out MarkOutcome) {
	b, slot, base, ok := a.resolve(p, interior)
	if !ok {
		return 0, 0, NotObject
	}
	words = int(b.objWords)
	switch {
	case !b.setMark(slot, cas):
		out = Already
	case b.atomic:
		out = WonAtomic
	default:
		out = WonScan
	}
	return base, words, out
}

// ObjectSpan returns the size in words and atomicity of the object at
// base (which must be an object base address).
func (a *Allocator) ObjectSpan(base mem.Addr) (words int, atomic bool) {
	b := &a.blocks[a.blockIndex(base)]
	return int(b.objWords), b.atomic
}
