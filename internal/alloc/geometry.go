package alloc

import (
	"fmt"

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
// so every word offset below 2048 — twice a block — is exact, and the
// product fits 32 bits.
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

// slotAddr returns the address of a slot in the w-word block at base.
func slotAddr(base mem.Addr, slot, w int) mem.Addr {
	return base + mem.Addr(slot*w*mem.WordBytes)
}

// markMode says what resolve does with a valid object's mark bit.
type markMode uint8

const (
	markNone markMode = iota // validity only: the bit is left alone
	markSet                  // set it
)

// resolve is the pointer validity check: it maps a candidate value to
// the block and slot of the allocated object it refers to, and to the
// object's span (g: base, size, scan kind). interior selects the policy
// — any address inside an object, or exact bases only. out is NotObject
// for values outside the committed heap, free blocks, free slots,
// block-tail waste, interior addresses under the base-only policy, and
// addresses past the first page of an ignore-off-page object. Large
// objects resolve to slot 0 of their head block, whose one-word bitmap
// holds their mark.
//
// mode folds the mark-bit transition into the same lookup, so that a
// candidate the mark loop cannot settle inline is this one call: out is
// WonScan or WonAtomic when this call set the bit, Already when the
// object is valid and the bit was not set by this call — it was set
// before, or mode is markNone.
//
// Everything that asks "is this an object?" — FindObject, the mark
// entry points, IsAllocated — goes through here, and the mark loop
// (Scan) shares its small-block rule, smallSlot, so the rules exist
// once.
func (a *Allocator) resolve(p mem.Addr, interior bool, mode markMode) (b *blockDesc, slot int, g Gray, out MarkOutcome) {
	var bi int
	if len(a.extents) == 1 {
		// The test runs for every candidate, so the common single-extent
		// heap avoids the extent search: its block table covers exactly
		// the committed pages from hullLo up, and a value below hullLo
		// wraps to an index past any table.
		bi = int((p - a.hullLo) / mem.PageBytes)
		if bi >= len(a.blocks) {
			return nil, 0, 0, NotObject
		}
	} else {
		e := a.extentOfAddr(p)
		if e == nil {
			return nil, 0, 0, NotObject
		}
		bi = e.startBlock + int((p-e.seg.Base())/mem.PageBytes)
	}
	b = &a.blocks[bi]
	base := mem.AlignPageDown(p)
	switch b.state {
	case blockSmall:
		var ok bool
		if slot, base, ok = b.smallSlot(p, interior); !ok {
			return nil, 0, 0, NotObject
		}
	case blockLargeCont:
		if !interior {
			return nil, 0, 0, NotObject
		}
		// A span never crosses extents, so the head is spanLen whole
		// pages below in both index and address.
		base -= mem.Addr(b.spanLen) * mem.PageBytes
		b = &a.blocks[bi-int(b.spanLen)]
		if b.ignoreOffPage {
			// The client promised to keep a first-page pointer; deep
			// interior candidates are invalid (observation 7).
			return nil, 0, 0, NotObject
		}
		fallthrough
	case blockLargeHead:
		if p != base && !(interior && p < base+mem.Addr(b.objWords)*mem.WordBytes) {
			return nil, 0, 0, NotObject
		}
	default:
		return nil, 0, 0, NotObject
	}
	// The outcome is arithmetic on what the transition reports (see
	// setMark): Already, plus one if this call set the bit, plus one
	// more if the object is pointer-free.
	var won MarkOutcome
	if mode == markSet {
		won = b.setMark(slot)
	}
	out = Already + won
	if b.atomic {
		out += won
	}
	return b, slot, b.gray(base), out
}

// smallSlot is the small-block validity rule, stated once for resolve
// and Scan: p, in small block b, falls in slot, whose object is at base.
// ok is false for block-tail waste, an interior p under the base-only
// policy and a free slot. The cached geometry spares a table load.
func (b *blockDesc) smallSlot(p mem.Addr, interior bool) (slot int, base mem.Addr, ok bool) {
	slot = int(uint32(pageWordOff(p)) * b.slotRecip >> recipShift)
	base = slotAddr(mem.AlignPageDown(p), slot, int(b.objWords))
	ok = slot < int(b.slots) && (p == base || interior) && bitGet(b.allocBits, slot)
	return
}

// setMark sets the mark bit of slot and maintains the block's mark
// summary. It returns 1 if the bit was clear and 0 if it was set
// already — as a number, because on a live graph that is a coin toss
// the branch predictor loses on about every other edge: the word is
// stored either way and nothing here or in the mark loop branches on
// the answer.
func (b *blockDesc) setMark(slot int) MarkOutcome {
	word, sh := &b.markBits[slot>>6], uint(slot)&63
	old := *word
	fresh := ^old >> sh & 1
	*word = old | 1<<sh
	b.markedCount += int32(fresh)
	return MarkOutcome(fresh)
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
	_, _, g, out := a.resolve(p, interior, markNone)
	return g.Base(), out != NotObject
}

// IsAllocated reports whether base is the base address of a currently
// allocated object. Experiments use it to measure retention after a
// collection. An object in a sweep-pending block whose mark bit is
// clear was classified dead by the last collection — only its
// reclamation is deferred — so it reports as not allocated, keeping
// retention measurements identical between lazy and eager sweeping.
func (a *Allocator) IsAllocated(base mem.Addr) bool {
	b, slot, _, out := a.resolve(base, false, markNone)
	return out != NotObject && (!b.pendingSweep || bitGet(b.markBits, slot))
}

// Mark sets the mark bit for the object with the given base address,
// returning true if it was not previously marked. It panics if base is
// not the base of an allocated object.
func (a *Allocator) Mark(base mem.Addr) bool {
	_, _, _, out := a.resolve(base, false, markSet)
	if out == NotObject {
		panic(fmt.Sprintf("alloc: Mark(%#x) on a non-object", uint32(base)))
	}
	return out != Already
}

// Marked reports whether the object at base is marked; false when base
// is not an object base.
func (a *Allocator) Marked(base mem.Addr) bool {
	b, slot, _, out := a.resolve(base, false, markNone)
	return out != NotObject && bitGet(b.markBits, slot)
}

// MarkOutcome is what MarkCandidate did with a candidate value.
type MarkOutcome uint8

// Mark outcomes. The values are laid out so that Won is a shift.
const (
	// NotObject: the value is not a valid object address under the
	// policy; nothing was marked.
	NotObject MarkOutcome = iota
	// Already: a valid reference to an object whose mark this call did
	// not set: it was marked before.
	Already
	// WonScan: this call marked the object, and its contents must be
	// scanned.
	WonScan
	// WonAtomic: this call marked the object, which is pointer-free.
	WonAtomic
)

// Won is 1 if the call set the object's mark bit and 0 otherwise, as a
// number so that callers can count and push without branching on it.
func (o MarkOutcome) Won() int { return int(o >> 1) }

// Gray is a mark-stack entry: a marked object whose contents are still
// to be scanned, carried as its span so that popping it needs no block
// lookup — base address in the low 32 bits, size in words in the next
// 31 (a 32-bit address space holds at most 2^30 words), and the top bit
// set when the object's block has a layout descriptor. Entries are
// valid for the mark phase that produced them: nothing the collector
// does between a push and the pop moves or resizes an object.
type Gray uint64

const grayTyped Gray = 1 << 63

// Base returns the object's base address.
func (g Gray) Base() mem.Addr { return mem.Addr(uint32(g)) }

// Words returns the object's size in words.
func (g Gray) Words() int { return int(g &^ grayTyped >> 32) }

// Typed reports whether only the words a descriptor names are scanned
// (PointerMask returns it).
func (g Gray) Typed() bool { return g&grayTyped != 0 }

// gray builds the entry for the object at base in block b (a small
// block, or a large object's head).
func (b *blockDesc) gray(base mem.Addr) Gray {
	g := Gray(base) | Gray(b.objWords)<<32
	if b.desc >= 0 {
		g |= grayTyped
	}
	return g
}

// MarkCandidate is the mark loop's whole per-candidate step in one
// block lookup: the validity check of FindObject, the mark-bit
// transition of Mark, and the span and scan kind the loop needs to
// account for the object and queue it. g is valid for every outcome but
// NotObject. It is the step Scan takes for a candidate its inline
// small-block lookup does not cover, offered one candidate at a time.
func (a *Allocator) MarkCandidate(p mem.Addr, interior bool) (g Gray, out MarkOutcome) {
	_, _, g, out = a.resolve(p, interior, markSet)
	return
}

// ScanView is the by-base way to a gray entry, for callers that hold an
// object's address rather than a popped entry (dirty-block rescans):
// one block lookup from base, which must be an object base address.
// scanned is false for a pointer-free object, which is never queued.
func (a *Allocator) ScanView(base mem.Addr) (g Gray, scanned bool) {
	b := &a.blocks[a.blockIndex(base)]
	return b.gray(base), !b.atomic
}

// GrayWords returns the heap words of g's object, on any heap. Objects
// never span extents, so the slice is contiguous.
func (a *Allocator) GrayWords(g Gray) []mem.Word {
	ws, lo := a.words0, a.hullLo
	if len(a.extents) > 1 {
		seg := a.extentOfAddr(g.Base()).seg
		ws, lo = seg.Words(), seg.Base()
	}
	off := int(g.Base()-lo) / mem.WordBytes
	return ws[off : off+g.Words()]
}

// PointerMask returns the pointer bitmap of a typed entry's layout
// descriptor: bit i (LSB-first across the slice) is set when word i of
// the object may hold a pointer.
func (a *Allocator) PointerMask(g Gray) []uint64 {
	return a.descriptors[a.blocks[a.blockIndex(g.Base())].desc].Pointers
}

// ObjectSpan returns the size in words and atomicity of the object at
// base (which must be an object base address).
func (a *Allocator) ObjectSpan(base mem.Addr) (words int, atomic bool) {
	b := &a.blocks[a.blockIndex(base)]
	return int(b.objWords), b.atomic
}
