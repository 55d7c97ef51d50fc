// Package alloc implements the garbage-collected heap allocator, closely
// following the organisation of the collector the paper measures
// (Boehm & Weiser 1988; Boehm, PLDI 1993).
//
// The heap is a contiguous reserved region of the simulated address
// space, committed on demand in block (page) units of 4 KiB. Each
// dedicated block holds objects of a single size class; a block's
// metadata records, per object slot, whether the slot is allocated and
// whether it is marked. Objects larger than half a block occupy a
// contiguous span of blocks. The free slots of each size class are read
// from the alloc bitmaps: the sweep rebuilds each class's list of
// blocks with free slots after every collection, and allocation carves
// the next maximal run of free slots (holes.go).
//
// Two of the paper's space-efficiency techniques live here:
//
//   - Blacklist avoidance (section 3): before dedicating fresh blocks,
//     the allocator consults the blacklist. A blacklisted page is never
//     used for ordinary objects; it may optionally be used for small
//     pointer-free objects, "because the objects are small and known not
//     to contain pointers". When interior pointers are recognised, large
//     objects additionally must not span any blacklisted page.
//
//   - Address-ordered free block management (conclusions): keeping free
//     blocks sorted by address and coalescing neighbours "increases the
//     probability that related objects are allocated together, and thus
//     increases the probability of large chunks of adjacent space
//     becoming available in the future, decreasing fragmentation". A
//     LIFO policy is provided for the ablation benchmark.
//
// The allocator never collects; when it cannot satisfy a request it
// returns ErrNeedMemory, and the collector (internal/core) decides
// whether to collect, expand the heap, or give up.
package alloc

import (
	"errors"
	"fmt"

	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/trace"
)

// ErrNeedMemory reports that a request cannot be satisfied from the
// current size-class lists and free blocks; the caller should collect and/or
// expand the heap and retry.
var ErrNeedMemory = errors.New("alloc: need memory (collect or expand)")

// ErrHeapExhausted reports that the heap's reserved region is fully
// committed, so no further expansion is possible.
var ErrHeapExhausted = errors.New("alloc: heap reservation exhausted")

// MaxSmallWords is the largest object size, in words, served from
// size-class blocks. Larger requests get contiguous block spans.
const MaxSmallWords = 512

// classWords lists the object sizes (in words) of the small size
// classes, the same geometric-ish progression used by the paper's
// collector.
var classWords = []int{
	1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64,
	80, 96, 128, 170, 256, 341, 512,
}

// NumClasses is the number of small size classes.
var NumClasses = len(classWords)

// classOf maps a request size in words to a size-class index.
var classOf [MaxSmallWords + 1]uint8

func init() {
	c := 0
	for w := 1; w <= MaxSmallWords; w++ {
		if w > classWords[c] {
			c++
		}
		classOf[w] = uint8(c)
	}
}

// ClassFor returns the size-class index and the rounded object size in
// words for a small request. It panics if nwords is out of range; use
// IsLarge first.
func ClassFor(nwords int) (class int, words int) {
	if uint(nwords-1) >= MaxSmallWords {
		classRangePanic(nwords)
	}
	c := int(classOf[nwords])
	return c, classWords[c]
}

// classRangePanic is ClassFor's panic, kept out of line so that ClassFor
// stays within the compiler's inlining budget: it runs on every
// fast-path allocation.
//
//go:noinline
func classRangePanic(nwords int) {
	panic(fmt.Sprintf("alloc: ClassFor(%d) out of small range", nwords))
}

// ListIndex returns the free-list index of a small request of nwords
// words (see listIdx). Unlike ClassFor it leaves the range check to its
// caller, which has made it, so that it inlines into an allocation
// fast path together with the cache lookup it feeds.
func ListIndex(nwords int, atomic bool) int { return listIdx(int(classOf[nwords]), atomic) }

// IsLarge reports whether a request of nwords words is served as a
// large (block-span) object.
func IsLarge(nwords int) bool { return nwords > MaxSmallWords }

// listIdx returns the free-list index of a size class. The paper's
// collector keeps separate free lists for atomic and composite objects;
// atomicity is folded into the index.
func listIdx(class int, atomic bool) int {
	if atomic {
		return class + NumClasses
	}
	return class
}

// FreeBlockPolicy selects how free blocks are kept.
type FreeBlockPolicy int

// Free block policies.
const (
	// AddressOrdered keeps free spans sorted by address with coalescing
	// (the paper's recommendation).
	AddressOrdered FreeBlockPolicy = iota
	// LIFO pushes released spans on a stack without coalescing, like a
	// naive malloc; used by the fragmentation ablation.
	LIFO
)

// Config parameterises the allocator.
type Config struct {
	// HeapBase is the first address of the heap region. It must be
	// page-aligned and nonzero.
	HeapBase mem.Addr
	// InitialBytes is the initially committed heap size (rounded up to
	// pages).
	InitialBytes int
	// ReserveBytes is the maximum heap size (rounded up to pages). The
	// whole reserved region counts as "the vicinity of the heap" for
	// blacklisting purposes.
	ReserveBytes int
	// ExpandIncrement is the minimum expansion unit in bytes (default
	// 256 KiB). The paper notes that blacklisting's space cost "is
	// dominated by the heap expansion increment".
	ExpandIncrement int
	// Blacklist is consulted before dedicating blocks. nil means
	// blacklist.Disabled.
	Blacklist blacklist.List
	// InteriorPointers must mirror the collector's pointer policy: when
	// true, large objects must not span any blacklisted page; when
	// false, only an object's first page matters (paper, observation 7).
	InteriorPointers bool
	// AllowAtomicOnBlacklisted lets small pointer-free objects, of at
	// most atomicBlacklistMaxWords words, be allocated on blacklisted
	// pages (paper, observation 6: in PCedar "there are enough
	// allocations of small objects known to be pointer-free that
	// blacklisted pages can still be allocated").
	AllowAtomicOnBlacklisted bool
	// FreeBlocks selects the free block policy (default AddressOrdered).
	FreeBlocks FreeBlockPolicy
	// SkipPageBoundarySlot avoids handing out objects whose address is a
	// block boundary (12 trailing zero bits) for 1- and 2-word classes,
	// implementing the paper's observation that misidentification drops
	// "if objects are not allocated at addresses containing a large
	// number of trailing zeroes". The first slot of such blocks is
	// sacrificed.
	SkipPageBoundarySlot bool
	// LazySweep chooses when the collection barrier's per-slot work on
	// mixed blocks is done. Sweep/SweepSticky classify every block from
	// its mark summary either way — releasing empty blocks, skipping
	// fully-live ones — and compute the SweepResult there. Off (the
	// default, the paper's collector), each mixed block is swept on the
	// spot; on, it is queued, refill sweeps queued blocks on demand, and
	// FinishSweep completes any remainder. Reclamation totals and
	// allocation addresses are the same under both settings.
	LazySweep bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ExpandIncrement <= 0 {
		out.ExpandIncrement = 256 * 1024
	}
	if out.Blacklist == nil {
		out.Blacklist = blacklist.Disabled{}
	}
	out.InitialBytes = mem.PageCount(out.InitialBytes) * mem.PageBytes
	out.ReserveBytes = mem.PageCount(out.ReserveBytes) * mem.PageBytes
	return out
}

// atomicBlacklistMaxWords bounds "small" for AllowAtomicOnBlacklisted.
const atomicBlacklistMaxWords = 16

// blockState classifies a committed block.
type blockState uint8

const (
	blockFree blockState = iota
	blockSmall
	blockLargeHead
	blockLargeCont
)

// blockDesc is the per-block metadata ("block header" in the paper's
// collector, kept off to the side here). The fields the candidate step
// reads (resolve: state, the cached geometry, objWords, the mark
// summary, both bitmap headers) start inside the descriptor's first 64
// bytes; TestBlockDescLayout pins the offsets and the size.
type blockDesc struct {
	state  blockState
	atomic bool
	class  uint8 // small: size-class index
	// pendingSweep marks a block whose sweep was deferred past the
	// collection barrier (Config.LazySweep): its alloc/mark bits still
	// describe the last cycle's liveness, and its free slots are on no
	// list until sweepBlock runs.
	pendingSweep bool
	desc         DescID // small: layout descriptor, or descConservative/descAtomic
	objWords     int32  // small: words per object; large head: object words
	// slotRecip and slots cache the block's geometry (small blocks only,
	// set by newSmallBlock): slotRecip[objWords] and slotCount[objWords],
	// so the candidate step divides and bounds a slot index from the
	// descriptor's own cache line instead of two table loads.
	slotRecip uint32
	slots     uint16
	liveSlots int16 // small: allocated slot count (at most PageWords)
	// ignoreOffPage marks a large object whose client promises to keep
	// a pointer to its first page: interior pointers past that page are
	// treated as invalid (GC_malloc_ignore_off_page in the original
	// collector; the paper's observation 7).
	ignoreOffPage bool
	spanLen       int32 // large head: blocks in span; cont: offset to head
	// markedCount is the block's mark summary: how many of its objects
	// are marked (small: marked slots; large head: 0 or 1), so that after
	// a mark phase the sweeper classifies the block as empty / mixed /
	// fully live in O(1) without reading the bitmap. Every mark-bit
	// transition maintains it (setMark). The byte half of the summary is
	// derived, not stored: blocks hold a single size class, so marked
	// bytes are always markedCount × objWords × WordBytes (see
	// markedBytes).
	markedCount int32
	// markBits ⊆ allocBits at every audit point (CheckIntegrity). Large
	// heads have a one-word markBits and no allocBits.
	markBits  []uint64
	allocBits []uint64
}

// newSmallBlock dedicates block bi to objects of words words in size
// class class, scanned as desc says, with empty bitmaps. It is the one
// place a small block's descriptor is built, and so the one place its
// cached geometry is set.
func (a *Allocator) newSmallBlock(bi, class, words int, desc DescID) {
	n := (slotsPerBlock(words) + 63) / 64
	a.blocks[bi] = blockDesc{
		state:     blockSmall,
		atomic:    desc == descAtomic,
		class:     uint8(class),
		desc:      desc,
		objWords:  int32(words),
		slotRecip: slotRecip[words],
		slots:     slotCount[words],
		markBits:  make([]uint64, n),
		allocBits: make([]uint64, n),
	}
}

// span is a run of free blocks [start, start+n).
type span struct {
	start int // block index
	n     int
}

// Stats reports allocator activity.
type Stats struct {
	BytesAllocated   uint64 // cumulative
	ObjectsAllocated uint64 // cumulative
	BytesLive        uint64 // after the last sweep
	ObjectsLive      uint64 // after the last sweep
	HeapBytes        int    // committed heap size
	BlocksDedicated  int
	BlocksFree       int
	BlacklistSkips   uint64 // blocks passed over because blacklisted
	Expansions       int
	BytesSinceGC     uint64 // allocation since the last ResetSinceGC
	// DesperateAllocs counts allocations that had to use blacklisted
	// pages because nothing else was available (see AllocDesperate) —
	// the real collector's "needed to allocate blacklisted block"
	// warning.
	DesperateAllocs uint64
	// LazySweptBlocks counts blocks whose sweep was deferred past a
	// collection barrier and completed later, by refill or FinishSweep
	// (LazySweep only).
	LazySweptBlocks uint64
}

// Allocator manages the simulated collected heap.
type Allocator struct {
	cfg    Config
	seg    *mem.Segment // the heap: block i is the page at hullLo + i pages
	blocks []blockDesc
	free   []span // per FreeBlocks policy
	// lists[idx] is the free space of each size class, atomicity folded
	// into idx (listIdx); typed holds the lists of typed (class,
	// descriptor) blocks, and descriptors registers object layouts
	// (holes.go, typed.go).
	lists       [64]slotList
	typed       map[typedKey]*slotList
	descriptors []Descriptor
	// dirty holds one bit per committed block, set by MarkDirty (the
	// generational write barrier) and consumed by minor collections.
	dirty []uint64
	stats Stats
	// Lazy sweeping state (Config.LazySweep): pendingBlocks counts blocks
	// still flagged pendingSweep (a list's queue entries for blocks
	// already swept are skipped on pop); lazyClearMarks records whether
	// deferred sweeps clear mark bits (full cycle) or preserve them
	// (sticky minor cycle).
	pendingBlocks  int
	lazyClearMarks bool
	// Per-tenant ownership attribution (owners.go): owners runs parallel
	// to blocks and holds, per block with records, the owning tenant of
	// each slot; ownerRecords counts the records across all blocks;
	// ownerSpare recycles the id arrays of blocks that lost their last
	// record, one list per array length; ownerCredit returns dead
	// objects' bytes to their tenant. All nil/zero until the first
	// budgeted tenant tags an object — untenanted worlds pay nothing.
	owners       []ownerBlock
	ownerRecords int
	ownerSpare   [][][]int32
	ownerCredit  func(id int32, objects, bytes uint64)
	// hullLo/hullHi are the heap's reserved range, fixed at New: every
	// address the heap could ever commit lies in [hullLo, hullHi). The
	// marker's candidate fast path rejects the common non-pointer root
	// word with these two compares.
	hullLo, hullHi mem.Addr
	// words caches seg.Words(), the whole committed heap, so the mark
	// loop (Scan) slices a popped object's words without chasing the
	// segment pointer. Refreshed by Expand, the only place the heap
	// segment grows.
	words []mem.Word
	// tracer receives heap-expansion, desperate-allocation and lazy
	// sweep-drain events; nil (the default) disables them.
	tracer *trace.Recorder
}

// typedKey identifies a typed list.
type typedKey struct {
	class int
	desc  DescID
}

// New creates an allocator, mapping the heap segment into space.
func New(space *mem.AddressSpace, cfg Config) (*Allocator, error) {
	c := cfg.withDefaults()
	if c.HeapBase == 0 || c.HeapBase%mem.PageBytes != 0 {
		return nil, fmt.Errorf("alloc: heap base %#x not page-aligned", uint32(c.HeapBase))
	}
	if c.ReserveBytes < mem.PageBytes || c.InitialBytes > c.ReserveBytes {
		return nil, fmt.Errorf("alloc: bad sizes initial=%d reserve=%d", c.InitialBytes, c.ReserveBytes)
	}
	seg, err := space.MapNew("heap", mem.KindHeap, c.HeapBase, c.InitialBytes, c.ReserveBytes)
	if err != nil {
		return nil, err
	}
	a := &Allocator{
		cfg:    c,
		seg:    seg,
		typed:  map[typedKey]*slotList{},
		hullLo: seg.Base(),
		hullHi: seg.ReservedLimit(),
		words:  seg.Words(),
	}
	n := c.InitialBytes / mem.PageBytes
	a.blocks = make([]blockDesc, n)
	a.dirty = make([]uint64, (n+63)/64)
	if n > 0 {
		a.releaseSpan(0, n)
	}
	a.stats.HeapBytes = c.InitialBytes
	a.stats.BlocksFree = n
	return a, nil
}

// Seg returns the heap segment.
func (a *Allocator) Seg() *mem.Segment { return a.seg }

// Base returns the heap's lowest address.
func (a *Allocator) Base() mem.Addr { return a.hullLo }

// Limit returns the first address past the committed heap.
func (a *Allocator) Limit() mem.Addr { return a.seg.Limit() }

// Hull returns the heap's reserved range [lo, hi), which New fixes and
// growth never moves. A value outside it can be neither a valid object
// address nor "in the vicinity of the heap", so the marker rejects it
// with two compares.
func (a *Allocator) Hull() (lo, hi mem.Addr) { return a.hullLo, a.hullHi }

// InVicinity reports whether p falls in the heap's reserved region —
// the paper's test for values that "could conceivably become valid
// object addresses as a result of later allocation".
func (a *Allocator) InVicinity(p mem.Addr) bool { return p >= a.hullLo && p < a.hullHi }

// InCommitted reports whether p falls in the committed heap.
func (a *Allocator) InCommitted(p mem.Addr) bool { return a.seg.Contains(p) }

// blockWords returns the PageWords-long word slice backing block bi.
func (a *Allocator) blockWords(bi int) []mem.Word {
	return a.words[bi*mem.PageWords:][:mem.PageWords]
}

// loadWord reads heap memory by address.
func (a *Allocator) loadWord(p mem.Addr) (mem.Word, error) {
	if !a.seg.Contains(p) {
		return 0, fmt.Errorf("alloc: load outside heap at %#x", uint32(p))
	}
	return a.seg.Load(p)
}

// NumBlocks returns the number of committed blocks.
func (a *Allocator) NumBlocks() int { return len(a.blocks) }

// blockBase returns the address of block i.
func (a *Allocator) blockBase(i int) mem.Addr { return a.hullLo + mem.Addr(i*mem.PageBytes) }

// blockIndex returns the index of the block containing p, which must be
// in the committed heap.
func (a *Allocator) blockIndex(p mem.Addr) int { return int(p-a.hullLo) / mem.PageBytes }

func bitGet(bits []uint64, i int) bool { return bits[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitSet(bits []uint64, i int)      { bits[i>>6] |= 1 << (uint(i) & 63) }
func bitClear(bits []uint64, i int)    { bits[i>>6] &^= 1 << (uint(i) & 63) }

// firstSlot returns the first usable slot index of a small block of the
// given class under the SkipPageBoundarySlot option.
func (a *Allocator) firstSlot(objWords int) int {
	if a.cfg.SkipPageBoundarySlot && objWords <= 2 {
		return 1
	}
	return 0
}

// Alloc allocates an object of nwords words (nwords ≥ 1). atomic marks
// the object as pointer-free: the collector will not scan its contents,
// the paper's defence against "large amounts of compressed data"
// introducing false pointers. The object's words are zero on return.
//
// Alloc returns ErrNeedMemory when the request cannot be satisfied
// without collecting or expanding; the caller retries after doing so.
func (a *Allocator) Alloc(nwords int, atomic bool) (mem.Addr, error) {
	return a.alloc(nwords, atomic, false)
}

// AllocDesperate is Alloc with the blacklist constraint relaxed: when
// no clean placement exists, a blacklisted page is used rather than
// failing. The real collector falls back the same way (with a
// "needed to allocate blacklisted block" warning) when the alternative
// is unbounded heap growth; the paper permits it for objects from
// which "very little memory will ever be reachable", and the caller is
// expected to have exhausted collection and expansion first.
func (a *Allocator) AllocDesperate(nwords int, atomic bool) (mem.Addr, error) {
	return a.alloc(nwords, atomic, true)
}

// AllocIgnoreOffPage allocates a large object under the client promise
// that a pointer to its first page is kept while it is live. Interior
// pointers beyond the first page are then treated as invalid, so the
// object neither needs a blacklist-free span nor suffers observation
// 7's placement difficulty — GC_malloc_ignore_off_page in the original
// collector ("this is never a problem if addresses that do not point
// to the first page of an object can be considered invalid").
func (a *Allocator) AllocIgnoreOffPage(nwords int, atomic bool) (mem.Addr, error) {
	if !IsLarge(nwords) {
		// Small objects never span pages; the promise is vacuous.
		return a.alloc(nwords, atomic, false)
	}
	return a.allocLarge(nwords, atomic, false, true)
}

func (a *Allocator) alloc(nwords int, atomic, desperate bool) (mem.Addr, error) {
	if nwords < 1 {
		return 0, fmt.Errorf("alloc: bad size %d", nwords)
	}
	if IsLarge(nwords) {
		return a.allocLarge(nwords, atomic, desperate, false)
	}
	class, words := ClassFor(nwords)
	s, err := a.takeHole(&a.lists[listIdx(class, atomic)], class, untypedDesc(atomic), 1, desperate)
	if err != nil {
		return 0, err
	}
	a.CommitAllocs(1, uint64(words*mem.WordBytes))
	return s.Cursor, nil
}

// freshBlock dedicates a free block to size class class, scanned as desc
// says, and zeroes it: the one fresh-block step of every list's refill
// (takeHole). The blacklist decides which block may be used
// (spanOK, AllowAtomicOnBlacklisted, desperate). ok is false when none.
func (a *Allocator) freshBlock(class int, desc DescID, desperate bool) (bi int, ok bool) {
	words := classWords[class]
	anyPageOK := desperate || (desc == descAtomic && a.cfg.AllowAtomicOnBlacklisted &&
		words <= atomicBlacklistMaxWords)
	if bi, ok = a.acquireSpan(1, anyPageOK); !ok {
		return 0, false
	}
	if desperate && a.cfg.Blacklist.Contains(a.blockBase(bi)) {
		a.stats.DesperateAllocs++
		a.tracer.Emit(trace.EvDesperateAlloc, int64(a.blockBase(bi)), 0, 0)
	}
	a.newSmallBlock(bi, class, words, desc)
	clear(a.blockWords(bi))
	return bi, true
}

// allocLarge allocates an object spanning one or more whole blocks.
func (a *Allocator) allocLarge(nwords int, atomic, desperate, ignoreOffPage bool) (mem.Addr, error) {
	nblocks := mem.PageCount(nwords * mem.WordBytes)
	bi, ok := a.acquireSpanLarge(nblocks, desperate, ignoreOffPage)
	if !ok {
		return 0, ErrNeedMemory
	}
	if desperate {
		lo := a.blockBase(bi)
		if a.cfg.Blacklist.ContainsRange(lo, lo+mem.Addr(nblocks*mem.PageBytes)) {
			a.stats.DesperateAllocs++
			a.tracer.Emit(trace.EvDesperateAlloc, int64(lo), 0, 0)
		}
	}
	a.blocks[bi] = blockDesc{
		state:         blockLargeHead,
		atomic:        atomic,
		desc:          descConservative,
		objWords:      int32(nwords),
		spanLen:       int32(nblocks),
		ignoreOffPage: ignoreOffPage,
		markBits:      make([]uint64, 1),
	}
	for j := 1; j < nblocks; j++ {
		a.blocks[bi+j] = blockDesc{state: blockLargeCont, spanLen: int32(j)}
	}
	base := a.blockBase(bi)
	remaining := nwords
	for j := 0; j < nblocks && remaining > 0; j++ {
		hw := a.blockWords(bi + j)
		n := len(hw)
		if n > remaining {
			n = remaining
		}
		for i := 0; i < n; i++ {
			hw[i] = 0
		}
		remaining -= n
	}
	a.CommitAllocs(1, uint64(nwords*mem.WordBytes))
	return base, nil
}

// spanOK reports whether a candidate span may be dedicated, given the
// blacklist and the request kind.
func (a *Allocator) spanOK(start, n int, smallAtomicOK bool) bool {
	if smallAtomicOK {
		return true
	}
	lo := a.blockBase(start)
	if n == 1 || !a.cfg.InteriorPointers {
		// Only the first page matters: "this is never a problem if
		// addresses that do not point to the first page of an object can
		// be considered invalid" (observation 7).
		if a.cfg.Blacklist.Contains(lo) {
			return false
		}
		return true
	}
	return !a.cfg.Blacklist.ContainsRange(lo, lo+mem.Addr(n*mem.PageBytes))
}

// acquireSpanLarge acquires a span for a large object; ignoreOffPage
// spans only need a blacklist-free first page regardless of the
// interior-pointer policy.
func (a *Allocator) acquireSpanLarge(nblocks int, desperate, ignoreOffPage bool) (int, bool) {
	if ignoreOffPage && !desperate {
		for si := range a.free {
			sp := a.free[si]
			if sp.n < nblocks {
				continue
			}
			for off := 0; off+nblocks <= sp.n; off++ {
				if a.cfg.Blacklist.Contains(a.blockBase(sp.start + off)) {
					a.stats.BlacklistSkips++
					continue
				}
				a.carve(si, off, nblocks)
				return sp.start + off, true
			}
		}
		return 0, false
	}
	return a.acquireSpan(nblocks, desperate)
}

// acquireSpan finds and removes a span of nblocks consecutive free
// blocks honouring the blacklist, returning its first block index.
func (a *Allocator) acquireSpan(nblocks int, smallAtomicOK bool) (int, bool) {
	for si := range a.free {
		sp := a.free[si]
		if sp.n < nblocks {
			continue
		}
		// Slide a window through the span looking for an acceptable
		// placement; blacklisted pages are skipped but remain free.
		for off := 0; off+nblocks <= sp.n; off++ {
			if !a.spanOK(sp.start+off, nblocks, smallAtomicOK) {
				a.stats.BlacklistSkips++
				continue
			}
			a.carve(si, off, nblocks)
			return sp.start + off, true
		}
	}
	return 0, false
}

// carve removes [off, off+n) from free span si, reinserting remainders.
func (a *Allocator) carve(si, off, n int) {
	sp := a.free[si]
	a.free = append(a.free[:si], a.free[si+1:]...)
	if off > 0 {
		a.insertSpan(span{sp.start, off})
	}
	if rem := sp.n - off - n; rem > 0 {
		a.insertSpan(span{sp.start + off + n, rem})
	}
	a.stats.BlocksFree -= n
	a.stats.BlocksDedicated += n
}

// insertSpan adds a span to the free structure per policy, without
// adjusting statistics.
func (a *Allocator) insertSpan(sp span) {
	if a.cfg.FreeBlocks == LIFO {
		a.free = append(a.free, sp)
		return
	}
	// Address ordered with coalescing.
	i := 0
	for i < len(a.free) && a.free[i].start < sp.start {
		i++
	}
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = sp
	if i+1 < len(a.free) && a.free[i].start+a.free[i].n == a.free[i+1].start {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].start+a.free[i-1].n == a.free[i].start {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// releaseSpan returns blocks [start, start+n) to the free structure.
func (a *Allocator) releaseSpan(start, n int) {
	for j := 0; j < n; j++ {
		a.blocks[start+j] = blockDesc{state: blockFree}
	}
	a.insertSpan(span{start, n})
}

// Expand commits at least bytes more heap (rounded up to the expansion
// increment and page size), growing the heap segment in place within
// its reservation. It returns ErrHeapExhausted when the reservation is
// fully committed.
func (a *Allocator) Expand(bytes int) error {
	if bytes < a.cfg.ExpandIncrement {
		bytes = a.cfg.ExpandIncrement
	}
	bytes = mem.PageCount(bytes) * mem.PageBytes
	avail := a.seg.ReservedSize() - a.seg.Size()
	if avail <= 0 {
		return ErrHeapExhausted
	}
	if bytes > avail {
		bytes = avail
	}
	if err := a.seg.Grow(bytes); err != nil {
		return err
	}
	a.words = a.seg.Words()
	start := len(a.blocks)
	n := bytes / mem.PageBytes
	a.blocks = append(a.blocks, make([]blockDesc, n)...)
	for len(a.dirty)*64 < len(a.blocks) {
		a.dirty = append(a.dirty, 0)
	}
	a.releaseSpan(start, n)
	a.stats.HeapBytes += bytes
	a.stats.BlocksFree += n
	a.stats.Expansions++
	a.tracer.Emit(trace.EvHeapExpand, int64(bytes), int64(a.stats.HeapBytes), int64(a.stats.Expansions))
	return nil
}

// CanExpand reports whether the heap can still grow.
func (a *Allocator) CanExpand() bool { return a.seg.Size() < a.seg.ReservedSize() }

// Stats returns a copy of the allocator statistics.
func (a *Allocator) Stats() Stats { return a.stats }

// SetTracer attaches r to receive heap-expansion, desperate-allocation
// and lazy sweep-drain events (nil detaches). Set it outside an active
// mark phase: the allocator reads it unsynchronised.
func (a *Allocator) SetTracer(r *trace.Recorder) { a.tracer = r }

// ResetSinceGC zeroes the allocation-since-collection counter; the
// collector calls it after each cycle.
func (a *Allocator) ResetSinceGC() { a.stats.BytesSinceGC = 0 }

// FreeSpans returns the current free spans (for tests and fragmentation
// measurements) as (startBlock, nBlocks) pairs in storage order.
func (a *Allocator) FreeSpans() [][2]int {
	out := make([][2]int, len(a.free))
	for i, sp := range a.free {
		out[i] = [2]int{sp.start, sp.n}
	}
	return out
}

// LargestFreeSpan returns the largest free span length in blocks.
func (a *Allocator) LargestFreeSpan() int {
	best := 0
	for _, sp := range a.free {
		if sp.n > best {
			best = sp.n
		}
	}
	return best
}

// BlockState is the inspection-facing classification of a block.
type BlockState int

// Block states, as reported by BlockInfo.
const (
	BlockFree BlockState = iota
	BlockSmall
	BlockLargeHead
	BlockLargeCont
)

func (s BlockState) String() string {
	switch s {
	case BlockSmall:
		return "small"
	case BlockLargeHead:
		return "large"
	case BlockLargeCont:
		return "cont"
	default:
		return "free"
	}
}

// BlockInfo describes one committed block for inspection tools
// (cmd/heapdump).
type BlockInfo struct {
	Index      int
	Base       mem.Addr
	State      BlockState
	ObjWords   int // small: per object; large head: whole object
	Atomic     bool
	LiveSlots  int // small only
	TotalSlots int // small only
	SpanLen    int // large head only
}

// BlockInfo returns the description of block i.
func (a *Allocator) BlockInfo(i int) BlockInfo {
	b := &a.blocks[i]
	info := BlockInfo{
		Index:    i,
		Base:     a.blockBase(i),
		ObjWords: int(b.objWords),
		Atomic:   b.atomic,
	}
	switch b.state {
	case blockSmall:
		info.State = BlockSmall
		info.LiveSlots = int(b.liveSlots)
		info.TotalSlots = slotsPerBlock(int(b.objWords))
	case blockLargeHead:
		info.State = BlockLargeHead
		info.SpanLen = int(b.spanLen)
	case blockLargeCont:
		info.State = BlockLargeCont
		info.SpanLen = int(b.spanLen)
	default:
		info.State = BlockFree
	}
	return info
}

// SinceGC returns the two numbers the collection trigger compares —
// bytes allocated since the last ResetSinceGC and the committed heap
// size — without copying the rest of Stats: it is read on every
// allocation that takes the world lock.
func (a *Allocator) SinceGC() (bytesSinceGC uint64, heapBytes int) {
	return a.stats.BytesSinceGC, a.stats.HeapBytes
}

// BytesAllocated returns the cumulative allocation total alone, for the
// assist pacer, which reads it on every slow path of a concurrent cycle.
func (a *Allocator) BytesAllocated() uint64 { return a.stats.BytesAllocated }

// LiveBytes returns the last sweep's live bytes alone, for the
// concurrent trigger's runway, which the handles' trigger mirror reads
// on every slow path.
func (a *Allocator) LiveBytes() uint64 { return a.stats.BytesLive }
