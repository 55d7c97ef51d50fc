package core

import (
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/trace"
)

// allocCache is one size class's cached carve: the slots [cursor,
// limit), in steps of the object size, carved and not yet handed out.
// words is the class's padded object size, recorded at refill; bump
// steps by it. A Region's caches are never black.
// black records that the unconsumed slots are marked: set by a carve
// made for a plain allocation while a concurrent cycle marks, and by
// markHeldLocked; cleared by every other carve. While a cycle marks,
// only a black cache serves a plain Allocate, whose caller's Go local
// is no root; a rooted allocation may take any slot (DESIGN.md §5g).
// A budgeted tenant's handle has paid for every slot its caches hold:
// the refill charges what it keeps of its carve, and returning a cache
// uncharges what goes back.
type allocCache struct {
	words         int
	cursor, limit mem.Addr
	black         bool
}

// cacheSet is the allocation caches of a Mutator handle or a World.Run
// Region, one per size class and atomicity, indexed as the allocator's
// free lists are (alloc.ListIndex), and w, the world their carves come
// from. Each owner keeps its own policy: a handle its lock, its tenant's
// charge, born-black carves, rooting, lazy stats and caches held across
// a collection (mutator.go); a region the return of every tail before
// anything that may collect (DESIGN.md §5d). The owner's lock guards it:
// m.mu (or w.mu with the handle parked), or a region's w.mu.
type cacheSet struct {
	w      *World
	caches []allocCache
	// warm has bit idx set while caches[idx] may hold slots: set by fill,
	// cleared by put. The passes over held slots (eachHeld) and the
	// flushes visit only these.
	warm uint64
}

func newCacheSet(w *World) cacheSet {
	return cacheSet{w: w, caches: make([]allocCache, 2*alloc.NumClasses)}
}

// cacheFor returns the cache of a small request and its index. Callers
// have checked 1 <= nwords <= alloc.MaxSmallWords.
func (s *cacheSet) cacheFor(nwords int, atomic bool) (*allocCache, int) {
	idx := alloc.ListIndex(nwords, atomic)
	return &s.caches[idx], idx
}

// fill installs the carve sp as cache idx, sets its warm bit, counts the
// refill in the world's metrics and trace, and hands out the carve's
// first slot, committed to the heap's stats at once (the rest commit as
// they are consumed). It returns that slot and how many the carve held.
// Callers hold w.mu.
func (s *cacheSet) fill(idx int, sp alloc.Span) (mem.Addr, int) {
	c, w := &s.caches[idx], s.w
	c.words, c.cursor, c.limit = sp.Words, sp.Cursor, sp.Limit
	s.warm |= 1 << uint(idx)
	n := c.held()
	w.met.cacheRefills.Inc()
	w.met.cacheRefillSlots.Add(uint64(n))
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.EvCacheRefill, int64(idx), int64(n), int64(sp.Words))
	}
	w.Heap.CommitAllocs(1, uint64(sp.Words)*mem.WordBytes)
	return c.bump(), n
}

// put gives cache idx's unconsumed tail back on top of its list (the
// next carve re-issues its cursor), empties the cache and clears its
// warm bit, returning how many slots went back. Callers hold w.mu.
func (s *cacheSet) put(idx int) int {
	c := &s.caches[idx]
	n := s.w.Heap.ReturnSpan(c.cursor, c.limit)
	c.cursor, c.limit = 0, 0
	s.warm &^= 1 << uint(idx)
	return n
}

// eachHeld calls fn with every cache that holds carved slots not yet
// handed out.
func (s *cacheSet) eachHeld(fn func(c *allocCache)) {
	for warm := s.warm; warm != 0; warm &= warm - 1 {
		if c := &s.caches[bits.TrailingZeros64(warm)]; c.held() > 0 {
			fn(c)
		}
	}
}

// bump hands out the cache's next slot. Callers have checked that the
// cache holds one (cursor < limit).
func (c *allocCache) bump() mem.Addr {
	p := c.cursor
	c.cursor += mem.Addr(c.words * mem.WordBytes)
	return p
}

// held returns how many carved slots the cache holds, not yet handed
// out.
func (c *allocCache) held() int {
	if c.cursor < c.limit {
		return int(c.limit-c.cursor) / (c.words * mem.WordBytes)
	}
	return 0
}

// appendHeld appends the addresses of the slots the cache holds, not
// yet handed out, to out.
func (c *allocCache) appendHeld(out []mem.Addr) []mem.Addr {
	for p := c.cursor; p < c.limit; p += mem.Addr(c.words * mem.WordBytes) {
		out = append(out, p)
	}
	return out
}

// Region is the world held for one Run: each method is the World method
// of the same name without its lock pair. It is valid only inside the
// Run that passed it; afterwards every call panics.
//
// Allocate serves small objects from the region's cache set: a bump
// while no cycle is in flight and the trigger is not due, a carve of the
// class's whole next hole when the cache is empty. Every unconsumed tail
// goes back (flush) before anything that may collect and when the Run
// ends, so the region hands out exactly the addresses the calls would
// (DESIGN.md §5d).
type Region struct {
	cacheSet
	heap *mem.Segment // the heap's first extent, which Store writes directly
}

// Run calls fn with the world lock held for all of it, so that a
// single-threaded program pays for the lock once rather than on every
// call (the paper's single-threaded GC_malloc takes none). Inside fn,
// nothing may call a World or Mutator method that takes the world lock
// (the rule collection hooks follow), and fn must not wait on another
// goroutine that needs the world. Heap state read straight through
// w.Heap inside fn may count the slots of an outstanding carve as
// allocated; the Region methods that read or change it flush first.
// Other goroutines' handles keep their fast paths, and a collection
// inside fn parks them as usual (DESIGN.md §5d). Run returns fn's
// error.
func (w *World) Run(fn func(r *Region) error) error {
	r := &Region{newCacheSet(w), w.Heap.Seg()}
	w.mu.Lock()
	defer func() { r.flush(); r.w = nil; w.mu.Unlock() }()
	return fn(r)
}

func (r *Region) Allocate(nwords int, atomic bool) (mem.Addr, error) {
	w := r.w
	if nwords >= 1 && !alloc.IsLarge(nwords) && !w.cyc.active {
		if _, due := w.dueCycleLocked(); !due {
			c, idx := r.cacheFor(nwords, atomic)
			if w.mut != nil {
				w.mut.OnAllocate()
			}
			if c.cursor < c.limit {
				p := c.bump()
				w.Heap.CommitAllocs(1, uint64(c.words)*mem.WordBytes)
				if w.mutResidue != nil {
					w.mutResidue.SimulateCallResidue(w.cfg.AllocatorSelfClean, mem.Word(p), mem.Word(nwords))
				}
				return p, nil
			}
			return r.refill(idx, nwords, atomic)
		}
	}
	r.flush()
	return w.allocateDirect(nwords, atomic)
}

// refill serves an allocation whose cache is empty, with no cycle in
// flight and the trigger not due, through the per-call retry policy:
// one carve of the class's whole next hole, its first slot handed out.
// Only a carve that fails can lead to a collection, so the other caches
// are flushed there.
func (r *Region) refill(idx, nwords int, atomic bool) (mem.Addr, error) {
	w := r.w
	return w.allocateLocked(nwords, w.mutResidue, false,
		func() (mem.Addr, error) {
			s, err := w.Heap.AllocSpan(nwords, atomic)
			if err != nil {
				r.flush()
				return 0, err
			}
			p, _ := r.fill(idx, s)
			return p, nil
		},
		func() (mem.Addr, error) { return w.Heap.AllocDesperate(nwords, atomic) })
}

// flush gives every cache's unconsumed tail back, leaving the heap as
// the calls would have.
func (r *Region) flush() {
	for r.warm != 0 {
		r.put(bits.TrailingZeros64(r.warm))
	}
}

func (r *Region) AllocateTyped(id alloc.DescID) (mem.Addr, error) {
	r.flush()
	return r.w.allocateTypedDirect(id)
}

// Store writes a word of r.heap directly if no barrier is due (DESIGN.md §5d).
func (r *Region) Store(a mem.Addr, v mem.Word) error {
	if r.w.barrierFree() && r.heap.TryStore(a, v) {
		return nil
	}
	return r.w.storeLocked(a, v)
}
func (r *Region) Load(a mem.Addr) (mem.Word, error) { return r.w.Space.Load(a) }
func (r *Region) Collect() CollectionStats {
	r.flush()
	return r.w.collectLocked(kindFull)
}
func (r *Region) RegisterFinalizable(a mem.Addr) { r.w.finalizable[a] = struct{}{} }
func (r *Region) DrainReclaimed() []mem.Addr     { return r.w.drainReclaimedLocked() }
