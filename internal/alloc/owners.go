package alloc

import (
	"math/bits"

	"repro/internal/mem"
)

// Per-tenant byte attribution (core's multi-tenant serving layer, see
// DESIGN.md section 5i). The allocator keeps an optional side table
// recording, per object slot, the tenant that allocated the object, so
// over-budget policies can credit a tenant when its objects die and an
// eviction can enumerate exactly the objects a tenant still owns.
//
// Like every other piece of per-object metadata the records are found
// by position, not by hashing the address: a.owners runs parallel to
// a.blocks, and each block that holds a record carries an owner id per
// slot. The table is a side slice rather than blockDesc fields so the
// descriptor the mark path reads does not grow, and so a block's
// records survive releaseSpan's descriptor reset — a dead object's
// record must outlive its block until the next reconcile credits it.
// The bytes a record stands for are not stored: every allocation path
// charges objWords × WordBytes (the padded class size for small, typed
// and desperate objects, the exact word size for large ones), which is
// the block's geometry.
//
// The table is nil until the first tag: worlds that never create a
// budgeted tenant pay nothing — no table, no lookups, no change to any
// allocation path (the unbudgeted-tenant differential test pins this
// bit-for-bit). All methods are called under the world's central lock,
// like every other allocator mutation.

// ownerBlock is one block's ownership records.
type ownerBlock struct {
	// ids holds the owning tenant of each slot (one entry for a large
	// object's head block); 0 is unowned. Acquired by the first tag the
	// block receives and given up with its last record (dropRecords), so
	// only blocks that hold records hold an array.
	ids []int32
	// n counts the non-zero entries of ids.
	n int32
	// words is the block's objWords when ids was laid out. Records are
	// read through it, never through the descriptor: the block may have
	// been released (an explicit Free of a large object) or re-dedicated
	// to another size class while it still holds dead objects' records.
	words int32
}

func (ob *ownerBlock) objBytes() uint64 { return uint64(ob.words) * mem.WordBytes }

// slotOf returns the slot of the block the address p falls in.
func (ob *ownerBlock) slotOf(p mem.Addr) int {
	if ob.words > MaxSmallWords {
		return 0 // a large object's one record sits on its head block
	}
	return slotOfWord(pageWordOff(p), int(ob.words))
}

// SetOwnerCredit installs the callback ReconcileOwners and tag
// displacement use to return dead objects' bytes to their tenant.
func (a *Allocator) SetOwnerCredit(fn func(id int32, objects, bytes uint64)) {
	a.ownerCredit = fn
}

func (a *Allocator) creditOwner(id int32, objects int, objBytes uint64) {
	if a.ownerCredit != nil && objects > 0 {
		a.ownerCredit(id, uint64(objects), uint64(objects)*objBytes)
	}
}

// spareIndex is where id arrays of a geometry wait in ownerSpare: one
// list per small size class (so per array length) and one for large
// objects' single-entry arrays.
func spareIndex(words int32) int {
	if words > MaxSmallWords {
		return NumClasses
	}
	return int(classOf[words])
}

// dropRecords takes k records off a block's count. With the last one the
// block gives up its id array — all zero again by then — to the spare
// list of its geometry, where the next block to be tagged picks it up:
// the table's memory follows the blocks that hold records, and steady
// churn produces no garbage for the Go collector (freeing the arrays
// instead read +0.3 to +0.8 MB of peak RSS on serve_tenants).
func (a *Allocator) dropRecords(ob *ownerBlock, k int) {
	ob.n -= int32(k)
	a.ownerRecords -= k
	if ob.n == 0 {
		i := spareIndex(ob.words)
		a.ownerSpare[i] = append(a.ownerSpare[i], ob.ids)
		ob.ids = nil
	}
}

// ownerBlockFor returns block bi's records laid out for the block's
// current geometry, ready to be tagged. Records left over from an
// earlier dedication of the block to another size class are stale by
// construction; they are credited to their owners first — the
// displacement rule below, applied to the whole block.
func (a *Allocator) ownerBlockFor(bi int) *ownerBlock {
	if bi >= len(a.owners) {
		// First tag, or the heap grew since the table was sized.
		a.owners = append(a.owners, make([]ownerBlock, len(a.blocks)-len(a.owners))...)
		if a.ownerSpare == nil {
			a.ownerSpare = make([][][]int32, NumClasses+1)
		}
	}
	ob := &a.owners[bi]
	b := &a.blocks[bi]
	if ob.ids != nil && ob.words != b.objWords {
		a.reconcileBlock(bi, ob)
	}
	if ob.ids == nil {
		ob.words = b.objWords
		if sp := &a.ownerSpare[spareIndex(ob.words)]; len(*sp) > 0 {
			ob.ids = (*sp)[len(*sp)-1]
			*sp = (*sp)[:len(*sp)-1]
		} else if b.state == blockSmall {
			ob.ids = make([]int32, slotsPerBlock(int(ob.words)))
		} else {
			ob.ids = make([]int32, 1)
		}
	}
	return ob
}

// tagSlot records id as the owner of one slot. A stale record in the
// slot (the object died, was reconciled late or never, and the slot was
// reallocated) is credited back to its previous owner first, so
// attribution can never leak across a reallocation.
func (a *Allocator) tagSlot(ob *ownerBlock, slot int, id int32) {
	if old := ob.ids[slot]; old != 0 {
		a.creditOwner(old, 1, ob.objBytes())
	} else {
		ob.n++
		a.ownerRecords++
	}
	ob.ids[slot] = id
}

// TagOwner records that the object at base is owned by tenant id: the
// single-object form, for allocations that come from no carve (large,
// typed and desperate objects).
func (a *Allocator) TagOwner(base mem.Addr, id int32) {
	ob := a.ownerBlockFor(a.blockIndex(base))
	a.tagSlot(ob, ob.slotOf(base), id)
}

// TagOwnerRun tags every slot of an AllocRun carve. A run follows the
// free list, so it may cross blocks; the block lookup is repeated only
// when it does.
func (a *Allocator) TagOwnerRun(run []mem.Addr, id int32) {
	last, ob := -1, (*ownerBlock)(nil)
	for _, p := range run {
		if bi := a.blockIndex(p); bi != last {
			last, ob = bi, a.ownerBlockFor(bi)
		}
		a.tagSlot(ob, ob.slotOf(p), id)
	}
}

// TagOwnerSpan tags every slot of an AllocSpan carve [cursor, limit),
// which lies in one block.
func (a *Allocator) TagOwnerSpan(cursor, limit mem.Addr, id int32) {
	if cursor >= limit {
		return
	}
	ob := a.ownerBlockFor(a.blockIndex(cursor))
	s0 := ob.slotOf(cursor)
	n := slotOfWord(int(limit-cursor)/mem.WordBytes, int(ob.words))
	for s := s0; s < s0+n; s++ {
		a.tagSlot(ob, s, id)
	}
}

// ownerCell finds the record cell of the object at base: the block's
// records and the slot index. ob is nil when the block holds no records
// or base is not a slot base of the geometry they were laid out for.
func (a *Allocator) ownerCell(base mem.Addr) (ob *ownerBlock, slot int) {
	if a.ownerRecords == 0 || !a.InCommitted(base) {
		return nil, 0
	}
	bi := a.blockIndex(base)
	if bi >= len(a.owners) || a.owners[bi].ids == nil {
		return nil, 0
	}
	ob = &a.owners[bi]
	slot = ob.slotOf(base)
	if slot >= len(ob.ids) || base != slotAddr(mem.AlignPageDown(base), slot, int(ob.words)) {
		return nil, 0
	}
	return ob, slot
}

// UntagOwnerRun drops the records of a cached run's unconsumed tail
// without crediting anyone: the slots were carved for a tenant's cache
// but never consumed (safepoint flushes return such slots to the
// central free lists).
func (a *Allocator) UntagOwnerRun(run []mem.Addr) {
	for _, p := range run {
		if ob, slot := a.ownerCell(p); ob != nil && ob.ids[slot] != 0 {
			ob.ids[slot] = 0
			a.dropRecords(ob, 1)
		}
	}
}

// UntagOwnerSpan is UntagOwnerRun for a cached bump span's unconsumed
// tail [cursor, limit).
func (a *Allocator) UntagOwnerSpan(cursor, limit mem.Addr) {
	if cursor >= limit {
		return
	}
	ob, s0 := a.ownerCell(cursor)
	if ob == nil {
		return
	}
	end := min(s0+slotOfWord(int(limit-cursor)/mem.WordBytes, int(ob.words)), len(ob.ids))
	dropped := 0
	for s := s0; s < end; s++ {
		if ob.ids[s] != 0 {
			ob.ids[s] = 0
			dropped++
		}
	}
	a.dropRecords(ob, dropped)
}

// TakeOwner removes and returns the ownership record at base, for an
// explicit Free that credits the tenant immediately. The record is
// still there when the Free released the object's block.
func (a *Allocator) TakeOwner(base mem.Addr) (id int32, bytes uint64, ok bool) {
	ob, slot := a.ownerCell(base)
	if ob == nil || ob.ids[slot] == 0 {
		return 0, 0, false
	}
	id, bytes = ob.ids[slot], ob.objBytes()
	ob.ids[slot] = 0
	a.dropRecords(ob, 1)
	return id, bytes, true
}

// reconcileBlock credits and drops every record of block bi whose
// object is no longer allocated, returning how many it dropped.
// Liveness is read from the bitmaps a word at a time: the alloc bits,
// and for a sweep-pending block the mark bits too (the last collection
// classified its unmarked objects dead; only their reclamation is
// deferred). A block released or re-dedicated to another geometry since
// its records were laid out holds no live record at all. Dead records
// are credited in runs of equal owner — carves tag whole runs, so that
// is a credit per carve that touched the block, not one per object.
func (a *Allocator) reconcileBlock(bi int, ob *ownerBlock) int {
	b := &a.blocks[bi]
	large := b.state == blockLargeHead
	same := ob.words == b.objWords && (large || b.state == blockSmall)
	dead, runID, runN := 0, int32(0), 0
	for wi := 0; wi<<6 < len(ob.ids); wi++ {
		var live uint64
		if same {
			live = 1
			if !large {
				live = b.allocBits[wi]
			}
			if b.pendingSweep {
				live &= b.markBits[wi]
			}
		}
		// Only slots the bitmaps call dead can hold a dead record; a word
		// of live slots costs one compare.
		ids := ob.ids[wi<<6:]
		cand := ^live
		if len(ids) < 64 {
			cand &= 1<<uint(len(ids)) - 1
		}
		for ; cand != 0; cand &= cand - 1 {
			i := bits.TrailingZeros64(cand)
			id := ids[i]
			if id == 0 {
				continue
			}
			ids[i] = 0
			dead++
			if id != runID {
				a.creditOwner(runID, runN, ob.objBytes())
				runID, runN = id, 0
			}
			runN++
		}
	}
	a.creditOwner(runID, runN, ob.objBytes())
	a.dropRecords(ob, dead)
	return dead
}

// ReconcileOwners credits every record whose object is no longer
// allocated — swept by the cycle that just finished, or classified dead
// by a lazy barrier, so reconciliation does not wait for the demand
// sweep. It walks the blocks that hold records, not the records.
// Returns the total objects and bytes credited. Called at collection
// barriers and before over-budget policy decisions; a no-op (nil table)
// until the first budgeted tenant.
func (a *Allocator) ReconcileOwners() (objects, bytes uint64) {
	if a.ownerRecords == 0 {
		return 0, 0
	}
	for bi := range a.owners {
		if ob := &a.owners[bi]; ob.n != 0 {
			objBytes := ob.objBytes()
			n := uint64(a.reconcileBlock(bi, ob))
			objects += n
			bytes += n * objBytes
		}
	}
	return objects, bytes
}

// OwnedOf returns the base addresses of every object tenant id still
// owns, in ascending address order (eviction frees them all).
func (a *Allocator) OwnedOf(id int32) []mem.Addr {
	var out []mem.Addr
	for bi := range a.owners {
		ob := &a.owners[bi]
		for slot, v := range ob.ids {
			if v == id {
				out = append(out, slotAddr(a.blockBase(bi), slot, int(ob.words)))
			}
		}
	}
	return out
}

// OwnedBytes sums the charged bytes of every object tenant id still
// owns — after a full sweep and reconcile it must equal the tenant's
// live-byte counter exactly (the attribution-drift invariant the SLO
// test asserts).
func (a *Allocator) OwnedBytes(id int32) uint64 {
	var sum uint64
	for bi := range a.owners {
		ob := &a.owners[bi]
		for _, v := range ob.ids {
			if v == id {
				sum += ob.objBytes()
			}
		}
	}
	return sum
}

// OwnerOf returns the tenant owning the object at base, if any — the
// per-object view the retention watcher uses to build per-tenant
// attribution keys (OwnedOf/OwnedBytes are the per-tenant views).
func (a *Allocator) OwnerOf(base mem.Addr) (id int32, ok bool) {
	ob, slot := a.ownerCell(base)
	if ob == nil || ob.ids[slot] == 0 {
		return 0, false
	}
	return ob.ids[slot], true
}

// HasOwners reports whether any ownership records exist (the
// collection barrier skips reconciliation entirely when none do).
func (a *Allocator) HasOwners() bool { return a.ownerRecords > 0 }
