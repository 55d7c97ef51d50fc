package alloc

import (
	"fmt"

	"repro/internal/mem"
)

// Typed allocation: the paper's introduction notes that conservative
// systems "vary greatly in their degree of conservativism, i.e. in how
// much information about data structure layout they maintain. Some
// maintain complete information on the location of pointers in the
// heap, and only scan the stack conservatively." This file provides
// that operating point (the real collector's GC_malloc_explicitly_typed):
// objects allocated against a registered layout descriptor have only
// their pointer fields scanned, eliminating misidentification from
// non-pointer fields entirely.
//
// Like the real collector, typed objects of the same size but different
// descriptors never share a block: the descriptor is block metadata.

// DescID identifies a registered layout descriptor.
type DescID int32

// Reserved pseudo-descriptors stored in blockDesc.desc.
const (
	descConservative DescID = -1 // every word is a potential pointer
	descAtomic       DescID = -2 // no word is a pointer
)

// untypedDesc returns the pseudo-descriptor of an untyped block.
func untypedDesc(atomic bool) DescID {
	if atomic {
		return descAtomic
	}
	return descConservative
}

// Descriptor is a registered object layout: Words is the object size,
// and bit i of Pointers (LSB-first across the slice) is set when word i
// may hold a pointer.
type Descriptor struct {
	Words    int
	Pointers []uint64
}

// PointerAt reports whether word i may hold a pointer.
func (d Descriptor) PointerAt(i int) bool {
	return i < d.Words && d.Pointers[i>>6]&(1<<(uint(i)&63)) != 0
}

// RegisterDescriptor registers a layout given as a per-word pointer
// mask and returns its id. Identical layouts may be registered more
// than once; each registration gets its own id (and thus its own
// blocks), which keeps the implementation simple and matches typical
// per-type registration in clients.
func (a *Allocator) RegisterDescriptor(ptrMask []bool) (DescID, error) {
	if len(ptrMask) == 0 || len(ptrMask) > MaxSmallWords {
		return 0, fmt.Errorf("alloc: descriptor of %d words out of range", len(ptrMask))
	}
	d := Descriptor{
		Words:    len(ptrMask),
		Pointers: make([]uint64, (len(ptrMask)+63)/64),
	}
	for i, isPtr := range ptrMask {
		if isPtr {
			d.Pointers[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	a.descriptors = append(a.descriptors, d)
	return DescID(len(a.descriptors) - 1), nil
}

// Descriptor returns the registered descriptor for id.
func (a *Allocator) Descriptor(id DescID) (Descriptor, error) {
	if id < 0 || int(id) >= len(a.descriptors) {
		return Descriptor{}, fmt.Errorf("alloc: unknown descriptor %d", id)
	}
	return a.descriptors[id], nil
}

// AllocTyped allocates an object with the given registered layout. The
// collector will scan exactly the descriptor's pointer words.
func (a *Allocator) AllocTyped(id DescID) (mem.Addr, error) {
	d, err := a.Descriptor(id)
	if err != nil {
		return 0, err
	}
	class, words := ClassFor(d.Words)
	key := typedKey{class: class, desc: id}
	p, f := a.typedFree[key], a.typedFresh[key]
	if p == 0 && f.slot == f.end {
		if err := a.refillTyped(class, id, key); err != nil {
			return 0, err
		}
		p, f = a.typedFree[key], a.typedFresh[key]
	}
	if p == 0 {
		// The list is empty: bump the fresh run, which is not.
		p = a.takeFresh(&f, 1).Cursor
		a.typedFresh[key] = f
	} else {
		s, err := a.locateSlots(p, class)
		if err != nil {
			return 0, err
		}
		a.typedFree[key] = s.pop(p)
	}
	a.CommitAllocs(1, uint64(words*mem.WordBytes))
	return p, nil
}

// refillTyped replenishes the (class, descriptor) list once both it
// and its fresh run are empty, first by sweeping pending blocks of the
// same layout, then by dedicating a fresh block as the fresh run.
func (a *Allocator) refillTyped(class int, id DescID, key typedKey) error {
	if q, ok := a.sweepPendingTyped[key]; ok && len(q) > 0 {
		for a.typedFree[key] == 0 {
			bi, ok := a.popPending(&q)
			if !ok {
				break
			}
			a.sweepBlock(bi)
		}
		a.sweepPendingTyped[key] = q
		if a.typedFree[key] != 0 {
			return nil
		}
	}
	bi, ok := a.freshBlock(class, id, false)
	if !ok {
		return ErrNeedMemory
	}
	a.typedFresh[key] = a.newFreshRun(bi)
	return nil
}
