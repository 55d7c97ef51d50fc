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
	s, err := a.takeHole(a.typedList(typedKey{class: class, desc: id}), class, id, 1, false)
	if err != nil {
		return 0, err
	}
	a.CommitAllocs(1, uint64(words*mem.WordBytes))
	return s.Cursor, nil
}
