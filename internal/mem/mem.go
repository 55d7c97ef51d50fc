// Package mem implements the simulated 32-bit word-addressed address
// space on which the conservative collector operates.
//
// The paper's collector (Boehm, PLDI 1993) scans a real process image:
// machine registers, the C stack, static data segments and the malloc
// heap of a 32-bit workstation. A Go library cannot reinterpret its own
// stack or heap as raw words, so this package provides the substrate
// instead: an address space holding named segments (text, static data,
// stack, heap), each a contiguous run of 32-bit words. All other
// packages — the allocator, the marker, the simulated mutator machine —
// are built on top of it, exactly as the paper's collector sits on top
// of a SPARC or MIPS process image.
//
// Addresses are byte addresses, as on the paper's machines; memory is
// word-granular, with big-endian byte access provided for the unaligned
// pointer-candidate experiments (paper figure 1 and appendix B).
package mem

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"unsafe"
)

// Addr is a byte address in the simulated 32-bit address space.
type Addr uint32

// Word is the contents of one 32-bit memory word.
type Word uint32

// Fundamental sizes of the simulated machine. The paper's collector
// manages the heap in 4 KiB blocks ("pages"); we use the same geometry.
const (
	WordBytes = 4                     // bytes per word
	PageBytes = 4096                  // bytes per page (heap block)
	PageWords = PageBytes / WordBytes // words per page
)

// PageOf returns the page number containing address a.
func PageOf(a Addr) uint32 { return uint32(a) / PageBytes }

// PageBase returns the first address of the given page.
func PageBase(page uint32) Addr { return Addr(page * PageBytes) }

// PageCount returns the number of pages needed to hold n bytes.
func PageCount(bytes int) int { return (bytes + PageBytes - 1) / PageBytes }

// WordAligned reports whether a is word-aligned.
func WordAligned(a Addr) bool { return a%WordBytes == 0 }

// AlignWordDown rounds a down to the nearest word boundary.
func AlignWordDown(a Addr) Addr { return a &^ (WordBytes - 1) }

// AlignWordUp rounds a up to the nearest word boundary.
func AlignWordUp(a Addr) Addr { return (a + WordBytes - 1) &^ (WordBytes - 1) }

// AlignPageDown rounds a down to the nearest page boundary.
func AlignPageDown(a Addr) Addr { return a &^ (PageBytes - 1) }

// AlignPageUp rounds a up to the nearest page boundary.
func AlignPageUp(a Addr) Addr { return (a + PageBytes - 1) &^ (PageBytes - 1) }

// TrailingZeros returns the number of trailing zero bits of a. The paper
// (section 2) observes that objects should not be allocated at addresses
// with a large number of trailing zeros, because such addresses collide
// with common integer data.
func TrailingZeros(a Addr) int { return bits.TrailingZeros32(uint32(a)) }

// Kind classifies a segment. The marker treats all segments with the
// Root flag as conservative root areas; Kind exists so that tools and
// experiments can report where a false reference came from.
type Kind int

// Segment kinds.
const (
	KindText  Kind = iota // program text (normally not scanned)
	KindData              // static data (scanned as roots, per the paper)
	KindStack             // mutator stack (scanned between SP and base)
	KindHeap              // the collected heap
	KindOther             // anything else (IO buffers, other live data...)
)

var kindNames = [...]string{"text", "data", "stack", "heap", "other"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// A Segment is a contiguous, word-aligned run of simulated memory.
//
// A segment is created with a reserved size (the most it may ever
// occupy) and a committed size (the prefix that is currently usable).
// The heap segment grows its committed region as the allocator expands
// the heap; the reserved region beyond it is the "vicinity of the heap"
// in which the paper's blacklisting recognises future false references.
type Segment struct {
	name     string
	kind     Kind
	base     Addr
	reserved int // words
	words    []Word
	root     bool
	writable bool
}

// NewSegment creates a segment. base must be word-aligned and nonzero
// (address 0 is reserved so that it can never be a valid object), sizes
// are in bytes and must be word multiples, and committed ≤ reserved.
func NewSegment(name string, kind Kind, base Addr, committed, reserved int) (*Segment, error) {
	switch {
	case base == 0:
		return nil, fmt.Errorf("mem: segment %q: base address 0 is reserved", name)
	case !WordAligned(base):
		return nil, fmt.Errorf("mem: segment %q: base %#x not word-aligned", name, uint32(base))
	case committed < 0 || reserved < 0:
		return nil, fmt.Errorf("mem: segment %q: negative size", name)
	case committed%WordBytes != 0 || reserved%WordBytes != 0:
		return nil, fmt.Errorf("mem: segment %q: sizes must be word multiples", name)
	case committed > reserved:
		return nil, fmt.Errorf("mem: segment %q: committed %d > reserved %d", name, committed, reserved)
	case uint64(base)+uint64(reserved) > 1<<32:
		return nil, fmt.Errorf("mem: segment %q: extends past the 32-bit address space", name)
	}
	return &Segment{
		name:     name,
		kind:     kind,
		base:     base,
		reserved: reserved / WordBytes,
		words:    make([]Word, committed/WordBytes),
		root:     kind == KindData, // static data is a root by default
		writable: true,
	}, nil
}

// Name returns the segment's name.
func (s *Segment) Name() string { return s.name }

// Kind returns the segment's kind.
func (s *Segment) Kind() Kind { return s.kind }

// Base returns the segment's first address.
func (s *Segment) Base() Addr { return s.base }

// Limit returns the first address past the committed region.
func (s *Segment) Limit() Addr { return s.base + Addr(len(s.words)*WordBytes) }

// ReservedLimit returns the first address past the reserved region.
func (s *Segment) ReservedLimit() Addr { return s.base + Addr(s.reserved*WordBytes) }

// Size returns the committed size in bytes.
func (s *Segment) Size() int { return len(s.words) * WordBytes }

// ReservedSize returns the reserved size in bytes.
func (s *Segment) ReservedSize() int { return s.reserved * WordBytes }

// Root reports whether the segment is scanned as a conservative root area.
func (s *Segment) Root() bool { return s.root }

// SetRoot marks or unmarks the segment as a root area. The paper notes
// that it is "useful, though sometimes more difficult, to avoid scanning
// large static data areas that contain seemingly random, nonpointer
// data"; clearing the root flag models exactly that exclusion.
func (s *Segment) SetRoot(root bool) { s.root = root }

// Writable reports whether stores to the segment are permitted.
func (s *Segment) Writable() bool { return s.writable }

// SetWritable write-protects or unprotects the segment, like the
// read-only mapping of a real process's constant data. Stores to a
// read-only segment fail; loads and root scanning are unaffected.
func (s *Segment) SetWritable(w bool) { s.writable = w }

// Contains reports whether a lies in the committed region (even if Limit wraps to 0).
func (s *Segment) Contains(a Addr) bool { return uint(a-s.base) < uint(len(s.words))*WordBytes }

// InReserved reports whether a lies in the reserved region (committed
// or not). For the heap segment this is the paper's "vicinity of the
// heap": an invalid value pointing here could become a valid object
// address after future heap growth, so it must be blacklisted.
func (s *Segment) InReserved(a Addr) bool { return uint(a-s.base) < uint(s.reserved)*WordBytes }

// Grow commits n additional bytes (a word multiple). The newly
// committed words are zero.
func (s *Segment) Grow(n int) error {
	if n < 0 || n%WordBytes != 0 {
		return fmt.Errorf("mem: segment %q: bad grow size %d", s.name, n)
	}
	if len(s.words)+n/WordBytes > s.reserved {
		return fmt.Errorf("mem: segment %q: grow by %d exceeds reservation (%d of %d bytes committed)",
			s.name, n, s.Size(), s.ReservedSize())
	}
	s.words = append(s.words, make([]Word, n/WordBytes)...)
	return nil
}

// Load returns the word at word-aligned address a.
func (s *Segment) Load(a Addr) (Word, error) {
	if i := uint(a-s.base) / WordBytes; i < uint(len(s.words)) && a%WordBytes == 0 {
		return s.words[i], nil
	}
	return 0, s.accessError("bad load", a)
}

// Store writes w to word-aligned address a.
func (s *Segment) Store(a Addr, w Word) error {
	if s.TryStore(a, w) {
		return nil
	}
	if !s.Contains(a) || !WordAligned(a) {
		return s.accessError("bad store", a)
	}
	return s.accessError("store to read-only segment", a)
}

// TryStore is Store's inlined hit path: it writes w and reports true if
// a is a committed, word-aligned address and s is writable.
func (s *Segment) TryStore(a Addr, w Word) bool {
	if i := uint(a-s.base) / WordBytes; i < uint(len(s.words)) && a%WordBytes == 0 && s.writable {
		s.words[i] = w
		return true
	}
	return false
}

//go:noinline
func (s *Segment) accessError(what string, a Addr) error {
	return fmt.Errorf("mem: segment %q: %s at %#x", s.name, what, uint32(a))
}

// LoadByte returns the byte at address a. The simulated machine is
// big-endian, like the paper's SPARC and (as configured) MIPS machines;
// byte 0 of a word is its most significant byte. Big-endianness matters
// for the paper's observation that a string's trailing NUL followed by
// the next string's first characters forms a small pointer-like value.
func (s *Segment) LoadByte(a Addr) (byte, error) {
	w, err := s.Load(AlignWordDown(a))
	if err != nil {
		return 0, fmt.Errorf("mem: segment %q: bad byte load at %#x", s.name, uint32(a))
	}
	shift := 24 - 8*(a%WordBytes)
	return byte(w >> shift), nil
}

// StoreByte writes b at address a (big-endian within the word).
func (s *Segment) StoreByte(a Addr, b byte) error {
	wa := AlignWordDown(a)
	w, err := s.Load(wa)
	if err != nil || !s.writable {
		return fmt.Errorf("mem: segment %q: bad byte store at %#x", s.name, uint32(a))
	}
	shift := 24 - 8*(a%WordBytes)
	w &^= Word(0xff) << shift
	w |= Word(b) << shift
	return s.Store(wa, w)
}

// Words exposes the committed words for bulk operations (root scanning,
// pollution generation). Callers must not grow the slice. Index i holds
// the word at address Base()+4i.
func (s *Segment) Words() []Word { return s.words }

// Fill sets every committed word to w.
func (s *Segment) Fill(w Word) {
	for i := range s.words {
		s.words[i] = w
	}
}

// An AddressSpace is an ordered collection of non-overlapping segments.
type AddressSpace struct {
	segs []*Segment // sorted by base address
	// rootScratch is Roots' reusable result buffer: root scans happen
	// once or more per collection, and rebuilding into a retained
	// backing array keeps the steady-state collection allocation-free.
	rootScratch []*Segment
	// lastFound is the segment Find returned last. Accesses cluster — a
	// mutator's loads and stores mostly stay in the heap — so Find tries
	// it before searching. A plain field: Find is not safe for
	// concurrent use (core calls it under the world lock; code that
	// holds no common lock calls Lookup with a cache of its own).
	lastFound *Segment
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// Map inserts a segment. Its reserved region must not overlap any
// existing segment's reserved region.
func (as *AddressSpace) Map(s *Segment) error {
	for _, t := range as.segs {
		if uint64(s.base) < uint64(t.base)+uint64(t.ReservedSize()) && uint64(t.base) < uint64(s.base)+uint64(s.ReservedSize()) {
			return fmt.Errorf("mem: segment %q [%#x,%#x) overlaps %q [%#x,%#x)",
				s.name, uint32(s.base), uint32(s.ReservedLimit()),
				t.name, uint32(t.base), uint32(t.ReservedLimit()))
		}
	}
	i := sort.Search(len(as.segs), func(i int) bool { return as.segs[i].base > s.base })
	as.segs = append(as.segs, nil)
	copy(as.segs[i+1:], as.segs[i:])
	as.segs[i] = s
	return nil
}

// MapNew creates a segment with NewSegment and maps it.
func (as *AddressSpace) MapNew(name string, kind Kind, base Addr, committed, reserved int) (*Segment, error) {
	s, err := NewSegment(name, kind, base, committed, reserved)
	if err != nil {
		return nil, err
	}
	if err := as.Map(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Unmap removes the named segment, reporting whether it was present.
func (as *AddressSpace) Unmap(name string) bool {
	for i, s := range as.segs {
		if s.name == name {
			as.segs = append(as.segs[:i], as.segs[i+1:]...)
			if as.lastFound == s {
				as.lastFound = nil
			}
			return true
		}
	}
	return false
}

// Find returns the segment whose reserved region contains a, or nil.
func (as *AddressSpace) Find(a Addr) *Segment {
	if s := as.lastFound; s != nil && s.InReserved(a) {
		return s
	}
	s := as.Lookup(nil, a)
	if s != nil {
		as.lastFound = s
	}
	return s
}

// Lookup is Find with the caller's own cache: hint (the caller's last
// result, or nil) is tried before the search, and nothing is written.
// Goroutines that share no lock may therefore look up concurrently, so
// long as no Map or Unmap runs beside them.
func (as *AddressSpace) Lookup(hint *Segment, a Addr) *Segment {
	if hint != nil && hint.InReserved(a) {
		return hint
	}
	i := sort.Search(len(as.segs), func(i int) bool { return as.segs[i].base > a })
	if i == 0 {
		return nil
	}
	if s := as.segs[i-1]; s.InReserved(a) {
		return s
	}
	return nil
}

// Segment returns the segment with the given name, or nil.
func (as *AddressSpace) Segment(name string) *Segment {
	for _, s := range as.segs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Segments returns the segments in address order. The returned slice is
// shared; callers must not modify it.
func (as *AddressSpace) Segments() []*Segment { return as.segs }

// Roots returns the segments flagged as conservative root areas, in
// address order. The returned slice is a scratch buffer invalidated by
// the next Roots call; callers must iterate it immediately rather than
// retain it.
func (as *AddressSpace) Roots() []*Segment {
	as.rootScratch = as.rootScratch[:0]
	for _, s := range as.segs {
		if s.root {
			as.rootScratch = append(as.rootScratch, s)
		}
	}
	return as.rootScratch
}

// Load reads the word at a from whichever segment contains it.
func (as *AddressSpace) Load(a Addr) (Word, error) {
	if s := as.Find(a); s != nil {
		return s.Load(a)
	}
	return 0, fmt.Errorf("mem: load from unmapped address %#x", uint32(a))
}

// Store writes the word at a to whichever segment contains it.
func (as *AddressSpace) Store(a Addr, w Word) error {
	if s := as.Find(a); s != nil {
		return s.Store(a, w)
	}
	return fmt.Errorf("mem: store to unmapped address %#x", uint32(a))
}

// SameWords reports whether a and b hold the same words, as one
// vectorised compare of their bytes: over program T's 15 632-word
// static image, about a fifth of what slices.Equal's word loop costs
// (BenchmarkSameWords).
func SameWords(a, b []Word) bool {
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), len(a)*WordBytes),
		unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b)*WordBytes))
}
