// Package blacklist implements the paper's address blacklist
// (Boehm, PLDI 1993, section 3).
//
// During a collection, every value that looks as if it could become a
// valid heap address — but currently is not one — is recorded here. The
// allocator then refuses to begin allocating from blacklisted regions,
// so if the stray value is long-lived (the paper's worst case: constant
// static data scanned as a root), it can never pin a future object.
//
// The paper blacklists whole pages rather than individual addresses,
// "for reasons of performance and simplicity", and offers two
// representations: a bit array indexed by page number for a contiguous
// heap, and a hash table with one bit per entry for a discontinuous
// heap, where hash collisions simply blacklist a few extra pages. Both
// are implemented here, behind the List interface, plus a Disabled
// no-op used for the paper's "blacklisting off" measurement rows. The
// granule size is configurable so that page-level blacklisting can be
// compared against finer granularities (DESIGN.md, ablation notes).
//
// The paper also notes that "blacklisted values that are no longer
// found by a later collection may be removed from the list"; this aging
// is implemented by stamping entries with the collection cycle in which
// they were last seen (BeginCycle / Expire).
package blacklist

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/mem"
)

// Stats counts blacklist activity. The paper's footnote 3 reports the
// corresponding bookkeeping overhead at well under 1% of collector time.
type Stats struct {
	Adds    uint64 // Add calls (false references seen near the heap)
	Hits    uint64 // Contains/ContainsRange queries that returned true
	Queries uint64 // total Contains/ContainsRange queries
	Expired uint64 // entries removed by Expire
}

// List is the interface between the marker (which adds near-heap false
// references) and the allocator (which avoids blacklisted regions).
type List interface {
	// Add blacklists the granule containing a.
	Add(a mem.Addr)
	// Contains reports whether the granule containing a is blacklisted.
	Contains(a mem.Addr) bool
	// ContainsRange reports whether any granule intersecting [lo, hi)
	// is blacklisted. The allocator uses this before dedicating a fresh
	// block span to a size class, and — when interior pointers are
	// recognised — before placing a large object across several pages.
	ContainsRange(lo, hi mem.Addr) bool
	// Len returns the number of currently blacklisted granules. For the
	// hashed form this counts occupied buckets, which may conflate
	// colliding granules, as in the paper.
	Len() int
	// Clear removes all entries.
	Clear()
	// BeginCycle advances the collection-cycle stamp; the marker calls
	// it at the start of each collection.
	BeginCycle()
	// Expire removes entries not re-added within maxAge cycles and
	// returns how many were removed.
	Expire(maxAge uint32) int
	// Stats returns accumulated counters.
	Stats() Stats
}

func checkGranule(granule uint32) error {
	if granule == 0 || granule&(granule-1) != 0 {
		return fmt.Errorf("blacklist: granule %d not a power of two", granule)
	}
	if granule < mem.WordBytes {
		return fmt.Errorf("blacklist: granule %d smaller than a word", granule)
	}
	return nil
}

// Dense is the bit-array form: one entry per granule of a contiguous
// address range, normally the heap's reserved region. Entries store the
// cycle in which they were last added (0 = clear), which makes aging a
// single comparison.
type Dense struct {
	granule  uint32
	shift    uint
	base     mem.Addr
	ngran    int
	stamps   []uint32
	gen      uint32
	count    int
	statsRec Stats
}

var _ List = (*Dense)(nil)

// NewDense creates a dense blacklist covering [base, limit) with the
// given granule size in bytes (a power of two, at least one word; the
// paper uses the 4096-byte page).
func NewDense(base, limit mem.Addr, granule uint32) (*Dense, error) {
	if err := checkGranule(granule); err != nil {
		return nil, err
	}
	if limit <= base {
		return nil, fmt.Errorf("blacklist: empty range [%#x,%#x)", uint32(base), uint32(limit))
	}
	shift := uint(bits.TrailingZeros32(granule))
	lo := uint32(base) >> shift
	hi := (uint32(limit-1) >> shift) + 1
	return &Dense{
		granule: granule,
		shift:   shift,
		base:    mem.Addr(lo << shift),
		ngran:   int(hi - lo),
		stamps:  make([]uint32, hi-lo),
		gen:     1,
	}, nil
}

func (d *Dense) index(a mem.Addr) (int, bool) {
	if a < d.base {
		return 0, false
	}
	i := int((uint32(a) - uint32(d.base)) >> d.shift)
	if i >= d.ngran {
		return 0, false
	}
	return i, true
}

// Add blacklists the granule containing a. Addresses outside the
// covered range are ignored: the marker performs its own vicinity check
// and may occasionally probe just past the reservation.
func (d *Dense) Add(a mem.Addr) {
	d.statsRec.Adds++
	i, ok := d.index(a)
	if !ok {
		return
	}
	if d.stamps[i] == 0 {
		d.count++
	}
	d.stamps[i] = d.gen
}

// Contains reports whether the granule containing a is blacklisted.
func (d *Dense) Contains(a mem.Addr) bool {
	d.statsRec.Queries++
	i, ok := d.index(a)
	if ok && d.stamps[i] != 0 {
		d.statsRec.Hits++
		return true
	}
	return false
}

// ContainsRange reports whether any granule intersecting [lo, hi) is
// blacklisted.
func (d *Dense) ContainsRange(lo, hi mem.Addr) bool {
	d.statsRec.Queries++
	if hi <= lo {
		return false
	}
	i, iok := d.index(lo)
	if !iok {
		if lo >= d.base+mem.Addr(d.ngran)<<d.shift {
			return false
		}
		i = 0
	}
	j, jok := d.index(hi - 1)
	if !jok {
		if hi-1 < d.base {
			return false
		}
		j = d.ngran - 1
	}
	for ; i <= j; i++ {
		if d.stamps[i] != 0 {
			d.statsRec.Hits++
			return true
		}
	}
	return false
}

// Len returns the number of blacklisted granules.
func (d *Dense) Len() int { return d.count }

// Clear removes all entries.
func (d *Dense) Clear() {
	for i := range d.stamps {
		d.stamps[i] = 0
	}
	d.count = 0
}

// BeginCycle advances the collection-cycle stamp.
func (d *Dense) BeginCycle() { d.gen++ }

// Expire removes entries last seen more than maxAge cycles ago.
func (d *Dense) Expire(maxAge uint32) int {
	removed := 0
	for i, s := range d.stamps {
		if s != 0 && d.gen-s > maxAge {
			d.stamps[i] = 0
			d.count--
			removed++
		}
	}
	d.statsRec.Expired += uint64(removed)
	return removed
}

// Stats returns accumulated counters.
func (d *Dense) Stats() Stats { return d.statsRec }

// Granules returns the blacklisted granule base addresses in order,
// for diagnostics and the paper's "quick examination of the blacklist"
// (observation 7).
func (d *Dense) Granules() []mem.Addr {
	var out []mem.Addr
	for i, s := range d.stamps {
		if s != 0 {
			out = append(out, d.base+mem.Addr(i)<<d.shift)
		}
	}
	return out
}

// Hashed is the hash-table form for discontinuous heaps: a fixed table
// of buckets, one stamp per bucket. "If a false reference is seen to
// any of the pages with a given hash address, all of them are
// effectively blacklisted. Since collisions can easily be made rare,
// this does not result in much lost precision." (paper, section 3)
type Hashed struct {
	granule  uint32
	shift    uint
	mask     uint32
	stamps   []uint32
	gen      uint32
	count    int
	statsRec Stats
}

var _ List = (*Hashed)(nil)

// NewHashed creates a hashed blacklist with nbuckets buckets (rounded up
// to a power of two, minimum 64) and the given granule size.
func NewHashed(nbuckets int, granule uint32) (*Hashed, error) {
	if err := checkGranule(granule); err != nil {
		return nil, err
	}
	n := 64
	for n < nbuckets {
		n <<= 1
	}
	return &Hashed{
		granule: granule,
		shift:   uint(bits.TrailingZeros32(granule)),
		mask:    uint32(n - 1),
		stamps:  make([]uint32, n),
		gen:     1,
	}, nil
}

func (h *Hashed) bucket(a mem.Addr) int {
	g := uint32(a) >> h.shift
	// Fibonacci hashing spreads consecutive granule numbers across the
	// table, keeping collisions rare as the paper requires.
	return int((g * 2654435761) & h.mask)
}

// Add blacklists the bucket for a's granule.
func (h *Hashed) Add(a mem.Addr) {
	h.statsRec.Adds++
	b := h.bucket(a)
	if h.stamps[b] == 0 {
		h.count++
	}
	h.stamps[b] = h.gen
}

// Contains reports whether a's granule hashes to an occupied bucket.
func (h *Hashed) Contains(a mem.Addr) bool {
	h.statsRec.Queries++
	if h.stamps[h.bucket(a)] != 0 {
		h.statsRec.Hits++
		return true
	}
	return false
}

// ContainsRange reports whether any granule in [lo, hi) hashes to an
// occupied bucket.
func (h *Hashed) ContainsRange(lo, hi mem.Addr) bool {
	h.statsRec.Queries++
	if hi <= lo {
		return false
	}
	g0 := uint32(lo) >> h.shift
	g1 := uint32(hi-1) >> h.shift
	for g := g0; ; g++ {
		if h.stamps[int((g*2654435761)&h.mask)] != 0 {
			h.statsRec.Hits++
			return true
		}
		if g == g1 {
			return false
		}
	}
}

// Len returns the number of occupied buckets.
func (h *Hashed) Len() int { return h.count }

// Clear removes all entries.
func (h *Hashed) Clear() {
	for i := range h.stamps {
		h.stamps[i] = 0
	}
	h.count = 0
}

// BeginCycle advances the collection-cycle stamp.
func (h *Hashed) BeginCycle() { h.gen++ }

// Expire removes buckets last touched more than maxAge cycles ago.
func (h *Hashed) Expire(maxAge uint32) int {
	removed := 0
	for i, s := range h.stamps {
		if s != 0 && h.gen-s > maxAge {
			h.stamps[i] = 0
			h.count--
			removed++
		}
	}
	h.statsRec.Expired += uint64(removed)
	return removed
}

// Stats returns accumulated counters.
func (h *Hashed) Stats() Stats { return h.statsRec }

// Disabled is a List that records nothing and rejects nothing. It is
// the paper's "blacklisting disabled" configuration: the same collector
// with the bold-face lines of figure 2 removed.
type Disabled struct{}

var _ List = Disabled{}

// Add does nothing.
func (Disabled) Add(mem.Addr) {}

// Contains always reports false.
func (Disabled) Contains(mem.Addr) bool { return false }

// ContainsRange always reports false.
func (Disabled) ContainsRange(lo, hi mem.Addr) bool { return false }

// Len is always zero.
func (Disabled) Len() int { return 0 }

// Clear does nothing.
func (Disabled) Clear() {}

// BeginCycle does nothing.
func (Disabled) BeginCycle() {}

// Expire does nothing.
func (Disabled) Expire(uint32) int { return 0 }

// Stats returns zero counters.
func (Disabled) Stats() Stats { return Stats{} }

// SortedAddrs is a helper for tests and diagnostics: it sorts a copy of
// the given addresses.
func SortedAddrs(as []mem.Addr) []mem.Addr {
	out := append([]mem.Addr(nil), as...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
