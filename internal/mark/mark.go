// Package mark implements the conservative mark phase, including the
// paper's figure-2 "marking with blacklisting" algorithm.
//
// The marker receives candidate pointer values from root areas
// (registers, the mutator stack, static data segments) and from the
// fields of marked heap objects, and classifies each one:
//
//   - a valid object address (under the configured pointer-validity
//     policy): the object is marked and queued for scanning, unless the
//     containing block is pointer-free ("atomic");
//   - an invalid value in the vicinity of the heap — a value that
//     "could conceivably become a valid object address as a result of
//     later allocation": its page is blacklisted (the bold-face lines
//     in figure 2);
//   - anything else: ignored.
//
// Marking is iterative with an explicit mark stack rather than the
// figure's recursion, as in the real collector. The loop itself is the
// allocator's (alloc.Allocator.Scan); the marker keeps what is policy.
//
// Root candidate extraction supports two alignment regimes (paper,
// section 2 and figure 1): word-aligned candidates only, or every byte
// offset, where "the concatenation of the low order half word of an
// integer with the high order half word of the next integer can easily
// be a valid heap address". The unaligned regime reads big-endian
// words at all four byte offsets, which is how the paper's SPARC
// compiler's unaligned string constants turn into false pointers.
package mark

import (
	"math"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/trace"
)

// PointerPolicy selects which candidate values are treated as valid
// pointers to an object.
type PointerPolicy int

// Pointer policies.
const (
	// PointerBase accepts only object base addresses. "Interior
	// pointers rarely need to be recognized if old C programs are run
	// with garbage collection" (paper, footnote 2).
	PointerBase PointerPolicy = iota
	// PointerInterior accepts any address inside an object, required
	// when "array elements can be passed by reference"; it "greatly
	// increases the chance of misidentification" (paper, section 2).
	PointerInterior
)

func (p PointerPolicy) String() string {
	if p == PointerInterior {
		return "interior"
	}
	return "base"
}

// AlignPolicy selects how candidates are extracted from root memory.
type AlignPolicy int

// Alignment policies.
const (
	// AlignedWords extracts one candidate per word, the common case on
	// machines that store pointers at word boundaries.
	AlignedWords AlignPolicy = iota
	// AnyByteOffset extracts a candidate at every byte offset, required
	// "if pointers are not guaranteed to be properly aligned", and
	// "greatly increasing the number of false pointers" (section 2).
	AnyByteOffset
)

func (a AlignPolicy) String() string {
	if a == AnyByteOffset {
		return "any-byte-offset"
	}
	return "word-aligned"
}

// Config parameterises a Marker.
type Config struct {
	Policy    PointerPolicy
	Alignment AlignPolicy
	// Blacklist receives near-heap false references. nil disables
	// blacklisting (the paper's comparison configuration).
	Blacklist blacklist.List
}

// Stats counts one marking cycle's activity (reset by Reset): the mark
// loop's counters and the marker's own two, WordsScanned and
// FalseNearHeap.
type Stats = alloc.MarkStats

// Marker performs conservative marking over one heap.
type Marker struct {
	heap *alloc.Allocator
	cfg  Config
	bl   blacklist.List
	// stack holds the gray set: marked objects awaiting their scan, each
	// entry carrying the object's span (alloc.Gray), so a pop goes
	// straight to the object's words.
	stack []alloc.Gray
	// k is the mark loop's state between kernel calls, Stats included.
	k alloc.ScanState
	// tracer receives blacklist-addition events; nil (the default)
	// disables them at the cost of one compare per false reference.
	tracer *trace.Recorder
	// k.Record enables provenance recording (provenance.go): recs
	// collects one ParentRecord per first-mark, org tracks the scan
	// context the current candidates come from. Off by default; every
	// touch of org or recs is guarded by k.Record, so unrecorded cycles
	// pay only predictable branches and allocate nothing.
	recs []ParentRecord
	org  provOrigin
}

// New creates a marker for the given heap.
func New(heap *alloc.Allocator, cfg Config) *Marker {
	bl := cfg.Blacklist
	if bl == nil {
		bl = blacklist.Disabled{}
	}
	m := &Marker{heap: heap, cfg: cfg, bl: bl, stack: make([]alloc.Gray, 0, 1024)}
	m.k.Interior = cfg.Policy == PointerInterior
	return m
}

// Config returns the marker's configuration.
func (m *Marker) Config() Config { return m.cfg }

// SetTracer attaches r to receive EvBlacklistPage events (nil
// detaches).
func (m *Marker) SetTracer(r *trace.Recorder) { m.tracer = r }

// Reset clears per-cycle statistics. Mark bits are owned by the
// allocator and cleared by its sweep.
func (m *Marker) Reset() {
	m.k.Stats = Stats{}
	m.stack = m.stack[:0]
}

// Stats returns the current cycle's statistics.
func (m *Marker) Stats() Stats { return m.k.Stats }

// MarkValue processes one candidate value: figure 2 of the paper,
// without the recursion (the object is pushed for Drain to scan).
func (m *Marker) MarkValue(v mem.Word) {
	c := [1]mem.Word{v}
	m.scan(c[:], true, 0)
}

// Shade is the insertion barrier's step: v, which a mutator is about to
// store at word index of the heap object or root area org names (Kind
// RootNone and Base the object's base for a heap object), is classified
// like any scanned word — a valid object address is marked and left gray
// on this marker's stack for whoever drains it next, a near-heap
// non-pointer is blacklisted. It reports whether the store's target was
// unmarked until now. While recording, a first-mark made here names the
// stored-into word as the object's parent.
func (m *Marker) Shade(org RootOrigin, index int32, v mem.Word) bool {
	if m.k.Record {
		m.org = provOrigin{kind: org.Kind, area: org.Base, src: org.Src, base: index}
	}
	before := m.k.Stats.ObjectsMarked
	c := [1]mem.Word{v}
	m.scan(c[:], false, 0)
	return m.k.Stats.ObjectsMarked != before
}

// scan classifies every word in ws — root areas, register files, single
// values and gray objects' fields all come through here — then drains
// up to budget gray objects, and returns what is left of the budget.
// dense says ws is a root area, whose zero words count as Candidates.
// The loop is the allocator's kernel, with no call per candidate; it
// returns here for what is policy: the in-hull non-objects it met (to
// blacklist), a typed entry, and while recording each object it marks.
func (m *Marker) scan(ws []mem.Word, dense bool, budget int) int {
	k := &m.k
	k.Begin(dense, budget)
	for {
		stop := m.heap.Scan(k, ws, &m.stack)
		if k.NFalse != 0 {
			for _, p := range k.False[:k.NFalse] {
				m.falseReference(p)
			}
			k.NFalse = 0
		}
		switch stop {
		case alloc.ScanTyped:
			budget := k.Budget
			m.open(k.Gray)
			ws = nil
			k.Begin(false, budget)
		case alloc.ScanWin:
			if k.From != 0 {
				m.org = provOrigin{kind: RootNone, area: k.From.Base()}
			}
			// This loop set the mark bit, so it alone records the
			// object's first-marking parent.
			m.org.index = m.org.base + int32(k.Index)
			m.recordWin(k.Gray.Base(), k.Cand, mem.Word(k.Cand))
		case alloc.ScanDone:
			return k.Budget
		}
	}
}

// open begins the scan of one gray object, any object on any heap, and
// returns the words the loop is to classify: all of a conservative
// object's, none of a typed one's, whose declared pointer words open
// feeds through the loop itself. Heap objects are scanned word-aligned regardless of the root
// alignment policy: the collector allocates objects word-aligned, so
// "newer compilers almost always guarantee adequate alignment" applies
// to the heap unconditionally.
func (m *Marker) open(g alloc.Gray) []mem.Word {
	ws := m.heap.GrayWords(g)
	if m.k.Record {
		m.org = provOrigin{kind: RootNone, area: g.Base(), declared: g.Typed()}
	}
	if g.Typed() {
		m.scanTyped(g, ws)
		return nil
	}
	m.k.Stats.FieldsScanned += uint64(len(ws))
	return ws
}

// scanTyped scans a typed object, whose words are ws. Exact layout
// information: only the descriptor's pointer words are candidates
// ("complete information on the location of pointers in the heap"). The
// bitmap is walked a run of set bits at a time, each run one slice
// through the loop.
func (m *Marker) scanTyped(g alloc.Gray, ws []mem.Word) {
	for wi, mask := range m.heap.PointerMask(g) {
		for mask != 0 {
			lo := bits.TrailingZeros64(mask)
			n := bits.TrailingZeros64(^(mask >> uint(lo)))
			mask &^= (1<<uint(n) - 1) << uint(lo)
			lo += wi << 6
			if m.k.Record {
				m.org.base = int32(lo)
			}
			m.k.Stats.FieldsScanned += uint64(n)
			m.scan(ws[lo:lo+n], false, 0)
		}
	}
}

// falseReference is figure 2's bold-face line: "if p is in the vicinity
// of the heap: add p to blacklist", for a candidate that is not a valid
// object address.
func (m *Marker) falseReference(p mem.Addr) {
	if m.heap.InVicinity(p) {
		m.k.Stats.FalseNearHeap++
		m.bl.Add(p)
		m.tracer.Emit(trace.EvBlacklistPage, int64(p), 0, 0)
	}
}

// MarkWords scans a word slice as a root area under the configured
// alignment policy. The words are interpreted as big-endian for the
// unaligned regime. While recording provenance, first-marks through
// MarkWords carry no area identity (Kind RootNone, Parent 0); use
// MarkRootArea to attribute them.
func (m *Marker) MarkWords(words []mem.Word) {
	if m.k.Record {
		m.org = provOrigin{}
	}
	m.markRootWords(words)
}

// markRootWords scans words as root candidates under the alignment policy:
// MarkWords and MarkRootArea once their origin is set.
func (m *Marker) markRootWords(words []mem.Word) {
	m.k.Stats.WordsScanned += uint64(len(words))
	m.scan(words, true, 0)
	if m.cfg.Alignment != AnyByteOffset {
		return
	}
	// Candidates straddling word boundaries: big-endian concatenations
	// of adjacent words at byte offsets 1..3. While recording, the origin
	// (index and byte offset) is maintained per candidate so a first-mark
	// names the exact root word responsible.
	area := m.org.base
	for i := 0; i+1 < len(words); i++ {
		hi, lo := uint32(words[i]), uint32(words[i+1])
		c := [3]mem.Word{mem.Word(hi<<8 | lo>>24), mem.Word(hi<<16 | lo>>16), mem.Word(hi<<24 | lo>>8)}
		if !m.k.Record {
			m.scan(c[:], true, 0)
			continue
		}
		m.org.base = area + int32(i)
		for k := range c {
			m.org.off = uint8(k + 1)
			m.scan(c[k:k+1], true, 0)
		}
	}
	if m.k.Record {
		m.org.base, m.org.off = area, 0
	}
}

// MarkSegment scans a whole segment's committed words as a root area.
func (m *Marker) MarkSegment(s *mem.Segment) { m.MarkWords(s.Words()) }

// MarkRootSegments scans every segment flagged as a root in the space.
func (m *Marker) MarkRootSegments(space *mem.AddressSpace) {
	for _, s := range space.Roots() {
		m.MarkSegment(s)
	}
}

// ScanObject scans the fields of the object at base as pointer
// candidates, regardless of the object's own mark state. Minor
// collections use it to rescan old (marked) objects on dirty pages for
// old-to-young pointers; atomic objects scan as nothing. It is the
// by-base way into the loop: the entry is built from a block lookup
// instead of popped.
func (m *Marker) ScanObject(base mem.Addr) {
	if g, scanned := m.heap.ScanView(base); scanned {
		m.scan(m.open(g), false, 0)
	}
}

// Drain transitively scans queued objects until the mark stack is
// empty.
func (m *Marker) Drain() { m.scan(nil, false, math.MaxInt) }

// DrainN scans up to n queued objects and reports whether the mark
// stack is now empty. The concurrent cycle uses it to bound the marking
// work done per chunk.
func (m *Marker) DrainN(n int) bool {
	m.scan(nil, false, n)
	return len(m.stack) == 0
}
