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
// figure's recursion, as in the real collector.
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

// Stats counts one marking cycle's activity (reset by Reset).
type Stats struct {
	WordsScanned     uint64 // root words examined
	Candidates       uint64 // candidate values tested (≥ WordsScanned under AnyByteOffset)
	ObjectsMarked    uint64
	BytesMarked      uint64
	FieldsScanned    uint64 // heap object words examined
	FalseNearHeap    uint64 // invalid candidates in the heap's vicinity (blacklisted)
	AtomicSkipped    uint64 // marked objects whose contents were not scanned
	InteriorResolved uint64 // valid candidates that were not base addresses
}

// Marker performs conservative marking over one heap.
type Marker struct {
	heap *alloc.Allocator
	cfg  Config
	bl   blacklist.List
	// stack holds the gray set: marked objects awaiting their scan, each
	// entry carrying the object's span (alloc.Gray), so a pop goes
	// straight to the object's words.
	stack []alloc.Gray
	stats Stats
	// atomicMark switches Mark to the CAS-based MarkAtomic, required
	// when several markers share the heap (see parallel.go).
	atomicMark bool
	// overflow, when set, is invoked after a push that grows the stack
	// to spillThreshold or beyond; parallel workers use it to shed work
	// onto the shared queue. nil for the serial marker.
	overflow func(*Marker)
	// tracer receives blacklist-addition events; nil (the default)
	// disables them at the cost of one compare per false reference.
	tracer *trace.Recorder
	// rec enables provenance recording (provenance.go): recs collects
	// one ParentRecord per first-mark, org tracks the scan context the
	// current candidates come from. Off by default; every touch of org
	// or recs is guarded by rec, so unrecorded cycles pay only
	// predictable branches and allocate nothing.
	rec  bool
	recs []ParentRecord
	org  provOrigin
}

// spillThreshold is the local mark-stack depth beyond which a parallel
// worker sheds chunks to the shared overflow queue.
const spillThreshold = 8192

// New creates a marker for the given heap.
func New(heap *alloc.Allocator, cfg Config) *Marker {
	bl := cfg.Blacklist
	if bl == nil {
		bl = blacklist.Disabled{}
	}
	return &Marker{heap: heap, cfg: cfg, bl: bl, stack: make([]alloc.Gray, 0, 1024)}
}

// Config returns the marker's configuration.
func (m *Marker) Config() Config { return m.cfg }

// SetTracer attaches r to receive EvBlacklistPage events (nil
// detaches). Parallel workers may share one recorder: Emit is
// concurrency-safe.
func (m *Marker) SetTracer(r *trace.Recorder) { m.tracer = r }

// Reset clears per-cycle statistics. Mark bits are owned by the
// allocator and cleared by its sweep.
func (m *Marker) Reset() {
	m.stats = Stats{}
	m.stack = m.stack[:0]
}

// Stats returns the current cycle's statistics.
func (m *Marker) Stats() Stats { return m.stats }

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
	if m.rec {
		m.org = provOrigin{kind: org.Kind, area: org.Base, src: org.Src, base: index}
	}
	before := m.stats.ObjectsMarked
	c := [1]mem.Word{v}
	m.scan(c[:], false, 0)
	return m.stats.ObjectsMarked != before
}

// scan is the mark loop: figure 2's classification of every word in ws,
// stated once — root areas, register files, single values and the
// fields of gray objects all come through here. Each nonzero word is a
// valid object address (the object is marked and, unless pointer-free,
// pushed), or an invalid value in the heap's vicinity (blacklisted), or
// neither (ignored). dense says ws is a root area, where zero words
// count as Candidates too; object fields and register files skip them
// uncounted (zero is never a heap address).
//
// Having classified ws, the loop goes on to pop up to budget gray
// objects and classify their words in turn (open), so a drain is one
// call, not one per object; it returns what is left of the budget. A
// popped entry carries its object's span: its words are sliced straight
// out of the heap, with no block lookup.
//
// The loop costs a small constant per word and per edge. A word outside
// the heap's reserved hull never leaves the inner loop; one inside it
// pays exactly one call, resolve's, through the allocator's
// MarkCandidate. What stays live across that call is kept to a handful
// of values — the Go compiler spills every one of them around it — so
// the hull's bounds and the nonzero count are locals and the rarer
// counters are not.
//
// Words are loaded atomically because detached workers scan objects
// that mutators store to concurrently (the stores are atomic too, via
// the heap segment's atomic-store mode); on amd64 the atomic load is
// the same instruction as a plain one, and BenchmarkMarkLiveGraph
// prices it at nothing.
func (m *Marker) scan(ws []mem.Word, dense bool, budget int) int {
	lo, hi := m.heap.Hull()
	span := hi - lo
	for {
		nonzero := 0
		for i := 0; ; i++ {
			// Advance to the next word inside the hull. A value outside
			// it can be neither a valid object address nor "in the
			// vicinity of the heap": one compare (values below lo wrap
			// past span) settles the overwhelmingly common non-pointer
			// word.
			var v mem.Word
			for ; i < len(ws); i++ {
				if v = mem.LoadWordAtomic(&ws[i]); v != 0 {
					nonzero++
					if mem.Addr(v)-lo < span {
						break
					}
				}
			}
			if i >= len(ws) {
				break
			}
			// One block lookup does the validity check, the mark-bit
			// transition (a CAS when several markers share the heap) and
			// the fetch of the object's span.
			p := mem.Addr(v)
			g, out := m.heap.MarkCandidate(p, m.cfg.Policy == PointerInterior, m.atomicMark)
			if out == alloc.NotObject {
				m.falseReference(p)
				continue
			}
			if p != g.Base() {
				m.stats.InteriorResolved++
			}
			// Already marked or newly marked is the loop's one
			// unpredictable question, so nothing below branches on it: the
			// counters take won as a number and the push stores the entry
			// regardless, keeping it only if won. (When markers share the
			// heap the compare-and-swap has branched on it already, and
			// another worker's mark is simply skipped.)
			if m.atomicMark && out == alloc.Already {
				continue
			}
			won := out.Won()
			m.stats.ObjectsMarked += uint64(won)
			m.stats.BytesMarked += uint64(won * g.Words() * mem.WordBytes)
			if m.rec && won != 0 {
				// This call set the mark bit (under parallel marking: won
				// the CAS), so it alone records the object's first-marking
				// parent.
				m.org.index = m.org.base + int32(i)
				m.recordWin(g.Base(), p, v)
			}
			if out == alloc.WonAtomic {
				m.stats.AtomicSkipped++
				continue
			}
			n := len(m.stack)
			m.stack = append(m.stack, g)[:n+won]
			if m.overflow != nil && n+won >= spillThreshold {
				m.overflow(m)
			}
		}
		if dense {
			nonzero, dense = len(ws), false
		}
		m.stats.Candidates += uint64(nonzero)
		// The next slice is the newest gray object's words.
		if budget <= 0 || len(m.stack) == 0 {
			return budget
		}
		budget--
		g := m.pop()
		if flat := m.heap.FlatWords(); flat == nil || g.Typed() || m.rec {
			ws = m.open(g)
		} else {
			// The usual object — conservative, on a one-extent heap, no
			// provenance wanted — is opened here, without a call: on a
			// heap of leaves that call is most of what a pop costs.
			ws = flat[(g.Base()-lo)/mem.WordBytes:][:g.Words()]
			m.stats.FieldsScanned += uint64(len(ws))
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
	if m.rec {
		m.org = provOrigin{kind: RootNone, area: g.Base(), declared: g.Typed()}
	}
	if g.Typed() {
		m.scanTyped(g, ws)
		return nil
	}
	m.stats.FieldsScanned += uint64(len(ws))
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
			if m.rec {
				m.org.base = int32(lo)
			}
			m.stats.FieldsScanned += uint64(n)
			m.scan(ws[lo:lo+n], false, 0)
		}
	}
}

// falseReference is figure 2's bold-face line: "if p is in the vicinity
// of the heap: add p to blacklist", for a candidate that is not a valid
// object address.
func (m *Marker) falseReference(p mem.Addr) {
	if m.heap.InVicinity(p) {
		m.stats.FalseNearHeap++
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
	if m.rec {
		m.org = provOrigin{}
	}
	m.markWordsChunk(words, 0)
}

// markWordsChunk scans words[:len(words)-tail] as root candidates; the
// trailing tail words are straddle context only — scanned by the
// unaligned pass but not as aligned candidates. Parallel root chunking
// uses tail=1 so that a candidate straddling two chunks is still seen
// by exactly one worker, keeping chunked scans candidate-for-candidate
// identical to a serial scan of the whole area.
func (m *Marker) markWordsChunk(words []mem.Word, tail int) {
	n := len(words) - tail
	m.stats.WordsScanned += uint64(n)
	m.scan(words[:n], true, 0)
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
		if !m.rec {
			m.scan(c[:], true, 0)
			continue
		}
		m.org.base = area + int32(i)
		for k := range c {
			m.org.off = uint8(k + 1)
			m.scan(c[k:k+1], true, 0)
		}
	}
	if m.rec {
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

// pop removes and returns the newest gray entry; the stack must not be
// empty.
func (m *Marker) pop() alloc.Gray {
	g := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return g
}

// drain pops and scans up to budget gray objects, returning what is
// left of the budget (nonzero only if the stack emptied first).
func (m *Marker) drain(budget int) int { return m.scan(nil, false, budget) }

// Drain transitively scans queued objects until the mark stack is
// empty.
func (m *Marker) Drain() { m.drain(math.MaxInt) }

// DrainN scans up to n queued objects and reports whether the mark
// stack is now empty. The serial concurrent cycle uses it to bound the
// marking work done per allocation.
func (m *Marker) DrainN(n int) bool {
	m.drain(n)
	return len(m.stack) == 0
}

// TakePending removes and returns the queued (marked but unscanned)
// objects. A concurrent cycle's snapshot pause scans roots with the
// serial marker, then hands the resulting gray set to the parallel
// workers through this. The slice is the marker's own stack, emptied:
// it is valid until the marker next pushes (AddGrays copies out of it).
func (m *Marker) TakePending() []alloc.Gray {
	out := m.stack
	m.stack = m.stack[:0]
	return out
}
