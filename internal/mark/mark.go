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
	heap  *alloc.Allocator
	cfg   Config
	bl    blacklist.List
	stack []mem.Addr
	stats Stats
	// atomicMark switches Mark to the CAS-based MarkAtomic, required
	// when several markers share the heap (see parallel.go).
	atomicMark bool
	// atomicLoad switches ScanObject's heap-word reads to atomic loads,
	// required for detached background workers that scan while mutators
	// store concurrently (the stores are atomic too, via the heap
	// segment's atomic-store mode). Off for stop-the-world marking,
	// where exclusion already orders every access.
	atomicLoad bool
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
	return &Marker{heap: heap, cfg: cfg, bl: bl, stack: make([]mem.Addr, 0, 1024)}
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
	m.stats.Candidates++
	p := mem.Addr(v)
	// Candidate fast path: a value outside the heap's reserved hull can
	// be neither a valid object address nor "in the vicinity of the
	// heap", so the overwhelmingly common non-pointer root word costs
	// two compares instead of an object lookup plus a vicinity test.
	if lo, hi := m.heap.Hull(); p < lo || p >= hi {
		return
	}
	// One block lookup does the validity check, the mark-bit transition
	// (a CAS when several markers share the heap) and the size fetch.
	base, words, out := m.heap.MarkCandidate(p, m.cfg.Policy == PointerInterior, m.atomicMark)
	if out == alloc.NotObject {
		// "if p is in the vicinity of the heap: add p to blacklist"
		if m.heap.InVicinity(p) {
			m.stats.FalseNearHeap++
			m.bl.Add(p)
			m.tracer.Emit(trace.EvBlacklistPage, int64(p), 0, 0)
		}
		return
	}
	if p != base {
		m.stats.InteriorResolved++
	}
	if out == alloc.Already {
		return // already marked (possibly by another worker)
	}
	m.stats.ObjectsMarked++
	m.stats.BytesMarked += uint64(words * mem.WordBytes)
	if m.rec {
		// This call set the mark bit (under parallel marking: won the
		// CAS), so it alone records the object's first-marking parent.
		m.recordWin(base, p, v)
	}
	if out == alloc.WonAtomic {
		m.stats.AtomicSkipped++
		return
	}
	m.stack = append(m.stack, base)
	if m.overflow != nil && len(m.stack) >= spillThreshold {
		m.overflow(m)
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
	if m.rec {
		m.markWordsChunkRecorded(words, n)
		return
	}
	for _, w := range words[:n] {
		m.MarkValue(w)
	}
	if m.cfg.Alignment == AnyByteOffset {
		// Candidates straddling word boundaries: big-endian
		// concatenations of adjacent words at byte offsets 1..3.
		for i := 0; i+1 < len(words); i++ {
			hi, lo := uint32(words[i]), uint32(words[i+1])
			m.MarkValue(mem.Word(hi<<8 | lo>>24))
			m.MarkValue(mem.Word(hi<<16 | lo>>16))
			m.MarkValue(mem.Word(hi<<24 | lo>>8))
		}
	}
}

// markWordsChunkRecorded is markWordsChunk's provenance-recording body:
// the same candidates in the same order, with the origin index (and,
// for straddles, byte offset) maintained so a first-mark records the
// exact root word responsible.
func (m *Marker) markWordsChunkRecorded(words []mem.Word, n int) {
	for i, w := range words[:n] {
		m.org.index = m.org.base + int32(i)
		m.MarkValue(w)
	}
	if m.cfg.Alignment == AnyByteOffset {
		for i := 0; i+1 < len(words); i++ {
			hi, lo := uint32(words[i]), uint32(words[i+1])
			m.org.index = m.org.base + int32(i)
			m.org.off = 1
			m.MarkValue(mem.Word(hi<<8 | lo>>24))
			m.org.off = 2
			m.MarkValue(mem.Word(hi<<16 | lo>>16))
			m.org.off = 3
			m.MarkValue(mem.Word(hi<<24 | lo>>8))
			m.org.off = 0
		}
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
// old-to-young pointers; atomic objects scan as nothing.
func (m *Marker) ScanObject(base mem.Addr) {
	ws, kind, desc := m.heap.ScanView(base)
	if kind == alloc.ScanAtomic {
		return
	}
	if kind == alloc.ScanTyped {
		if m.rec {
			m.org = provOrigin{kind: RootNone, area: base, declared: true}
		}
		// Exact layout information: only the descriptor's pointer
		// words are candidates ("complete information on the location
		// of pointers in the heap").
		for i := 0; i < desc.Words; i++ {
			if desc.PointerAt(i) {
				m.stats.FieldsScanned++
				if w := m.fieldWord(ws, i); w != 0 {
					if m.rec {
						m.org.index = int32(i)
					}
					m.MarkValue(w)
				}
			}
		}
		return
	}
	if m.rec {
		m.org = provOrigin{kind: RootNone, area: base}
	}
	m.stats.FieldsScanned += uint64(len(ws))
	if m.atomicLoad {
		for i := range ws {
			if w := mem.LoadWordAtomic(&ws[i]); w != 0 {
				if m.rec {
					m.org.index = int32(i)
				}
				m.MarkValue(w)
			}
		}
		return
	}
	for i, w := range ws {
		if w != 0 { // zero is never a heap address
			if m.rec {
				m.org.index = int32(i)
			}
			m.MarkValue(w)
		}
	}
}

// fieldWord reads one heap object word, atomically when the marker runs
// detached from the store path's lock.
func (m *Marker) fieldWord(ws []mem.Word, i int) mem.Word {
	if m.atomicLoad {
		return mem.LoadWordAtomic(&ws[i])
	}
	return ws[i]
}

// Drain transitively scans queued objects until the mark stack is
// empty. Heap objects are scanned word-aligned regardless of the root
// alignment policy: the collector allocates objects word-aligned, so
// "newer compilers almost always guarantee adequate alignment" applies
// to the heap unconditionally.
func (m *Marker) Drain() {
	for len(m.stack) > 0 {
		obj := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		m.ScanObject(obj)
	}
}

// DrainN scans up to n queued objects and reports whether the mark
// stack is now empty. Incremental collection uses it to bound the
// marking work done per allocation.
func (m *Marker) DrainN(n int) bool {
	for i := 0; i < n && len(m.stack) > 0; i++ {
		obj := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		m.ScanObject(obj)
	}
	return len(m.stack) == 0
}

// Pending returns the number of objects awaiting scanning.
func (m *Marker) Pending() int { return len(m.stack) }

// TakePending removes and returns the queued (marked but unscanned)
// objects. A concurrent cycle's snapshot pause scans roots with the
// serial marker, then hands the resulting gray set to the parallel
// workers through this.
func (m *Marker) TakePending() []mem.Addr {
	if len(m.stack) == 0 {
		return nil
	}
	out := append([]mem.Addr(nil), m.stack...)
	m.stack = m.stack[:0]
	return out
}
