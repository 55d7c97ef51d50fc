// Retention provenance: an optional mark-time recorder capturing, for
// every object the cycle marks, its *first-marking parent* — the exact
// candidate word that caused the object's mark bit to be set.
//
// The paper diagnoses spurious retention by hand ("quick examination of
// the blacklist", observation 7; the section-4 bounded-workspace
// arguments). The recorder mechanises that examination: each record
// names either a root slot (machine register, stack word, mutator
// handle, or explicit root segment, with its index) or a heap parent
// object plus field offset, and classifies the referencing word as an
// exact pointer, a valid interior pointer, or a misidentified unaligned
// candidate. core.World reconstructs "why is this object live?" paths
// and retention attributions from the records.
//
// Cost model: recording is off by default. When off, the only additions
// to the mark hot path are predictable `if m.k.Record` branches — no stores,
// no allocation, and a candidate order identical to the unrecorded
// marker's (asserted by the provenance differential tests). When on,
// the marker appends one fixed-size record per first-mark to a slice of
// its own.
package mark

import "repro/internal/mem"

// RootKind classifies the origin of a first-marking candidate.
type RootKind uint8

// Root kinds. RootNone means the parent is a heap object (the candidate
// was one of its scanned fields); the other kinds name a root area.
const (
	RootNone RootKind = iota
	RootRegister
	RootStack
	RootSegment
)

func (k RootKind) String() string {
	switch k {
	case RootRegister:
		return "register"
	case RootStack:
		return "stack"
	case RootSegment:
		return "segment"
	default:
		return "heap"
	}
}

// RefKind classifies the referencing word itself.
type RefKind uint8

// Reference kinds.
const (
	// RefExact: the candidate equalled the object's base address.
	RefExact RefKind = iota
	// RefInterior: a valid interior pointer resolved to the base.
	RefInterior
	// RefUnaligned: a byte-straddling candidate under AnyByteOffset — by
	// construction the concatenation of two adjacent words, i.e. a
	// misidentified candidate, never a pointer the program stored.
	RefUnaligned
)

func (k RefKind) String() string {
	switch k {
	case RefInterior:
		return "interior"
	case RefUnaligned:
		return "unaligned"
	default:
		return "exact"
	}
}

// RootOrigin identifies one root area for provenance attribution.
type RootOrigin struct {
	Kind RootKind
	// Src identifies the area's owner: -1 the world's attached
	// RootSource, >= 0 a mutator handle's index (RootRegister and
	// RootStack) or the root segment's ordinal (RootSegment).
	Src int32
	// Base is the simulated address of the area's first word; 0 when
	// the area is not addressable (register files).
	Base mem.Addr
}

// ParentRecord is one first-marking provenance record.
type ParentRecord struct {
	// Obj is the base address of the object this record explains.
	Obj mem.Addr
	// Parent is the referencing word's location: the parent object's
	// base address (Kind == RootNone), the root word's simulated address
	// (RootStack, RootSegment), or 0 (RootRegister, or an area of
	// unknown origin).
	Parent mem.Addr
	// Value is the candidate word as scanned (for unaligned candidates:
	// the straddling concatenation, not either stored word).
	Value mem.Word
	// Kind says whether the parent is a heap object or a root slot.
	Kind RootKind
	// Ref classifies the candidate (exact / interior / unaligned).
	Ref RefKind
	// Declared is true when the candidate came from a typed descriptor's
	// declared pointer field rather than a conservative scan.
	Declared bool
	// Off is the byte offset (1..3) of an unaligned candidate within
	// its first word; 0 for aligned candidates.
	Off uint8
	// Index is the word index within the root area, the register number,
	// or the field index within the parent object.
	Index int32
	// Src is RootOrigin.Src for root kinds; 0 for heap parents.
	Src int32
}

// provOrigin is the marker's current scan context while recording: the
// area or heap parent the candidates now being tested came from. Only
// touched under `if m.k.Record`, so the unrecorded paths never write it.
type provOrigin struct {
	kind     RootKind
	area     mem.Addr // root-area base address, or heap parent base (RootNone)
	src      int32
	base     int32 // index of the scanned slice's first word within the area or object
	index    int32 // current absolute word / field / register index
	off      uint8 // unaligned byte offset of the current candidate (0 = aligned)
	declared bool  // current candidate is a declared typed pointer field
}

// StartRecording begins provenance recording: until StopRecording,
// every first-mark appends one ParentRecord. Any records from a
// previous recording are discarded.
func (m *Marker) StartRecording() {
	m.k.Record = true
	m.recs = m.recs[:0]
	m.org = provOrigin{}
}

// Recording reports whether provenance recording is on.
func (m *Marker) Recording() bool { return m.k.Record }

// StopRecording ends recording and returns the records captured since
// StartRecording. The slice is reused by the next StartRecording; the
// caller must consume (or copy) it first.
func (m *Marker) StopRecording() []ParentRecord {
	m.k.Record = false
	return m.recs
}

// recordWin appends the provenance record for an object this marker
// just won the mark bit of. Called only with m.k.Record set.
func (m *Marker) recordWin(base, p mem.Addr, v mem.Word) {
	o := &m.org
	ref := RefExact
	if o.off != 0 {
		ref = RefUnaligned
	} else if p != base {
		ref = RefInterior
	}
	parent := o.area
	if o.kind != RootNone && o.area != 0 {
		// Root areas with addresses (stacks, segments): record the
		// referencing word's own simulated address.
		parent = o.area + mem.Addr(int(o.index)*mem.WordBytes)
	}
	m.recs = append(m.recs, ParentRecord{
		Obj:      base,
		Parent:   parent,
		Value:    v,
		Kind:     o.kind,
		Ref:      ref,
		Declared: o.declared,
		Off:      o.off,
		Index:    o.index,
		Src:      o.src,
	})
}

// MarkSparseRoots scans a register file as provenance-attributed roots:
// nonzero words are tested individually, with no straddle candidates
// and no WordsScanned accounting — exactly the collector's register
// scan, plus origin bookkeeping when recording.
func (m *Marker) MarkSparseRoots(org RootOrigin, words []mem.Word) {
	if m.k.Record {
		m.org = provOrigin{kind: org.Kind, area: org.Base, src: org.Src}
	}
	m.scan(words, false, 0)
}

// MarkRootArea scans words as a provenance-attributed root area under
// the configured alignment policy. Identical to MarkWords when not
// recording, except that a word-aligned root segment unchanged since its
// last full scan is served from the marker's copy (markRootSegment),
// with the same outcome.
func (m *Marker) MarkRootArea(org RootOrigin, words []mem.Word) {
	if m.k.Record {
		m.org = provOrigin{kind: org.Kind, area: org.Base, src: org.Src}
	} else if org.Kind == RootSegment && org.Src >= 0 && m.cfg.Alignment == AlignedWords {
		m.markRootSegment(org.Src, words)
		return
	}
	m.markRootWords(words)
}
