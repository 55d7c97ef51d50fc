package core

import (
	"sort"

	"repro/internal/mark"
	"repro/internal/mem"
)

// Heap snapshots: a stop-the-world export of every allocated object,
// every heap→heap reference, the harvested provenance records, and the
// blacklist state — the raw material for offline "why is my heap this
// big?" analysis. internal/inspect renders a snapshot as JSON
// (WriteHeapSnapshot); cmd/heapdump exposes it as -snapshot.

// SnapshotObject is one allocated object.
type SnapshotObject struct {
	Addr   mem.Addr
	Words  int
	Atomic bool
	Marked bool // current mark bit (sticky "old" bit in generational worlds)
	Label  string
}

// SnapshotEdge is one heap word that resolves to an allocated object
// under the world's pointer policy.
type SnapshotEdge struct {
	Src      mem.Addr // source object base
	Index    int      // word index within the source object
	Dst      mem.Addr // destination object base
	Interior bool     // the word pointed inside Dst, not at its base
}

// SnapshotBlacklist is the blacklist's state at snapshot time.
type SnapshotBlacklist struct {
	Pages int
	Adds  uint64
	Hits  uint64
}

// HeapSnapshot is one consistent view of the heap.
type HeapSnapshot struct {
	HeapBase        mem.Addr
	HeapBytes       int
	Collections     int
	ProvenanceValid bool
	ProvenanceCycle int
	Objects         []SnapshotObject
	Edges           []SnapshotEdge
	// Provenance holds the harvested first-marking records, sorted by
	// object address (empty without EnableProvenance).
	Provenance []mark.ParentRecord
	Blacklist  SnapshotBlacklist
}

// BuildHeapSnapshot stops the world and exports every allocated
// object, the reference edges between them, the harvested provenance
// map, and the blacklist state. label, when non-nil, classifies each
// object (same contract as RetentionOptions.Label).
func (w *World) BuildHeapSnapshot(label func(base mem.Addr) string) HeapSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	// Cached slots are allocated but not yet handed out: not objects to
	// export.
	w.flushMutatorsLocked()

	bl := w.Blacklist.Stats()
	snap := HeapSnapshot{
		HeapBase:        w.cfg.HeapBase,
		HeapBytes:       w.Heap.Stats().HeapBytes,
		Collections:     w.collections,
		ProvenanceValid: w.prov.valid,
		ProvenanceCycle: w.prov.cycle,
		Objects:         []SnapshotObject{},
		Edges:           []SnapshotEdge{},
		Provenance:      []mark.ParentRecord{},
		Blacklist:       SnapshotBlacklist{Pages: w.Blacklist.Len(), Adds: bl.Adds, Hits: bl.Hits},
	}
	interior := w.cfg.Pointer == mark.PointerInterior
	w.Heap.ForEachObject(func(base mem.Addr) {
		words, atomic := w.Heap.ObjectSpan(base)
		obj := SnapshotObject{Addr: base, Words: words, Atomic: atomic, Marked: w.Heap.Marked(base)}
		if label != nil {
			obj.Label = label(base)
		}
		snap.Objects = append(snap.Objects, obj)
		if atomic {
			return // pointer-free: the collector never scans it
		}
		for i := 0; i < words; i++ {
			v, err := w.Space.Load(base + mem.Addr(i*mem.WordBytes))
			if err != nil || v == 0 {
				continue
			}
			dst, ok := w.Heap.FindObject(mem.Addr(v), interior)
			if !ok {
				continue
			}
			snap.Edges = append(snap.Edges, SnapshotEdge{
				Src: base, Index: i, Dst: dst, Interior: mem.Addr(v) != dst,
			})
		}
	})
	for _, rec := range w.prov.records {
		snap.Provenance = append(snap.Provenance, rec)
	}
	sort.Slice(snap.Provenance, func(i, j int) bool {
		return snap.Provenance[i].Obj < snap.Provenance[j].Obj
	})
	return snap
}
