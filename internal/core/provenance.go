package core

import (
	"fmt"
	"sort"

	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Retention provenance at the world level: the collection pipeline
// harvests the marker's first-marking records (internal/mark,
// provenance.go) into a per-object map, and this file answers the
// questions the paper answers by hand — "why is this object live?"
// (WhyLive reconstructs the root→object path) and "how much is
// spuriously retained?" (RetentionReport re-marks a censored copy of
// the roots and attributes the difference).

// EnableProvenance turns first-marking provenance recording on or off
// for subsequent collections. Recording appends one fixed-size record
// per object marked; with it off (the default) collections are
// bit-identical to a world without the subsystem — no stores, no
// allocation, identical addresses and CollectionStats. Turning it off
// keeps the last harvested map.
func (w *World) EnableProvenance(on bool) {
	w.mu.Lock()
	w.prov.enabled = on
	w.mu.Unlock()
}

// ProvenanceEnabled reports whether subsequent collections record.
func (w *World) ProvenanceEnabled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.prov.enabled
}

// ProvenanceValid reports whether a harvested provenance map exists,
// and if so which collection cycle it describes. Full cycles rebuild
// the map; generational minors merge their newly
// promoted objects into it (sticky mark bits mean an old object never
// re-wins a first-mark) and prune entries for objects since freed. For
// a complete map, enable recording before a full cycle.
func (w *World) ProvenanceValid() (bool, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.prov.valid, w.prov.cycle
}

// ProvenanceRecordCount returns the harvested map's size.
func (w *World) ProvenanceRecordCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.prov.records)
}

// ProvenanceFor returns the first-marking record for the object
// containing addr, if the harvested map has one.
func (w *World) ProvenanceFor(addr mem.Addr) (mark.ParentRecord, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	base, ok := w.Heap.FindObject(addr, true)
	if !ok {
		return mark.ParentRecord{}, false
	}
	rec, ok := w.prov.records[base]
	return rec, ok
}

// harvestProvenance collects the just-finished cycle's records from
// the marker into the per-object map: every cycle, stop-the-world or
// concurrent, records on w.Marker. Minor kinds merge, the rest rebuild.
// Returns the record count for CollectionStats. Callers hold w.mu.
func (w *World) harvestProvenance(kind cycleKind) uint64 {
	if !w.prov.enabled {
		return 0
	}
	recs, recording := w.stopRecording()
	if !recording {
		// Enabled after this cycle's mark phase started: nothing recorded.
		return 0
	}
	minor := kind.minor()
	if !minor || w.prov.records == nil {
		w.prov.records = make(map[mem.Addr]mark.ParentRecord, len(recs))
	}
	for _, r := range recs {
		w.prov.records[r.Obj] = r
	}
	if minor {
		// A minor cycle's sweep may have freed young objects recorded by
		// an earlier cycle; sticky mark bits identify the survivors.
		for obj := range w.prov.records {
			if !w.Heap.Marked(obj) {
				delete(w.prov.records, obj)
			}
		}
	}
	w.prov.valid = true
	w.prov.cycle = w.collections
	w.tracer.Emit(trace.EvProvenance, int64(len(recs)), int64(len(w.prov.records)), int64(kind))
	return uint64(len(recs))
}

// stopRecording ends the marker's recording, if it is running, and
// returns what it captured and whether it was. MarkOnly discards the
// result: a measurement clears the very marks the records describe.
// Callers hold w.mu.
func (w *World) stopRecording() (recs []mark.ParentRecord, recording bool) {
	if !w.Marker.Recording() {
		return nil, false
	}
	return w.Marker.StopRecording(), true
}

// WhyLive returns the chain of first-marking records from the object
// containing addr back to the root slot that ultimately retained it:
// the first element explains the object itself, the last names a
// register, stack word, or root-segment word. Requires a harvested
// provenance map (EnableProvenance, then collect).
func (w *World) WhyLive(addr mem.Addr) ([]mark.ParentRecord, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.whyLiveLocked(addr)
}

// whyLiveLocked is WhyLive's body for callers already holding w.mu
// (the retention watcher attaches a path to each alert from inside the
// collection barrier).
func (w *World) whyLiveLocked(addr mem.Addr) ([]mark.ParentRecord, error) {
	if !w.prov.valid {
		return nil, fmt.Errorf("core: WhyLive(%#x): no provenance map; EnableProvenance and collect first", addr)
	}
	base, ok := w.Heap.FindObject(addr, true)
	if !ok {
		return nil, fmt.Errorf("core: WhyLive(%#x): not a heap object", addr)
	}
	var path []mark.ParentRecord
	visited := map[mem.Addr]bool{base: true}
	for cur := base; ; {
		rec, ok := w.prov.records[cur]
		if !ok {
			return path, fmt.Errorf("core: WhyLive(%#x): no record for %#x (allocated after cycle %d?)",
				addr, cur, w.prov.cycle)
		}
		path = append(path, rec)
		if rec.Kind != mark.RootNone {
			return path, nil // reached a root slot
		}
		if rec.Parent == 0 {
			// Unattributed scan (plain MarkWords); the chain ends here.
			return path, nil
		}
		if visited[rec.Parent] {
			return path, fmt.Errorf("core: WhyLive(%#x): provenance cycle at %#x", addr, rec.Parent)
		}
		visited[rec.Parent] = true
		cur = rec.Parent
	}
}

// RootSlotID names one root slot: a register, stack word, or root
// segment word.
type RootSlotID struct {
	Kind  mark.RootKind
	Src   int32    // RootOrigin.Src: -1 world source, >= 0 mutator/segment index
	Index int32    // word index within the area / register number
	Addr  mem.Addr // the slot's simulated address; 0 for registers
}

func (s RootSlotID) String() string {
	who := "world"
	if s.Src >= 0 {
		who = fmt.Sprintf("%d", s.Src)
	}
	if s.Addr != 0 {
		return fmt.Sprintf("%s[%s+%d] @%#x", s.Kind, who, s.Index, s.Addr)
	}
	return fmt.Sprintf("%s[%s+%d]", s.Kind, who, s.Index)
}

// RootRetention is one root slot's sole-retention attribution: the
// objects and bytes that become unreachable when only that slot is
// censored (zeroed in a copy of the roots).
type RootRetention struct {
	Slot    RootSlotID
	Value   mem.Word     // the candidate the slot held
	Ref     mark.RefKind // exact / interior / unaligned
	Objects uint64
	Bytes   uint64
}

// SizeClassRetention breaks retention down by object size.
type SizeClassRetention struct {
	Words           int
	LiveObjects     uint64
	LiveBytes       uint64
	SpuriousObjects uint64
	SpuriousBytes   uint64
}

// LabelRetention breaks retention down by a caller-supplied structure
// label (RetentionOptions.Label).
type LabelRetention struct {
	Label           string
	LiveObjects     uint64
	LiveBytes       uint64
	SpuriousObjects uint64
	SpuriousBytes   uint64
}

// RetentionOptions parameterises RetentionReport.
type RetentionOptions struct {
	// FalseRefs are root word addresses the caller declares false
	// (misidentified candidates): the genuine pass re-marks with these
	// words censored, and everything only they retain is attributed as
	// spurious. Registers have no address; declare false registers by
	// zeroing them before the report instead.
	FalseRefs []mem.Addr
	// TopRoots caps the sole-retention ranking (default 8; negative
	// disables the per-slot analysis entirely).
	TopRoots int
	// Label, when non-nil, classifies each live object for the ByLabel
	// breakdown (e.g. by workload structure). It is called after the
	// report's marking passes finish, with the world lock released and
	// the mutators resumed, so it may call back into the World (Load,
	// WhyLive, ...) freely. Earlier versions invoked it under the lock —
	// a Label that touched the World deadlocked; a regression test pins
	// the fix (TestRetentionLabelMayCallWorld).
	Label func(base mem.Addr) string
}

// RetentionReport is the spurious-retention attribution.
type RetentionReport struct {
	// LiveObjects/LiveBytes: everything the current roots retain.
	LiveObjects uint64
	LiveBytes   uint64
	// Genuine*: retained with the declared FalseRefs censored.
	// Spurious* = live − genuine: objects whose every root path passes
	// through a censored word.
	GenuineObjects  uint64
	GenuineBytes    uint64
	SpuriousObjects uint64
	SpuriousBytes   uint64
	// CensoredRoots is how many FalseRefs resolved to a root word.
	CensoredRoots int
	// RootSlots is how many distinct first-marking root slots the
	// sole-retention analysis examined.
	RootSlots int
	BySize    []SizeClassRetention
	ByLabel   []LabelRetention
	// SoleRetainers ranks root slots by what each alone retains — the
	// no-oracle diagnostic: a planted false reference surfaces here
	// without the caller declaring it.
	SoleRetainers []RootRetention
}

// rootArea is one copied root area of a rootImage.
type rootArea struct {
	org    mark.RootOrigin
	words  []mem.Word
	sparse bool // register file: nonzero-words-only scan
}

// rootImage is a private copy of every root the collector would scan,
// in markRoots order. The report's passes mark from the copies, so
// censoring a word never touches the real machine state.
type rootImage struct {
	areas []rootArea
}

// buildRootImageLocked snapshots the roots. Callers hold w.mu with
// every mutator stopped.
func (w *World) buildRootImageLocked() *rootImage {
	img := &rootImage{}
	copyWords := func(ws []mem.Word) []mem.Word {
		out := make([]mem.Word, len(ws))
		copy(out, ws)
		return out
	}
	w.eachRootArea(func(org mark.RootOrigin, words []mem.Word, sparse bool) {
		img.areas = append(img.areas, rootArea{org: org, words: copyWords(words), sparse: sparse})
	})
	return img
}

// area returns the image area matching (kind, src), nil if absent.
func (img *rootImage) area(kind mark.RootKind, src int32) *rootArea {
	for i := range img.areas {
		a := &img.areas[i]
		if a.org.Kind == kind && a.org.Src == src {
			return a
		}
	}
	return nil
}

// censorAddr zeroes the image word at root address a, reporting
// whether a named one (registers are not addressable).
func (img *rootImage) censorAddr(a mem.Addr) bool {
	for i := range img.areas {
		ar := &img.areas[i]
		if ar.org.Base == 0 {
			continue
		}
		limit := ar.org.Base + mem.Addr(len(ar.words)*mem.WordBytes)
		if a >= ar.org.Base && a < limit {
			ar.words[(a-ar.org.Base)/mem.WordBytes] = 0
			return true
		}
	}
	return false
}

// mark runs one full marking pass from the image through m.
func (img *rootImage) mark(m *mark.Marker) {
	for _, a := range img.areas {
		if a.sparse {
			m.MarkSparseRoots(a.org, a.words)
		} else {
			m.MarkRootArea(a.org, a.words)
		}
	}
	m.Drain()
}

// GetRetentionReport measures genuine versus spuriously-retained
// bytes. It completes any in-flight concurrent cycle, stops the world,
// lands deferred sweeps, snapshots every root area, and re-marks the
// heap from censored copies of that snapshot:
//
//	live    = marked from the snapshot as-is
//	genuine = marked with the declared FalseRefs zeroed
//	spurious = live \ genuine
//
// plus a per-slot sole-retention ranking (each first-marking root slot
// censored alone) that surfaces heavy false retainers without any
// declaration. One edge case is accepted rather than fought: under
// AnyByteOffset, zeroing a word can *create* straddle candidates, so
// the genuine set is not always a subset of the live set; spurious is
// computed as the set difference of the passes, never by subtraction.
//
// Like MarkOnly, the report destroys current mark bits (generational
// worlds lose their old generation; the next full cycle rebuilds it).
// Cost: one full mark pass per distinct first-marking root slot, plus
// two for the live/genuine passes.
func (w *World) GetRetentionReport(opts RetentionOptions) RetentionReport {
	rep, live, spur := w.retentionPasses(opts)
	if opts.Label != nil {
		// Labeling runs outside the world lock with the mutators resumed:
		// the callback may call back into the World (see RetentionOptions).
		byLabel := map[string]*LabelRetention{}
		for _, o := range live {
			bytes := uint64(o.words * mem.WordBytes)
			lbl := opts.Label(o.base)
			lc := byLabel[lbl]
			if lc == nil {
				lc = &LabelRetention{Label: lbl}
				byLabel[lbl] = lc
			}
			lc.LiveObjects++
			lc.LiveBytes += bytes
			if spur[o.base] {
				lc.SpuriousObjects++
				lc.SpuriousBytes += bytes
			}
		}
		for _, lc := range byLabel {
			rep.ByLabel = append(rep.ByLabel, *lc)
		}
		sort.Slice(rep.ByLabel, func(i, j int) bool { return rep.ByLabel[i].Label < rep.ByLabel[j].Label })
	}
	return rep
}

// retainedObj is one live object the report's passes saw, for the
// breakdowns computed after the lock is released.
type retainedObj struct {
	base  mem.Addr
	words int
}

// retentionPasses runs the report's marking passes under the world
// lock and returns the report (without ByLabel), the live objects, and
// the spurious subset.
func (w *World) retentionPasses(opts RetentionOptions) (RetentionReport, []retainedObj, map[mem.Addr]bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.landCycleLocked()
	w.parkMutatorsLocked()
	defer w.resumeMutatorsLocked()
	// The caches hold carved slots not yet handed out; return them so
	// the report's passes see only real objects.
	w.flushMutatorsLocked()
	w.Heap.FinishSweep()

	img := w.buildRootImageLocked()
	// A private marker: the report's candidate tests must not pollute
	// the world's blacklist (censoring words changes the candidate set).
	m := mark.New(w.Heap, mark.Config{Policy: w.cfg.Pointer, Alignment: w.cfg.Alignment})

	// Pass L: live set, with recording on to learn the root slots.
	w.Heap.ClearMarks()
	m.StartRecording()
	img.mark(m)
	recs := m.StopRecording()
	liveObjects, liveBytes := w.Heap.CountMarked()
	liveSet := make(map[mem.Addr]int, liveObjects)
	w.Heap.ForEachObject(func(base mem.Addr) {
		if w.Heap.Marked(base) {
			words, _ := w.Heap.ObjectSpan(base)
			liveSet[base] = words
		}
	})

	rep := RetentionReport{LiveObjects: liveObjects, LiveBytes: liveBytes}

	// Sole-retention ranking, on the pristine image: censor each
	// distinct first-marking root slot alone and re-mark.
	topRoots := opts.TopRoots
	if topRoots == 0 {
		topRoots = 8
	}
	if topRoots > 0 {
		type slotKey struct {
			kind mark.RootKind
			src  int32
			idx  int32
		}
		reps := map[slotKey]RootRetention{}
		var order []slotKey
		for _, r := range recs {
			if r.Kind == mark.RootNone {
				continue
			}
			k := slotKey{r.Kind, r.Src, r.Index}
			if _, ok := reps[k]; !ok {
				reps[k] = RootRetention{
					Slot:  RootSlotID{Kind: r.Kind, Src: r.Src, Index: r.Index, Addr: r.Parent},
					Value: r.Value,
					Ref:   r.Ref,
				}
				order = append(order, k)
			}
		}
		rep.RootSlots = len(order)
		for _, k := range order {
			ar := img.area(k.kind, k.src)
			if ar == nil || int(k.idx) >= len(ar.words) {
				continue
			}
			saved := ar.words[k.idx]
			ar.words[k.idx] = 0
			w.Heap.ClearMarks()
			img.mark(m)
			mo, mb := w.Heap.CountMarked()
			ar.words[k.idx] = saved
			rr := reps[k]
			if mo < liveObjects {
				rr.Objects = liveObjects - mo
			}
			if mb < liveBytes {
				rr.Bytes = liveBytes - mb
			}
			if rr.Objects > 0 || rr.Bytes > 0 {
				rep.SoleRetainers = append(rep.SoleRetainers, rr)
			}
		}
		sort.SliceStable(rep.SoleRetainers, func(i, j int) bool {
			a, b := rep.SoleRetainers[i], rep.SoleRetainers[j]
			if a.Bytes != b.Bytes {
				return a.Bytes > b.Bytes
			}
			return a.Objects > b.Objects
		})
		if len(rep.SoleRetainers) > topRoots {
			rep.SoleRetainers = rep.SoleRetainers[:topRoots]
		}
	}

	// Pass G: genuine set, with the declared false words censored.
	spurSet := map[mem.Addr]int{}
	for _, fa := range opts.FalseRefs {
		if img.censorAddr(fa) {
			rep.CensoredRoots++
		}
	}
	if rep.CensoredRoots > 0 {
		w.Heap.ClearMarks()
		img.mark(m)
		for base, words := range liveSet {
			if !w.Heap.Marked(base) {
				spurSet[base] = words
			}
		}
	}
	for _, words := range spurSet {
		rep.SpuriousObjects++
		rep.SpuriousBytes += uint64(words * mem.WordBytes)
	}
	rep.GenuineObjects = rep.LiveObjects - rep.SpuriousObjects
	rep.GenuineBytes = rep.LiveBytes - rep.SpuriousBytes

	// Size breakdown over the live set; the label breakdown waits for
	// the lock to drop (the callback may re-enter the World).
	bySize := map[int]*SizeClassRetention{}
	live := make([]retainedObj, 0, len(liveSet))
	spur := make(map[mem.Addr]bool, len(spurSet))
	for base, words := range liveSet {
		bytes := uint64(words * mem.WordBytes)
		_, spurious := spurSet[base]
		live = append(live, retainedObj{base: base, words: words})
		if spurious {
			spur[base] = true
		}
		sc := bySize[words]
		if sc == nil {
			sc = &SizeClassRetention{Words: words}
			bySize[words] = sc
		}
		sc.LiveObjects++
		sc.LiveBytes += bytes
		if spurious {
			sc.SpuriousObjects++
			sc.SpuriousBytes += bytes
		}
	}
	for _, sc := range bySize {
		rep.BySize = append(rep.BySize, *sc)
	}
	sort.Slice(rep.BySize, func(i, j int) bool { return rep.BySize[i].Words < rep.BySize[j].Words })

	w.Heap.ClearMarks()
	w.tracer.Emit(trace.EvRetention,
		int64(rep.LiveObjects), int64(rep.SpuriousObjects), int64(rep.RootSlots))
	return rep, live, spur
}
