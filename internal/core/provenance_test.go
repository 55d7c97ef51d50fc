package core

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mark"
	"repro/internal/mem"
)

// provNames are the names three modes' rows had before the mode table,
// which the provenance differentials keep.
var provNames = map[string]string{"gen": "generational", "conc": "conc-stepped", "conc-lazy": "par-lazy"}

// provCollect runs one collection appropriate to the configuration:
// concurrent worlds run a full step-driven cycle, generational worlds
// alternate minors and fulls, everything else collects normally.
func provCollect(t *testing.T, w *World, cfg Config, round int) CollectionStats {
	t.Helper()
	switch {
	case cfg.ConcurrentMark:
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		for !w.ConcurrentStep(16) {
		}
		return w.LastCollection()
	case cfg.Generational && round%2 == 1:
		return w.CollectMinor()
	default:
		return w.Collect()
	}
}

// TestProvenanceOffDifferential is the zero-cost-when-off guarantee:
// the same workload with provenance recording on and off yields
// identical allocation addresses and identical CollectionStats up to
// timing and the provenance fields themselves, in every collector
// mode.
func TestProvenanceOffDifferential(t *testing.T) {
	for _, mode := range named(Modes, provNames) {
		name, cfg := mode.Name, mode.Apply(Config{GCDivisor: -1, MarkQuantum: 32})
		t.Run(name, func(t *testing.T) {
			run := func(record bool) ([]mem.Addr, []CollectionStats) {
				w := newWorld(t, cfg)
				data := addData(t, w, "data", 0x2000, 4096)
				w.EnableProvenance(record)
				var addrs []mem.Addr
				var stats []CollectionStats
				for round := 0; round < 4; round++ {
					addrs = append(addrs, churn(t, w, data, 0x2000, 48)...)
					stats = append(stats, provCollect(t, w, cfg, round))
				}
				return addrs, stats
			}
			offAddrs, offStats := run(false)
			onAddrs, onStats := run(true)
			if len(offAddrs) != len(onAddrs) {
				t.Fatalf("allocation counts diverge: %d off, %d on", len(offAddrs), len(onAddrs))
			}
			for i := range offAddrs {
				if offAddrs[i] != onAddrs[i] {
					t.Fatalf("allocation %d diverges: %#x off, %#x on",
						i, uint32(offAddrs[i]), uint32(onAddrs[i]))
				}
			}
			for i := range offStats {
				a, b := offStats[i], onStats[i]
				if !b.Provenance || b.ProvenanceRecords == 0 {
					t.Fatalf("cycle %d recorded no provenance: %+v", i, b)
				}
				if a.Provenance || a.ProvenanceRecords != 0 {
					t.Fatalf("cycle %d leaked provenance with recording off: %+v", i, a)
				}
				normalizeTimes(&a, &b)
				b.Provenance, b.ProvenanceRecords = false, 0
				if a != b {
					t.Fatalf("cycle %d stats diverge:\noff %+v\non  %+v", i, a, b)
				}
			}
		})
	}
}

// TestProvenanceOffZeroAlloc extends the observability overhead budget:
// after recording has been used and turned off again, steady-state
// collections must be allocation-free, exactly like a world that never
// enabled it.
func TestProvenanceOffZeroAlloc(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	churn(t, w, data, 0x2000, 64)
	w.EnableProvenance(true)
	w.Collect()
	w.EnableProvenance(false)
	w.Collect()
	avg := testing.AllocsPerRun(10, func() { w.Collect() })
	if avg != 0 {
		t.Fatalf("provenance-off Collect allocates %v times per cycle, want 0", avg)
	}
}

// TestProvenanceParallelUnique checks the first-mark rule across a
// concurrent cycle's marking: the snapshot's root scan, the stepped
// chunks and the finale all record on the one marker, and
// together hold exactly one record per marked object — no duplicates,
// no missing first marks.
func TestProvenanceParallelUnique(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 8192)
	w.EnableProvenance(true)
	var totalRecs uint64
	for round := 0; round < 3; round++ {
		churn(t, w, data, 0x2000, 256)
		provChain(t, w, data, 0x3000, 300) // deep enough that the chunks mark most of it
		st := cycleByStep(t, w)
		if st.ProvenanceRecords != st.Mark.ObjectsMarked {
			t.Fatalf("round %d: %d records for %d marked objects",
				round, st.ProvenanceRecords, st.Mark.ObjectsMarked)
		}
		if got := w.ProvenanceRecordCount(); uint64(got) != st.Mark.ObjectsMarked {
			t.Fatalf("round %d: map holds %d records for %d marked objects (duplicate wins?)",
				round, got, st.Mark.ObjectsMarked)
		}
		totalRecs += st.ProvenanceRecords
	}
	// The registry counters are the running sums of the same accounting.
	if v, ok := w.Metrics().Value("provenance_cycles"); !ok || v != 3 {
		t.Fatalf("provenance_cycles = %d (ok=%v), want 3", v, ok)
	}
	if v, ok := w.Metrics().Value("provenance_records"); !ok || uint64(v) != totalRecs {
		t.Fatalf("provenance_records = %d (ok=%v), want %d", v, ok, totalRecs)
	}
}

// provChain allocates a linked chain of n two-word cells (next pointer
// in the first word) and roots its head at slot.
func provChain(t *testing.T, w *World, data *mem.Segment, slot mem.Addr, n int) []mem.Addr {
	t.Helper()
	addrs := make([]mem.Addr, n)
	var next mem.Addr
	for i := n - 1; i >= 0; i-- {
		a, err := w.Allocate(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Store(a, mem.Word(next)); err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
		next = a
	}
	if err := data.Store(slot, mem.Word(next)); err != nil {
		t.Fatal(err)
	}
	return addrs
}

// TestWhyLiveSoundness sweeps every live object after a recorded
// collection: each must have a WhyLive path whose hops are consistent
// (each record's parent is the next record's object) and whose terminal
// record names a root slot.
func TestWhyLiveSoundness(t *testing.T) {
	for _, mode := range named(Modes, provNames) {
		name, cfg := mode.Name, mode.Apply(Config{GCDivisor: -1, MarkQuantum: 32})
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, cfg)
			data := addData(t, w, "data", 0x2000, 4096)
			provChain(t, w, data, 0x2000, 40)
			provChain(t, w, data, 0x2004, 17)
			churn(t, w, data, 0x2100, 32)
			w.EnableProvenance(true)
			provCollect(t, w, cfg, 0)
			w.FinishSweep()
			if ok, _ := w.ProvenanceValid(); !ok {
				t.Fatal("no valid provenance map after a recorded collection")
			}
			checked := 0
			w.Heap.ForEachObject(func(base mem.Addr) {
				checked++
				path, err := w.WhyLive(base)
				if err != nil {
					t.Fatalf("WhyLive(%#x): %v", uint32(base), err)
				}
				if len(path) == 0 {
					t.Fatalf("WhyLive(%#x): empty path", uint32(base))
				}
				if path[0].Obj != base {
					t.Fatalf("WhyLive(%#x): first record explains %#x", uint32(base), uint32(path[0].Obj))
				}
				for i := 0; i < len(path)-1; i++ {
					if path[i].Kind != mark.RootNone {
						t.Fatalf("WhyLive(%#x): interior record %d is a root: %+v", uint32(base), i, path[i])
					}
					if path[i].Parent != path[i+1].Obj {
						t.Fatalf("WhyLive(%#x): hop %d parent %#x but next record explains %#x",
							uint32(base), i, uint32(path[i].Parent), uint32(path[i+1].Obj))
					}
				}
				if last := path[len(path)-1]; last.Kind == mark.RootNone {
					t.Fatalf("WhyLive(%#x): path ends in the heap: %+v", uint32(base), last)
				}
			})
			if checked == 0 {
				t.Fatal("no live objects to check")
			}
		})
	}
}

// TestRetentionReportFalseRef plants a false root-segment reference
// retaining a chain and checks the report's attribution: declaring the
// slot censors exactly it, the chain becomes spurious, the rest stays
// genuine, and the sole-retention ranking names the slot unprompted.
func TestRetentionReportFalseRef(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	const chainLen, genuineLen = 60, 9
	provChain(t, w, data, 0x2000, chainLen)   // retained only by the "false" slot
	provChain(t, w, data, 0x2004, genuineLen) // genuinely live
	w.Collect()

	rep := w.GetRetentionReport(RetentionOptions{
		FalseRefs: []mem.Addr{0x2000},
		Label:     func(base mem.Addr) string { return "cell" },
	})
	if rep.CensoredRoots != 1 {
		t.Fatalf("censored %d roots, want 1", rep.CensoredRoots)
	}
	if rep.LiveObjects != chainLen+genuineLen {
		t.Fatalf("live = %d, want %d", rep.LiveObjects, chainLen+genuineLen)
	}
	if rep.SpuriousObjects != chainLen {
		t.Fatalf("spurious = %d, want %d", rep.SpuriousObjects, chainLen)
	}
	if rep.GenuineObjects != genuineLen {
		t.Fatalf("genuine = %d, want %d", rep.GenuineObjects, genuineLen)
	}
	if rep.SpuriousBytes != uint64(chainLen*2*mem.WordBytes) {
		t.Fatalf("spurious bytes = %d, want %d", rep.SpuriousBytes, chainLen*2*mem.WordBytes)
	}
	if len(rep.SoleRetainers) == 0 {
		t.Fatal("sole-retention ranking is empty")
	}
	top := rep.SoleRetainers[0]
	if top.Slot.Kind != mark.RootSegment || top.Slot.Addr != 0x2000 {
		t.Fatalf("top sole retainer = %s, want the planted segment slot @0x2000", top.Slot)
	}
	if top.Objects != chainLen {
		t.Fatalf("top sole retainer holds %d objects, want %d", top.Objects, chainLen)
	}
	if len(rep.BySize) != 1 || rep.BySize[0].Words != 2 ||
		rep.BySize[0].SpuriousObjects != chainLen {
		t.Fatalf("by-size breakdown = %+v", rep.BySize)
	}
	if len(rep.ByLabel) != 1 || rep.ByLabel[0].Label != "cell" ||
		rep.ByLabel[0].LiveObjects != chainLen+genuineLen {
		t.Fatalf("by-label breakdown = %+v", rep.ByLabel)
	}
}

// TestRetentionReportStackRef is the acceptance scenario at the core
// level: a stale machine-stack word (not a root segment) retains the
// chain, and both the declared censoring and the no-oracle ranking
// attribute it.
func TestRetentionReportStackRef(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	mach := withMachine(t, w, machine.Config{Clear: machine.ClearNone})
	frame, err := mach.PushFrame(4)
	if err != nil {
		t.Fatal(err)
	}
	const chainLen = 30
	chain := provChain(t, w, data, 0x2000, chainLen)
	// Move the chain's only named root onto the stack.
	if err := frame.Store(0, mem.Word(chain[0])); err != nil {
		t.Fatal(err)
	}
	if err := data.Store(0x2000, 0); err != nil {
		t.Fatal(err)
	}
	w.EnableProvenance(true)
	w.Collect()

	path, err := w.WhyLive(chain[len(chain)-1])
	if err != nil {
		t.Fatal(err)
	}
	if last := path[len(path)-1]; last.Kind != mark.RootStack || last.Parent != frame.Addr(0) {
		t.Fatalf("chain tail's root = %+v, want the stack slot @%#x", last, uint32(frame.Addr(0)))
	}

	rep := w.GetRetentionReport(RetentionOptions{FalseRefs: []mem.Addr{frame.Addr(0)}})
	if rep.CensoredRoots != 1 {
		t.Fatalf("censored %d roots, want 1", rep.CensoredRoots)
	}
	if rep.SpuriousObjects != chainLen {
		t.Fatalf("spurious = %d of %d live, want %d",
			rep.SpuriousObjects, rep.LiveObjects, chainLen)
	}
	if len(rep.SoleRetainers) == 0 || rep.SoleRetainers[0].Slot.Addr != frame.Addr(0) {
		t.Fatalf("sole retainers = %+v, want the stack slot first", rep.SoleRetainers)
	}
}

// TestProvenanceMinorMergeAndPrune checks the generational harvest
// rule: minors merge newly promoted objects into the map without
// disturbing older records, and prune records whose objects a sweep
// freed. Sticky mark bits mean a minor alone never frees a recorded
// object; the prune path exists for mark-state perturbations like
// MarkOnly between minors, so that is what the test does.
func TestProvenanceMinorMergeAndPrune(t *testing.T) {
	w := newWorld(t, Config{Generational: true, MinorDivisor: -1, GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	oldChain := provChain(t, w, data, 0x2000, 10)
	w.EnableProvenance(true)
	w.Collect()
	if got := w.ProvenanceRecordCount(); got != 10 {
		t.Fatalf("records after full = %d, want 10", got)
	}

	young := provChain(t, w, data, 0x2004, 5)
	st := w.CollectMinor()
	if st.ProvenanceRecords != 5 {
		t.Fatalf("minor recorded %d, want only the 5 young objects", st.ProvenanceRecords)
	}
	if got := w.ProvenanceRecordCount(); got != 15 {
		t.Fatalf("records after minor = %d, want 15 (merged)", got)
	}
	for _, a := range append(append([]mem.Addr{}, oldChain...), young...) {
		if _, ok := w.ProvenanceFor(a); !ok {
			t.Fatalf("no record for %#x after the minor merge", uint32(a))
		}
	}

	// Drop the young chain's root and clear every mark bit with a
	// mark-only measurement (which must itself discard, not harvest, its
	// recording): the next minor sees the whole heap as young, frees the
	// unreachable chain, and must prune its records while re-recording
	// the survivors it re-marks.
	if err := data.Store(0x2004, 0); err != nil {
		t.Fatal(err)
	}
	w.MarkOnly()
	if got := w.ProvenanceRecordCount(); got != 15 {
		t.Fatalf("records after MarkOnly = %d, want 15 (measurement must not harvest)", got)
	}
	st = w.CollectMinor()
	if st.ProvenanceRecords != 10 {
		t.Fatalf("post-clear minor recorded %d, want the 10 re-marked survivors", st.ProvenanceRecords)
	}
	if got := w.ProvenanceRecordCount(); got != 10 {
		t.Fatalf("records after pruning minor = %d, want 10", got)
	}
	if _, ok := w.ProvenanceFor(young[0]); ok {
		t.Fatalf("freed object %#x still has a record", uint32(young[0]))
	}
	// A full cycle rebuilds from scratch rather than merging.
	w.Collect()
	if got := w.ProvenanceRecordCount(); got != 10 {
		t.Fatalf("records after full rebuild = %d, want 10", got)
	}
}

// TestProvenanceMutatorSafepoints checks recording composes with
// concurrent mutator handles: a collection from a handle stops the
// world, scans every handle's roots, and the harvested map explains
// every surviving rooted object.
func TestProvenanceMutatorSafepoints(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1, LazySweep: true})
	data := addData(t, w, "data", 0x2000, 4096)
	w.EnableProvenance(true)
	const nMut = 4
	muts := make([]*Mutator, nMut)
	roots := make([]mem.Addr, nMut)
	for g := range muts {
		muts[g] = w.NewMutator()
		slot := mem.Addr(0x2000 + 4*g)
		a, err := muts[g].AllocateRooted(data, slot, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		roots[g] = a
	}
	muts[0].Collect()
	if ok, _ := w.ProvenanceValid(); !ok {
		t.Fatal("no provenance map after a mutator-driven collection")
	}
	for g, a := range roots {
		path, err := w.WhyLive(a)
		if err != nil {
			t.Fatalf("mutator %d root: %v", g, err)
		}
		last := path[len(path)-1]
		if last.Kind != mark.RootSegment || last.Parent != mem.Addr(0x2000+4*g) {
			t.Fatalf("mutator %d root attributed to %+v, want segment slot %#x",
				g, last, 0x2000+4*g)
		}
	}
}

// TestHeapSnapshotConsistency checks the exported snapshot against the
// world it describes: one entry per allocated object, edges that point
// at real objects, and a provenance section sorted by address with one
// record per live object.
func TestHeapSnapshotConsistency(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	provChain(t, w, data, 0x2000, 20)
	churn(t, w, data, 0x2100, 16)
	w.EnableProvenance(true)
	w.Collect()

	snap := w.BuildHeapSnapshot(func(mem.Addr) string { return "obj" })
	objs := make(map[mem.Addr]bool, len(snap.Objects))
	count := 0
	w.Heap.ForEachObject(func(mem.Addr) { count++ })
	if len(snap.Objects) != count {
		t.Fatalf("snapshot holds %d objects, heap has %d", len(snap.Objects), count)
	}
	for _, o := range snap.Objects {
		if o.Words <= 0 || o.Label != "obj" {
			t.Fatalf("bad snapshot object %+v", o)
		}
		objs[o.Addr] = true
	}
	if len(snap.Edges) == 0 {
		t.Fatal("snapshot has no edges despite a linked chain")
	}
	for _, e := range snap.Edges {
		if !objs[e.Src] || !objs[e.Dst] {
			t.Fatalf("edge %+v references an unknown object", e)
		}
	}
	if !snap.ProvenanceValid || len(snap.Provenance) != len(snap.Objects) {
		t.Fatalf("snapshot provenance: valid=%v records=%d objects=%d",
			snap.ProvenanceValid, len(snap.Provenance), len(snap.Objects))
	}
	for i := 1; i < len(snap.Provenance); i++ {
		if snap.Provenance[i-1].Obj >= snap.Provenance[i].Obj {
			t.Fatal("snapshot provenance is not sorted by object address")
		}
	}
}

// TestRetentionLabelMayCallWorld is the deadlock regression for the
// RetentionOptions.Label contract: the callback runs with the world
// lock released, so a Label that calls back into the World (here
// World.Load, which takes w.mu) must complete rather than deadlock.
// Before the fix the labeling loop ran inside GetRetentionReport's
// critical section and this test hung.
func TestRetentionLabelMayCallWorld(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	const n = 24
	provChain(t, w, data, 0x2000, n)
	w.Collect()

	done := make(chan RetentionReport, 1)
	go func() {
		done <- w.GetRetentionReport(RetentionOptions{
			TopRoots: -1,
			Label: func(base mem.Addr) string {
				// Re-enter the world: Load locks w.mu.
				v, err := w.Load(base)
				if err != nil {
					return "err"
				}
				if v == 0 {
					return "tail"
				}
				return "cons"
			},
		})
	}()
	var rep RetentionReport
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("GetRetentionReport deadlocked: Label called back into the World")
	}
	if rep.LiveObjects != n {
		t.Fatalf("live = %d, want %d", rep.LiveObjects, n)
	}
	var cons, tail uint64
	for _, lc := range rep.ByLabel {
		switch lc.Label {
		case "cons":
			cons = lc.LiveObjects
		case "tail":
			tail = lc.LiveObjects
		default:
			t.Fatalf("unexpected label %q", lc.Label)
		}
	}
	if cons != n-1 || tail != 1 {
		t.Fatalf("by-label = %d cons + %d tail, want %d + 1", cons, tail, n-1)
	}
}

// TestProvenanceBarrierParent pins who a concurrent cycle says retained
// an object the write barrier marked: the word the mutator stored it
// into — a field of a heap object, or a root slot — which is where the
// reference is, not whichever object a marker would have found it
// through had the store not come first. Nothing else can mark the
// targets before the stores do (no chunk runs in between), so the
// records are exact.
func TestProvenanceBarrierParent(t *testing.T) {
	for _, shape := range concShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			lw := newLostWorld(t, shape.cfg, Config{})
			lw.w.EnableProvenance(true)
			c1, holder, x, y := lw.alloc(2), lw.alloc(4), lw.alloc(2), lw.alloc(2)
			lw.root(0, c1)
			lw.root(1, holder)
			lw.store(c1, mem.Word(x))
			lw.store(c1+4, mem.Word(y))
			lw.start()
			lw.store(holder+8, mem.Word(x))      // into word 2 of a heap object
			lw.store(lostRoots+5*4, mem.Word(y)) // into root slot 5
			st := lw.finish()
			if !st.Provenance || st.ProvenanceRecords != st.Mark.ObjectsMarked {
				t.Fatalf("cycle recorded %d parents for %d marked objects (provenance %v)",
					st.ProvenanceRecords, st.Mark.ObjectsMarked, st.Provenance)
			}
			rx, okx := lw.w.ProvenanceFor(x)
			ry, oky := lw.w.ProvenanceFor(y)
			if !okx || !oky {
				t.Fatalf("no provenance record for x (%v) or y (%v)", okx, oky)
			}
			wantX := mark.ParentRecord{Obj: x, Parent: holder, Value: mem.Word(x), Kind: mark.RootNone, Ref: mark.RefExact, Index: 2}
			wantY := mark.ParentRecord{Obj: y, Parent: lostRoots + 5*4, Value: mem.Word(y), Kind: mark.RootSegment, Ref: mark.RefExact, Index: 5}
			if rx != wantX {
				t.Fatalf("x's parent record %+v, want the stored-into field %+v", rx, wantX)
			}
			if ry != wantY {
				t.Fatalf("y's parent record %+v, want the stored-into root slot %+v", ry, wantY)
			}
			path, err := lw.w.WhyLive(x)
			if err != nil || len(path) == 0 || path[len(path)-1].Kind != mark.RootSegment {
				t.Fatalf("WhyLive(x) = %+v, %v; want a path ending at a root segment slot", path, err)
			}
		})
	}
}
