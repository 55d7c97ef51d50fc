package repro

import (
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	w, err := NewWorld(Config{Blacklisting: BlacklistDense})
	if err != nil {
		t.Fatal(err)
	}
	data, err := w.Space.MapNew("globals", KindData, 0x2000, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := w.Allocate(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.Store(0x2000, Word(obj)); err != nil {
		t.Fatal(err)
	}
	w.Collect()
	if !w.Heap.IsAllocated(obj) {
		t.Fatal("rooted object collected")
	}
	data.Store(0x2000, 0)
	w.Collect()
	if w.Heap.IsAllocated(obj) {
		t.Fatal("dropped object retained")
	}
}

func TestFigure1Experiment(t *testing.T) {
	res, tab, err := Figure1(Figure1Options{StaticWords: 8192, HeapFillBytes: 2 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	aligned, unaligned, defended := rows[0], rows[1], rows[2]
	// Word-aligned scanning of small integers misidentifies nothing.
	if aligned.Misidentified != 0 {
		t.Errorf("aligned scan misidentified %d", aligned.Misidentified)
	}
	// Any-byte-offset scanning forms h<<16 addresses: misidentification.
	if unaligned.Misidentified == 0 {
		t.Error("unaligned scan found no figure-1 misidentifications")
	}
	if unaligned.Candidates <= aligned.Candidates {
		t.Error("unaligned scan should consider more candidates")
	}
	// Declining block-boundary slots defends completely here: every
	// concatenated address has 16 trailing zero bits.
	if defended.Misidentified != 0 {
		t.Errorf("trailing-zeros defence failed: %d retained", defended.Misidentified)
	}
	if !strings.Contains(tab.String(), "Figure 1") {
		t.Error("table title missing")
	}
}

func TestStackClearingExperiment(t *testing.T) {
	res, tab, err := StackClearing(StackClearOptions{ListLen: 300, Iterations: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	none, cheap, eager, loop := rows[0], rows[1], rows[2], rows[3]
	if !(none.MaxLiveCells > cheap.MaxLiveCells) {
		t.Errorf("no-clearing (%d) should exceed cheap clearing (%d)",
			none.MaxLiveCells, cheap.MaxLiveCells)
	}
	if !(cheap.MaxLiveCells >= eager.MaxLiveCells) {
		t.Errorf("cheap (%d) should be >= eager (%d)", cheap.MaxLiveCells, eager.MaxLiveCells)
	}
	if !(none.MaxLiveCells > 2*loop.MaxLiveCells) {
		t.Errorf("no-clearing (%d) should far exceed the optimized loop (%d)",
			none.MaxLiveCells, loop.MaxLiveCells)
	}
	// The optimized loop never holds much more than original + current
	// + previous list.
	if loop.MaxLiveCells > 4*300 {
		t.Errorf("loop max live = %d", loop.MaxLiveCells)
	}
	_ = tab.String()
}

func TestGridsExperiment(t *testing.T) {
	res, _, err := Grids(GridsOptions{Rows: 30, Cols: 30, Trials: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	emb, sep := rows[0], rows[1]
	if emb.Kind != GridEmbedded || sep.Kind != GridSeparate {
		t.Fatal("row order wrong")
	}
	if emb.MeanFractionPct < 3*sep.MeanFractionPct {
		t.Errorf("embedded (%.1f%%) should dwarf separate (%.1f%%)",
			emb.MeanFractionPct, sep.MeanFractionPct)
	}
}

func TestTreesExperiment(t *testing.T) {
	// One step leaves the queue and stream rows trivial: this test reads
	// the trees.
	res, _, err := Structures(StructuresOptions{Depths: []int{8, 12}, Trials: 800, Steps: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows[:2] {
		if r.Structure != "tree" {
			t.Fatalf("row %+v is not a tree", r)
		}
		if r.MeanRetained < r.TheoryRetained*0.6 || r.MeanRetained > r.TheoryRetained*1.4 {
			t.Errorf("depth %d: measured %.1f vs theory %.1f", r.Depth, r.MeanRetained, r.TheoryRetained)
		}
	}
}

func TestQueuesAndStreamsExperiment(t *testing.T) {
	// One tiny tree comes first: this test reads the queues and streams.
	res, _, err := Structures(StructuresOptions{Depths: []int{1}, Trials: 1, Window: 50, Steps: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows[1:]
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Mitigated && r.FinalLiveObjects > 300 {
			t.Errorf("%s mitigated but retained %d", r.Structure, r.FinalLiveObjects)
		}
		if !r.Mitigated && r.FinalLiveObjects < 4000 {
			t.Errorf("%s unmitigated but retained only %d", r.Structure, r.FinalLiveObjects)
		}
	}
}

func TestLargeObjectsExperiment(t *testing.T) {
	res, _, err := LargeObjects(LargeObjectsOptions{
		HeapBytes: 4 << 20,
		SizesKB:   []int{40, 100, 400},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	for _, r := range rows {
		if r.CapacityBase < r.CapacityInterior {
			t.Errorf("%d KB: base-only (%d) should fit at least as many as interior (%d)",
				r.ObjectKB, r.CapacityBase, r.CapacityInterior)
		}
		if r.CapacityIdeal < r.CapacityBase {
			t.Errorf("%d KB: ideal (%d) below base (%d)", r.ObjectKB, r.CapacityIdeal, r.CapacityBase)
		}
	}
	// Interior-pointer capacity collapses with size much faster than
	// base-only capacity: compare utilisation at the largest size.
	last := rows[len(rows)-1]
	if last.CapacityInterior*2 > last.CapacityBase && last.CapacityBase > 0 {
		t.Errorf("interior capacity (%d) did not collapse vs base (%d) at %d KB",
			last.CapacityInterior, last.CapacityBase, last.ObjectKB)
	}
	// The ignore-off-page promise restores base-level capacity even
	// under the interior policy.
	for _, r := range rows {
		if r.CapacityOffPage != r.CapacityBase {
			t.Errorf("%d KB: ignore-off-page capacity (%d) != base capacity (%d)",
				r.ObjectKB, r.CapacityOffPage, r.CapacityBase)
		}
	}
}

func TestFragmentationExperiment(t *testing.T) {
	res, _, err := Fragmentation(FragmentationOptions{HeapBytes: 8 << 20, Rounds: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	ao, lifo := rows[0], rows[1]
	if ao.Policy != AddressOrdered || lifo.Policy != LIFO {
		t.Fatal("row order wrong")
	}
	if ao.LargestFreeSpan < lifo.LargestFreeSpan {
		t.Errorf("address-ordered largest span (%d) below LIFO (%d)",
			ao.LargestFreeSpan, lifo.LargestFreeSpan)
	}
	if ao.MaxAllocatableKB < lifo.MaxAllocatableKB {
		t.Errorf("address-ordered max allocatable (%d) below LIFO (%d)",
			ao.MaxAllocatableKB, lifo.MaxAllocatableKB)
	}
}

func TestDualRunExperiment(t *testing.T) {
	res, tab, err := DualRun(DualRunOptions{Lists: 40, NodesPerList: 800, FalseRoots: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	single, dual := res.Rows[0], res.Rows[1]
	if single.ListsRetained == 0 {
		t.Fatal("single run retained nothing; pollution ineffective")
	}
	if dual.ListsRetained != 0 {
		t.Errorf("dual-run certification left %d lists", dual.ListsRetained)
	}
	if dual.CandidatesRejected == 0 {
		t.Error("no candidates rejected")
	}
	if !strings.Contains(tab.String(), "Footnote 4") {
		t.Error("table title missing")
	}
}

func TestTable1Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full program-T runs")
	}
	// One cheap profile, one seed: exercises the full Table1 machinery.
	res, tab, err := Table1(Table1Options{
		Seeds:    1,
		Profiles: []Profile{SPARCDynamic(false)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.NoBlacklisting.Mean <= r.Blacklisting.Mean {
		t.Errorf("blacklisting did not reduce retention: %v vs %v",
			r.NoBlacklisting.Mean, r.Blacklisting.Mean)
	}
	if !strings.Contains(tab.String(), "SPARC(dynamic)") {
		t.Error("table content missing")
	}
}

func TestGenerationalCeilingExperiment(t *testing.T) {
	res, tab, err := GenerationalCeiling(GenerationalOptions{
		Iterations: 150, BatchCells: 100, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	none, cheap, eager := rows[0], rows[1], rows[2]
	if none.Clear != ClearNone || eager.Clear != ClearEager {
		t.Fatal("row order wrong")
	}
	// All configurations retain the same truly-live set.
	if none.TrueLive != cheap.TrueLive || cheap.TrueLive != eager.TrueLive {
		t.Fatalf("true-live differs: %d/%d/%d", none.TrueLive, cheap.TrueLive, eager.TrueLive)
	}
	// The ceiling: without clearing, minors tenure far more garbage.
	if none.GarbageTenured < 4*eager.GarbageTenured {
		t.Errorf("no-clearing (%d) should tenure far more than eager (%d)",
			none.GarbageTenured, eager.GarbageTenured)
	}
	if cheap.GarbageTenured > none.GarbageTenured {
		t.Errorf("cheap (%d) should not exceed none (%d)",
			cheap.GarbageTenured, none.GarbageTenured)
	}
	if !strings.Contains(tab.String(), "generational") {
		t.Error("table title missing")
	}
}

func TestHeapPlacementExperiment(t *testing.T) {
	res, _, err := HeapPlacement(HeapPlacementOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	low, float, ascii, high := rows[0], rows[1], rows[2], rows[3]
	// Each colliding placement retains something; severity ordering
	// integers > floats > ascii; the recommended placement is immune.
	if low.Misidentified == 0 || float.Misidentified == 0 {
		t.Error("colliding placements retained nothing")
	}
	if !(low.Misidentified > float.Misidentified && float.Misidentified > ascii.Misidentified) {
		t.Errorf("severity ordering wrong: %d / %d / %d",
			low.Misidentified, float.Misidentified, ascii.Misidentified)
	}
	if high.Misidentified != 0 {
		t.Errorf("recommended placement retained %d", high.Misidentified)
	}
}

func TestAtomicDataExperiment(t *testing.T) {
	res, _, err := AtomicData(AtomicDataOptions{
		Bitmaps: 4, BitmapBytes: 64 * 1024, DeadCells: 10000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	ordinary, atomic := rows[0], rows[1]
	if ordinary.DeadRetained < 5000 {
		t.Errorf("scanned bitmaps retained only %d dead cells", ordinary.DeadRetained)
	}
	if atomic.DeadRetained != 0 {
		t.Errorf("atomic bitmaps retained %d dead cells", atomic.DeadRetained)
	}
	if atomic.FieldsScanned != 0 {
		t.Errorf("atomic bitmaps were scanned: %d words", atomic.FieldsScanned)
	}
	if ordinary.FieldsScanned == 0 {
		t.Error("ordinary bitmaps were not scanned")
	}
}

func TestDegreesOfConservatismExperiment(t *testing.T) {
	res, _, err := DegreesOfConservatism(ConservatismOptions{
		Nodes: 8000, DeadCells: 8000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	cons, typed := rows[0], rows[1]
	if typed.DeadRetained != 0 {
		t.Errorf("typed heap retained %d dead objects", typed.DeadRetained)
	}
	if cons.DeadRetained < 50 {
		t.Errorf("conservative heap retained only %d dead objects", cons.DeadRetained)
	}
	// Typed scanning examines roughly half the words (pointer field
	// only) of the conservative scan of live nodes — and none of the
	// falsely retained garbage.
	if typed.FieldsScanned >= cons.FieldsScanned {
		t.Errorf("typed scan (%d words) not cheaper than conservative (%d)",
			typed.FieldsScanned, cons.FieldsScanned)
	}
	// Both retain the same live structure.
	if typed.LiveObjects >= cons.LiveObjects {
		t.Errorf("conservative live (%d) should exceed typed live (%d) via false retention",
			cons.LiveObjects, typed.LiveObjects)
	}
}

// TestPausesExperiment checks E16's claim on a count, not a clock: the
// most objects a mostly-concurrent cycle marks with the mutator stopped
// is well below what a stop-the-world cycle marks in its one pause, the
// whole live structure. A count repeats under any load; the phase
// timers (MaxReported) and the Allocate latencies (MaxPause) are
// readings, printed and not asserted. The churn is sized so that every
// row collects: 4.8 MB allocated against a trigger of half a 4 MiB
// heap.
func TestPausesExperiment(t *testing.T) {
	const live = 150000
	res, tab, err := Pauses(PausesOptions{LiveObjects: live, Churn: 600000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	stw, conc := rows[0], rows[1]
	for _, r := range rows {
		if r.FinalLiveObj < live {
			t.Errorf("%s lost live data: %d", r.Mode, r.FinalLiveObj)
		}
		if r.ChurnCycles == 0 {
			t.Errorf("%s: the churn triggered no collection", r.Mode)
		}
	}
	if stw.MaxStoppedMarked < live {
		t.Errorf("stop-the-world cycles marked at most %d objects in a pause, want the %d live", stw.MaxStoppedMarked, live)
	}
	if conc.MaxStoppedMarked*2 >= stw.MaxStoppedMarked {
		t.Errorf("mostly-concurrent cycles marked up to %d objects with the mutator stopped, not well below stop-the-world's %d",
			conc.MaxStoppedMarked, stw.MaxStoppedMarked)
	}
	if !strings.Contains(tab.String(), "stop-the-world") {
		t.Error("table content missing")
	}
}

func TestPublicInspection(t *testing.T) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 64 * 1024,
		ReserveHeapBytes: 1 << 20,
		Blacklisting:     BlacklistDense,
		GCDivisor:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Allocate(2, false); err != nil {
		t.Fatal(err)
	}
	st := w.Collect()
	if !strings.Contains(HeapMap(w, 16), "0x") {
		t.Error("HeapMap missing content")
	}
	if !strings.Contains(Summary(w), "collections: 1") {
		t.Error("Summary missing content")
	}
	if !strings.Contains(TraceLine(1, st), "gc 1: full") {
		t.Error("TraceLine missing content")
	}
}

func TestOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("several full program-T runs")
	}
	out, tab, err := Overhead(OverheadOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Rows[0]
	// Blacklisting eliminates nearly all retention...
	if res.RetainedWith > res.RetainedWithout/4 {
		t.Errorf("retention %.3f -> %.3f: blacklisting ineffective",
			res.RetainedWithout, res.RetainedWith)
	}
	// ...and the demand-grown heap pays (at most) a trivial space cost
	// for refusing blacklisted pages (observation 6).
	growth := float64(res.HeapWith-res.HeapWithout) / float64(res.HeapWithout)
	if growth > 0.05 {
		t.Errorf("blacklisted-page space cost %.1f%%", 100*growth)
	}
	if !strings.Contains(tab.String(), "8-byte allocation") {
		t.Error("table content missing")
	}
}

func TestObservation5Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("several full program-T runs")
	}
	res, tab, err := Observation5(Observation5Options{Seeds: 4, Rounds: 12})
	if err != nil {
		t.Fatal(err)
	}
	results := res.Rows
	if len(results) == 0 {
		t.Skip("no seed produced residual retention (all 0% rows)")
	}
	for _, r := range results {
		if r.RoundsToZero < 0 {
			t.Errorf("seed %d: %d lists still pinned after continued execution",
				r.Seed, r.StillPinned)
		}
	}
	if !strings.Contains(tab.String(), "Observation 5") {
		t.Error("table title missing")
	}
}

func TestServeBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("three 32-tenant serving worlds")
	}
	res, tab, err := ServeBench(ServeBenchOptions{Tenants: 32, Requests: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d policy rows, want 3", len(res.Rows))
	}
	want := map[string]struct {
		allocated, denials, evictions, live uint64
	}{
		"fail":          {allocated: 32 * 16, denials: 32 * 8, live: 32 * 16},
		"collect-first": {allocated: 32 * 24, denials: 0},
		"evict":         {allocated: 32 * 16, evictions: 32, live: 0},
	}
	for _, r := range res.Rows {
		exp, ok := want[r.Policy]
		if !ok {
			t.Fatalf("unexpected policy row %q", r.Policy)
		}
		delete(want, r.Policy)
		if r.ObjectsAllocated != exp.allocated {
			t.Errorf("%s: allocated %d, want %d", r.Policy, r.ObjectsAllocated, exp.allocated)
		}
		if r.Denials != exp.denials {
			t.Errorf("%s: denials %d, want %d", r.Policy, r.Denials, exp.denials)
		}
		if r.Evictions != exp.evictions {
			t.Errorf("%s: evictions %d, want %d", r.Policy, r.Evictions, exp.evictions)
		}
		if r.Policy != "collect-first" && r.ObjectsLive != exp.live {
			t.Errorf("%s: live %d, want %d", r.Policy, r.ObjectsLive, exp.live)
		}
		if r.FairnessSpread != 0 {
			t.Errorf("%s: fairness spread %d, want 0", r.Policy, r.FairnessSpread)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing policy rows: %v", want)
	}
	if !strings.Contains(tab.String(), "Multi-tenant serving") {
		t.Error("table title missing")
	}
}
