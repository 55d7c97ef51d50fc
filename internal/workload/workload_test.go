package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/simrand"
)

func newWorld(t *testing.T, cfg core.Config) *core.World {
	t.Helper()
	if cfg.InitialHeapBytes == 0 {
		cfg.InitialHeapBytes = 4 << 20
	}
	if cfg.ReserveHeapBytes == 0 {
		cfg.ReserveHeapBytes = 32 << 20
	}
	w, err := core.NewWorld(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newMachine(t *testing.T, w *core.World, mcfg machine.Config) *machine.Machine {
	t.Helper()
	if mcfg.StackTop == 0 {
		mcfg.StackTop = 0x80000000
	}
	if mcfg.StackBytes == 0 {
		mcfg.StackBytes = 1 << 20
	}
	m, err := machine.New(w.Space, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	w.SetMutator(m)
	return m
}

func dataSeg(t *testing.T, w *core.World, bytes int) *mem.Segment {
	t.Helper()
	s, err := w.Space.MapNew("data", mem.KindData, 0x2000, bytes, bytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMakeListAndLen(t *testing.T) {
	w := newWorld(t, core.Config{GCDivisor: -1})
	head, err := MakeList(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ListLen(w, head)
	if err != nil || n != 10 {
		t.Fatalf("ListLen = %d, %v", n, err)
	}
	// First car is 1, per construction.
	v, _ := car(w, head)
	if v != 1 {
		t.Fatalf("car = %d", v)
	}
}

func TestAllocCycleIsCircular(t *testing.T) {
	w := newWorld(t, core.Config{GCDivisor: -1})
	var head mem.Addr
	err := w.Run(func(r *core.Region) (err error) {
		head, err = allocCycle(r, nil, 50, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Walk 50 steps; must return to head, never hit 0.
	p := head
	for i := 0; i < 50; i++ {
		next, err := w.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if next == 0 {
			t.Fatalf("cycle broken at step %d", i)
		}
		p = mem.Addr(next)
	}
	if p != head {
		t.Fatalf("walk of 50 did not return to head: %#x != %#x", uint32(p), uint32(head))
	}
}

func TestProgramTCleanWorldCollectsEverything(t *testing.T) {
	// With no root pollution and no simulated machine, every list must
	// be reclaimed.
	w := newWorld(t, core.Config{GCDivisor: -1})
	res, err := RunProgramT(w, nil, ProgramTParams{NLists: 20, NodesPerList: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.RetainedLists != 0 {
		t.Fatalf("clean world retained %d/%d lists", res.RetainedLists, res.TotalLists)
	}
	if res.TotalLists != 20 {
		t.Fatalf("TotalLists = %d", res.TotalLists)
	}
}

func TestProgramTFalseRootsRetainWithoutBlacklisting(t *testing.T) {
	run := func(bl core.BlacklistMode) float64 {
		w := newWorld(t, core.Config{
			GCDivisor:        -1,
			Blacklisting:     bl,
			InitialHeapBytes: 2 << 20,
		})
		data := dataSeg(t, w, 64*1024)
		// Pollute the root segment with values spread across the heap's
		// eventual extent.
		rng := simrand.New(3)
		heapLo := uint32(w.Heap.Base())
		for i := 0; i < 16*1024; i++ {
			data.Store(0x2000+mem.Addr(4*i), mem.Word(heapLo+rng.Uint32n(2<<20)))
		}
		// Startup collection, as the paper requires for blacklisting.
		w.Collect()
		res, err := RunProgramT(w, nil, ProgramTParams{NLists: 40, NodesPerList: 500})
		if err != nil {
			t.Fatal(err)
		}
		return res.RetainedFraction()
	}
	off := run(core.BlacklistOff)
	on := run(core.BlacklistDense)
	if off < 0.2 {
		t.Fatalf("polluted world retained only %.2f without blacklisting", off)
	}
	if on > off/4 {
		t.Fatalf("blacklisting ineffective: %.2f -> %.2f", off, on)
	}
}

func TestProgramTWithMachine(t *testing.T) {
	w := newWorld(t, core.Config{AllocatorResidue: true})
	m := newMachine(t, w, machine.Config{FrameSlopWords: 4, RegisterWindows: true})
	res, err := RunProgramT(w, m, ProgramTParams{NLists: 10, NodesPerList: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Stack/register residue may retain a few lists, but not most.
	if res.RetainedLists > res.TotalLists/2 {
		t.Fatalf("retained %d/%d with machine", res.RetainedLists, res.TotalLists)
	}
}

func TestReversalLoopStaysSmall(t *testing.T) {
	w := newWorld(t, core.Config{})
	m := newMachine(t, w, machine.Config{FrameSlopWords: 8, RegisterWindows: true})
	res, err := RunReversal(w, m, ReverseParams{
		ListLen: 200, Iterations: 100, Mode: ReverseLoop, SampleEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Live = original + current + previous ≈ 3 lists max.
	if res.MaxLiveCells > 4*200 {
		t.Fatalf("loop mode max live = %d cells", res.MaxLiveCells)
	}
	if res.Samples == 0 {
		t.Fatal("no samples taken")
	}
}

func TestReversalRecursiveRetainsMoreThanLoop(t *testing.T) {
	run := func(mode ReverseMode, clear machine.ClearPolicy) uint64 {
		w := newWorld(t, core.Config{AllocatorResidue: true})
		m := newMachine(t, w, machine.Config{
			FrameSlopWords: 8, RegisterWindows: true, Clear: clear,
		})
		res, err := RunReversal(w, m, ReverseParams{
			ListLen: 200, Iterations: 100, Mode: mode, SampleEvery: 2, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxLiveCells
	}
	recursive := run(ReverseRecursive, machine.ClearNone)
	cleared := run(ReverseRecursive, machine.ClearCheap)
	loop := run(ReverseLoop, machine.ClearNone)
	if recursive <= loop {
		t.Fatalf("recursive (%d) should retain more than loop (%d)", recursive, loop)
	}
	if cleared >= recursive {
		t.Fatalf("cheap clearing (%d) should beat no clearing (%d)", cleared, recursive)
	}
}

func TestGridEmbeddedVsSeparate(t *testing.T) {
	w := newWorld(t, core.Config{GCDivisor: -1})
	emb, err := MeasureGridRetention(w, 30, 30, GridEmbedded, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	w2 := newWorld(t, core.Config{GCDivisor: -1})
	sep, err := MeasureGridRetention(w2, 30, 30, GridSeparate, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Embedded: a false reference retains a large fraction (expected
	// ~25% for uniform targets). Separate: at most one row/column of
	// cons cells plus vertices, a much smaller fraction.
	if emb.MeanFractionPct < 10 {
		t.Fatalf("embedded retention only %.1f%%", emb.MeanFractionPct)
	}
	if sep.MeanFractionPct > emb.MeanFractionPct/3 {
		t.Fatalf("separate (%.1f%%) not much better than embedded (%.1f%%)",
			sep.MeanFractionPct, emb.MeanFractionPct)
	}
	// Separate-links worst case: one full row or column (cells +
	// vertices) ≈ 2*30+1; allow slack for the vertex payloads.
	if sep.MaxRetained > uint64(3*30+2) {
		t.Fatalf("separate max retained %d exceeds a row/column", sep.MaxRetained)
	}
}

func TestGridStructure(t *testing.T) {
	w := newWorld(t, core.Config{GCDivisor: -1})
	g, err := BuildGrid(w, 4, 5, GridEmbedded)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Objects) != 20 || len(g.RowHeaders) != 4 || len(g.ColHeaders) != 5 {
		t.Fatalf("embedded grid shape wrong: %d objects", len(g.Objects))
	}
	// Walking right from row header 0 visits 5 vertices.
	p := g.RowHeaders[0]
	count := 1
	for {
		next, err := w.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if next == 0 {
			break
		}
		p = mem.Addr(next)
		count++
	}
	if count != 5 {
		t.Fatalf("row walk visited %d vertices", count)
	}

	gs, err := BuildGrid(w, 4, 5, GridSeparate)
	if err != nil {
		t.Fatal(err)
	}
	// 20 vertices + 4 rows*5 cells + 5 cols*4 cells = 60 objects.
	if len(gs.Objects) != 60 {
		t.Fatalf("separate grid objects = %d, want 60", len(gs.Objects))
	}
	if _, err := BuildGrid(w, 0, 5, GridEmbedded); err == nil {
		t.Fatal("bad grid size accepted")
	}
}

func TestTreeRetentionApproximatesHeight(t *testing.T) {
	w := newWorld(t, core.Config{GCDivisor: -1})
	st, err := MeasureTreeRetention(w, 10, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 1023 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	// The paper: expected retention ≈ height. The exact expectation for
	// depth 10 is ~9; measured mean must be within 35%.
	if st.MeanRetained < st.TheoryRetained*0.65 || st.MeanRetained > st.TheoryRetained*1.35 {
		t.Fatalf("mean retained %.1f far from theory %.1f", st.MeanRetained, st.TheoryRetained)
	}
	// And drastically below the structure size.
	if st.MeanRetained > float64(st.Nodes)/10 {
		t.Fatalf("tree retention %.1f too close to full structure", st.MeanRetained)
	}
}

func TestQueueFIFO(t *testing.T) {
	w := newWorld(t, core.Config{GCDivisor: -1})
	q := NewQueue(w, false)
	for i := 0; i < 5; i++ {
		if _, err := q.Enqueue(mem.Word(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		v, err := q.Dequeue()
		if err != nil || v != mem.Word(100+i) {
			t.Fatalf("dequeue %d = %d, %v", i, v, err)
		}
	}
	if _, err := q.Dequeue(); err == nil {
		t.Fatal("dequeue on empty should fail")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestQueueChurnUnboundedVsCleared(t *testing.T) {
	run := func(clear bool) *QueueChurnResult {
		w := newWorld(t, core.Config{GCDivisor: -1})
		data := dataSeg(t, w, 4096)
		res, err := RunQueueChurn(w, 50, 10000, clear, data, 0x2000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dirty := run(false)
	clean := run(true)
	// Without clearing, the false reference retains the whole history:
	// final live ~ steps. With clearing, final live ~ window.
	if dirty.FinalLiveObjects < 5000 {
		t.Fatalf("uncleared queue retained only %d", dirty.FinalLiveObjects)
	}
	if clean.FinalLiveObjects > 200 {
		t.Fatalf("cleared queue retained %d", clean.FinalLiveObjects)
	}
}

func TestLazyStreamFalseRefRetains(t *testing.T) {
	run := func(falseRef bool) *LazyStreamResult {
		w := newWorld(t, core.Config{GCDivisor: -1})
		data := dataSeg(t, w, 4096)
		res, err := RunLazyStream(w, 10000, falseRef, data, 0x2000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pinned := run(true)
	free := run(false)
	if pinned.FinalLiveObjects < 5000 {
		t.Fatalf("pinned stream retained only %d", pinned.FinalLiveObjects)
	}
	if free.FinalLiveObjects > 100 {
		t.Fatalf("free stream retained %d", free.FinalLiveObjects)
	}
	if _, err := RunLazyStream(newWorld(t, core.Config{}), 0, false, nil, 0); err == nil {
		t.Fatal("bad step count accepted")
	}
}

func TestLazyStreamMemoises(t *testing.T) {
	w := newWorld(t, core.Config{GCDivisor: -1})
	s := NewLazyStream(w)
	first, err := s.First()
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Force(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Force(first)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Force not memoised")
	}
	if s.Produced != 2 {
		t.Fatalf("Produced = %d", s.Produced)
	}
}

func TestFalseRefTrialClearsMarks(t *testing.T) {
	w := newWorld(t, core.Config{GCDivisor: -1})
	tr, err := BuildBalancedTree(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(1)
	FalseRefTrial(w, tr.Nodes, rng)
	if n, _ := w.Heap.CountMarked(); n != 0 {
		t.Fatalf("%d marks left after trial", n)
	}
	// Objects are still allocated (no sweep).
	for _, n := range tr.Nodes {
		if !w.Heap.IsAllocated(n) {
			t.Fatal("trial freed an object")
		}
	}
}

func TestMakeListRootedSurvivesMidBuildCollections(t *testing.T) {
	// A tiny heap forces collections during the build; the rooted
	// variant must deliver a complete list anyway.
	w := newWorld(t, core.Config{
		InitialHeapBytes: 32 * 1024,
		ReserveHeapBytes: 8 << 20,
		GCDivisor:        2,
	})
	root := dataSeg(t, w, 4096)
	head, err := MakeListRooted(w, 20000, root, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if w.Collections() == 0 {
		t.Fatal("test premise broken: no mid-build collections")
	}
	n, err := ListLen(w, head)
	if err != nil || n != 20000 {
		t.Fatalf("list length = %d, %v", n, err)
	}
}

func TestMakeListUnrootedIsEatenMidBuild(t *testing.T) {
	// The documented hazard of the plain variant, demonstrated: with
	// collections enabled and no roots, the prefix disappears.
	w := newWorld(t, core.Config{
		InitialHeapBytes: 32 * 1024,
		ReserveHeapBytes: 8 << 20,
		GCDivisor:        2,
	})
	head, err := MakeList(w, 20000)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ListLen(w, head)
	if err != nil {
		t.Fatal(err)
	}
	if n >= 20000 {
		t.Fatalf("expected truncation, got %d cells", n)
	}
}
