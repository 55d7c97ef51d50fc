package core

import (
	"bytes"
	"fmt"
	"regexp"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// kindSeq extracts the kind sequence from a recorder's surviving
// events, filtered to the given set (nil keeps everything).
func kindSeq(r *trace.Recorder, keep map[trace.Kind]bool) []trace.Kind {
	var out []trace.Kind
	for _, ev := range r.Events() {
		if keep == nil || keep[ev.Kind] {
			out = append(out, ev.Kind)
		}
	}
	return out
}

func countKind(r *trace.Recorder, k trace.Kind) int {
	n := 0
	for _, ev := range r.Events() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// churn allocates count two-word objects, rooting every other one in
// consecutive data-segment slots starting at base. Identical input
// worlds perform identical work — the differential tests rely on it.
func churn(t *testing.T, w *World, data *mem.Segment, base mem.Addr, count int) []mem.Addr {
	t.Helper()
	addrs := make([]mem.Addr, 0, count)
	for i := 0; i < count; i++ {
		a, err := w.Allocate(2, false)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
		if i%2 == 0 {
			if err := data.Store(base+mem.Addr(4*(i/2)), mem.Word(a)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return addrs
}

// TestCollectZeroAllocsUntraced is the overhead budget's teeth: with no
// tracer attached, a steady-state collection must not allocate — the
// nil-recorder fast path, the metrics' pre-registered atomics, and the
// root-scan scratch slice together keep the whole cycle allocation
// free, so observability costs nothing when off. The RootSource row
// attaches a machine: its register file is read into a buffer the
// machine owns, so scanning it allocates nothing either.
func TestCollectZeroAllocsUntraced(t *testing.T) {
	for _, withSource := range []bool{false, true} {
		t.Run(fmt.Sprintf("RootSource=%v", withSource), func(t *testing.T) {
			w := newWorld(t, Config{GCDivisor: -1})
			if withSource {
				withMachine(t, w, machine.Config{RegisterWindows: true})
			}
			data := addData(t, w, "data", 0x2000, 4096)
			churn(t, w, data, 0x2000, 64)
			w.Collect() // warm up: size the mark stack and sweep structures
			w.Collect()
			avg := testing.AllocsPerRun(10, func() { w.Collect() })
			if avg != 0 {
				t.Fatalf("untraced Collect allocates %v times per cycle, want 0", avg)
			}
		})
	}
}

// TestCollectZeroAllocsUntracedLazy repeats the budget check with lazy
// sweeping: deferring and draining sweep work must not allocate either.
func TestCollectZeroAllocsUntracedLazy(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1, LazySweep: true})
	data := addData(t, w, "data", 0x2000, 4096)
	churn(t, w, data, 0x2000, 64)
	w.Collect()
	w.Collect()
	w.FinishSweep()
	avg := testing.AllocsPerRun(10, func() {
		w.Collect()
		w.FinishSweep()
	})
	if avg != 0 {
		t.Fatalf("untraced lazy Collect allocates %v times per cycle, want 0", avg)
	}
}

// TestCollectAllocBoundUntracedParallel pins the stop-the-world
// collection of a world that also marks concurrently at zero
// allocations, as on any world, after a concurrent cycle has run.
func TestCollectAllocBoundUntracedParallel(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1, LazySweep: true})
	data := addData(t, w, "data", 0x2000, 4096)
	churn(t, w, data, 0x2000, 64)
	cycleByStep(t, w)
	w.Collect()
	w.Collect()
	w.FinishSweep()
	avg := testing.AllocsPerRun(10, func() {
		w.Collect()
		w.FinishSweep()
	})
	if avg != 0 {
		t.Fatalf("untraced Collect after a concurrent cycle allocates %v times per cycle, want 0", avg)
	}
}

// TestTracingDifferential asserts observability changes nothing it
// observes: the same workload in a traced world (ring buffer + gctrace
// sink attached) and an untraced one yields identical allocation
// addresses and identical CollectionStats up to timing.
func TestTracingDifferential(t *testing.T) {
	run := func(traced bool) ([]mem.Addr, []CollectionStats) {
		w := newWorld(t, Config{GCDivisor: -1})
		if traced {
			w.EnableTracing(0)
			w.SetGCTrace(&bytes.Buffer{})
		}
		data := addData(t, w, "data", 0x2000, 4096)
		var stats []CollectionStats
		var addrs []mem.Addr
		for round := 0; round < 3; round++ {
			addrs = append(addrs, churn(t, w, data, 0x2000, 48)...)
			stats = append(stats, w.Collect())
		}
		return addrs, stats
	}
	plainAddrs, plainStats := run(false)
	tracedAddrs, tracedStats := run(true)
	if len(plainAddrs) != len(tracedAddrs) {
		t.Fatalf("allocation counts diverge: %d vs %d", len(plainAddrs), len(tracedAddrs))
	}
	for i := range plainAddrs {
		if plainAddrs[i] != tracedAddrs[i] {
			t.Fatalf("allocation %d diverges: %#x untraced, %#x traced", i, plainAddrs[i], tracedAddrs[i])
		}
	}
	for i := range plainStats {
		a, b := plainStats[i], tracedStats[i]
		a.Duration, b.Duration = 0, 0
		a.PauseMarkNs, b.PauseMarkNs = 0, 0
		a.PauseSweepNs, b.PauseSweepNs = 0, 0
		if a != b {
			t.Fatalf("cycle %d stats diverge:\nuntraced %+v\ntraced   %+v", i, a, b)
		}
	}
}

// TestTraceEventOrdering checks a full collection emits its phase spans
// in order with consistent arguments.
func TestTraceEventOrdering(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	r := w.EnableTracing(0)
	data := addData(t, w, "data", 0x2000, 4096)
	churn(t, w, data, 0x2000, 32)
	st := w.Collect()

	phases := map[trace.Kind]bool{
		trace.EvCycleBegin: true, trace.EvMarkBegin: true, trace.EvMarkEnd: true,
		trace.EvSweepBegin: true, trace.EvSweepEnd: true, trace.EvCycleEnd: true,
	}
	want := []trace.Kind{
		trace.EvCycleBegin, trace.EvMarkBegin, trace.EvMarkEnd,
		trace.EvSweepBegin, trace.EvSweepEnd, trace.EvCycleEnd,
	}
	got := kindSeq(r, phases)
	if len(got) != len(want) {
		t.Fatalf("phase events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phase events = %v, want %v", got, want)
		}
	}
	for _, ev := range r.Events() {
		switch ev.Kind {
		case trace.EvCycleBegin:
			if ev.A0 != 1 || ev.A2 != 0 {
				t.Fatalf("cycle_begin args = %+v, want cycle 1 kind 0", ev)
			}
		case trace.EvMarkEnd:
			if uint64(ev.A0) != st.Mark.ObjectsMarked || uint64(ev.A1) != st.Mark.BytesMarked {
				t.Fatalf("mark_end args = %+v, stats %+v", ev, st.Mark)
			}
		case trace.EvSweepEnd:
			if uint64(ev.A0) != st.Sweep.ObjectsFreed || uint64(ev.A1) != st.Sweep.BytesFreed {
				t.Fatalf("sweep_end args = %+v, stats %+v", ev, st.Sweep)
			}
		case trace.EvCycleEnd:
			if uint64(ev.A1) != st.Sweep.ObjectsLive {
				t.Fatalf("cycle_end args = %+v, stats %+v", ev, st.Sweep)
			}
		}
	}
	// Timestamps never decrease within the surviving window.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].TimeNs < evs[i-1].TimeNs {
			t.Fatalf("timestamps regress: %d then %d", evs[i-1].TimeNs, evs[i].TimeNs)
		}
	}
}

// TestTraceWorkerEvents checks what the trace says about who marked a
// concurrent cycle: its one marker, on which the snapshot, the stepped
// chunks and the finale all mark. The cycle's mark_begin reports one
// marker and its one mark_end the whole cycle's totals — the snapshot's
// and the chunks' first-marks included, not the finale's alone — and a
// mark that follows it (a stop-the-world collection, a MarkOnly)
// reports its own totals, not the concurrent cycle's.
func TestTraceWorkerEvents(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	r := w.EnableTracing(0)
	addData(t, w, "data", 0x2000, 4096)
	concBuildGraph(t, directDriver{w})
	markEnds := func() (ends []trace.Event) {
		for _, ev := range r.Events() {
			switch ev.Kind {
			case trace.EvMarkBegin:
				if ev.A1 != 1 {
					t.Errorf("mark_begin reports %d markers, want 1", ev.A1)
				}
			case trace.EvMarkEnd:
				ends = append(ends, ev)
			}
		}
		return ends
	}

	st := cycleByStep(t, w)
	ends := markEnds()
	if len(ends) != 1 || uint64(ends[0].A0) != st.Mark.ObjectsMarked || uint64(ends[0].A1) != st.Mark.BytesMarked {
		t.Fatalf("mark_end events %+v for a cycle that marked %+v", ends, st.Mark)
	}
	if st.MarkedConcurrent == 0 || st.Mark.ObjectsMarked <= st.MarkedConcurrent {
		t.Fatalf("cycle marked %d objects, %d of them between the pauses: want both the snapshot's and the chunks'",
			st.Mark.ObjectsMarked, st.MarkedConcurrent)
	}
	for _, serial := range []struct {
		name string
		run  func() uint64
	}{
		{"collect", func() uint64 { return w.Collect().Mark.ObjectsMarked }},
		{"mark-only", func() uint64 { objects, _ := w.MarkOnly(); return objects }},
	} {
		r.Reset()
		marked := serial.run()
		if ends := markEnds(); len(ends) != 1 || uint64(ends[0].A0) != marked {
			t.Errorf("%s after a concurrent cycle: mark_end events %+v, want one for its %d objects", serial.name, ends, marked)
		}
	}
}

// TestTraceMinorAndConcurrentCycles checks the cycle-kind argument
// convention (0 full, 1 minor, 3 concurrent; 2 is retired) on a cycle's
// begin event.
func TestTraceMinorAndConcurrentCycles(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1, Generational: true})
	r := w.EnableTracing(0)
	data := addData(t, w, "data", 0x2000, 4096)
	churn(t, w, data, 0x2000, 32)
	w.CollectMinor()
	begins := 0
	for _, ev := range r.Events() {
		if ev.Kind == trace.EvCycleBegin {
			begins++
			if ev.A2 != 1 {
				t.Fatalf("minor cycle_begin kind = %d, want 1", ev.A2)
			}
		}
	}
	if begins != 1 {
		t.Fatalf("cycle_begin events = %d, want 1", begins)
	}

	wc := newWorld(t, Config{GCDivisor: -1, ConcurrentMark: true})
	rc := wc.EnableTracing(0)
	datac := addData(t, wc, "data", 0x2000, 4096)
	churn(t, wc, datac, 0x2000, 32)
	if err := wc.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	for !wc.ConcurrentStep(8) {
	}
	if st := wc.LastCollection(); !st.Concurrent || st.Minor {
		t.Fatalf("concurrent stats = %+v", st)
	}
	for _, ev := range rc.Events() {
		if ev.Kind == trace.EvCycleBegin && ev.A2 != 3 {
			t.Fatalf("concurrent cycle_begin kind = %d, want 3", ev.A2)
		}
	}
}

// TestTraceBlacklistAndAllocTrigger checks the marker's blacklist
// additions and allocation-triggered collections reach the trace and
// the gc_alloc_triggered counter.
func TestTraceBlacklistAndAllocTrigger(t *testing.T) {
	w := newWorld(t, Config{
		Blacklisting: BlacklistDense, GCDivisor: 4,
		InitialHeapBytes: 1 << 16, ReserveHeapBytes: 1 << 20,
	})
	r := w.EnableTracing(0)
	data := addData(t, w, "data", 0x2000, 4096)
	// A near-heap non-pointer: one page past the committed heap.
	hs := w.Heap.Stats()
	data.Store(0x2000, mem.Word(uint32(w.cfg.HeapBase)+uint32(hs.HeapBytes)+mem.PageBytes))
	w.Collect()
	if countKind(r, trace.EvBlacklistPage) == 0 {
		t.Fatal("no blacklist_page events from a near-heap false reference")
	}

	// Allocate until the divisor triggers a collection on its own.
	before := w.Collections()
	for i := 0; i < 20000 && w.Collections() == before; i++ {
		if _, err := w.Allocate(4, false); err != nil {
			t.Fatal(err)
		}
	}
	if w.Collections() == before {
		t.Fatal("allocation never triggered a collection")
	}
	if countKind(r, trace.EvAllocTrigger) == 0 {
		t.Fatal("no alloc_trigger events from a triggered collection")
	}
	if v, ok := w.Metrics().Value("gc_alloc_triggered"); !ok || v < 1 {
		t.Fatalf("gc_alloc_triggered = %d (ok=%v), want >= 1", v, ok)
	}
}

// TestMetricsMatchCollectionStats asserts the registry's counters are
// exactly the running sums of the per-cycle CollectionStats, and the
// gauges mirror the allocator — CollectionStats is a per-cycle view of
// the same accounting the registry accumulates. A budgeted tenant
// allocates garbage every round so the barrier's owner reconcile — the
// one stopped-world phase Duration does not cover — runs and is
// reported, in the stats, the gctrace line and the counter alike.
func TestMetricsMatchCollectionStats(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	var gctrace bytes.Buffer
	w.SetGCTrace(&gctrace)
	tm := w.NewTenant(TenantConfig{BudgetBytes: 1 << 20}).NewMutator()
	var sum struct {
		cycles, objectsMarked, bytesMarked uint64
		objectsSwept, bytesSwept           uint64
		pauseNs, markPauseNs, sweepNs      uint64
		reconNs, reconCycles               uint64
	}
	w.SetCollectionHook(func(st CollectionStats) {
		sum.cycles++
		sum.objectsMarked += st.Mark.ObjectsMarked
		sum.bytesMarked += st.Mark.BytesMarked
		sum.objectsSwept += st.Sweep.ObjectsFreed
		sum.bytesSwept += st.Sweep.BytesFreed
		sum.pauseNs += uint64(st.Duration.Nanoseconds())
		sum.markPauseNs += uint64(st.PauseMarkNs)
		sum.sweepNs += uint64(st.PauseSweepNs)
		sum.reconNs += uint64(st.PauseReconcileNs)
		if st.PauseReconcileNs > 0 {
			sum.reconCycles++
		}
	})
	for round := 0; round < 4; round++ {
		churn(t, w, data, 0x2000, 40)
		for i := 0; i < 40; i++ {
			if _, err := tm.Allocate(8, false); err != nil {
				t.Fatal(err)
			}
		}
		w.Collect()
	}
	reg := w.Metrics()
	check := func(name string, want uint64) {
		t.Helper()
		got, ok := reg.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		if uint64(got) != want {
			t.Fatalf("%s = %d, hook sum = %d", name, got, want)
		}
	}
	check("gc_cycles", sum.cycles)
	check("objects_marked", sum.objectsMarked)
	check("bytes_marked", sum.bytesMarked)
	check("objects_swept", sum.objectsSwept)
	check("bytes_swept", sum.bytesSwept)
	check("pause_ns", sum.pauseNs)
	check("mark_pause_ns", sum.markPauseNs)
	check("sweep_pause_ns", sum.sweepNs)
	check("owner_reconcile_ns", sum.reconNs)
	if sum.reconCycles != sum.cycles {
		t.Fatalf("%d of %d tenanted cycles reported PauseReconcileNs", sum.reconCycles, sum.cycles)
	}
	if got := uint64(bytes.Count(gctrace.Bytes(), []byte(", recon "))); got != sum.cycles {
		t.Fatalf("gctrace has %d recon terms, want %d:\n%s", got, sum.cycles, gctrace.String())
	}

	hs := w.Heap.Stats()
	check("heap_bytes", uint64(hs.HeapBytes))
	check("live_bytes", hs.BytesLive)
	check("live_objects", hs.ObjectsLive)
	check("bytes_allocated", hs.BytesAllocated)
	check("objects_allocated", hs.ObjectsAllocated)

	// The pause histograms see every cycle: their counts and sums are
	// the same accounting as the pause counters.
	markHist := reg.Histogram("mark_pause_ns_hist")
	sweepHist := reg.Histogram("sweep_pause_ns_hist")
	if markHist.Count() != sum.cycles || markHist.Sum() != sum.markPauseNs {
		t.Fatalf("mark hist count=%d sum=%d, cycles=%d markPauseNs=%d",
			markHist.Count(), markHist.Sum(), sum.cycles, sum.markPauseNs)
	}
	if sweepHist.Count() != sum.cycles || sweepHist.Sum() != sum.sweepNs {
		t.Fatalf("sweep hist count=%d sum=%d, cycles=%d sweepNs=%d",
			sweepHist.Count(), sweepHist.Sum(), sum.cycles, sum.sweepNs)
	}
}

// TestMetricsMatchConcurrentCycleStats extends the running-sums
// invariant to what only a concurrent cycle produces: the concurrent
// cycles and their final pauses (gc_concurrent_cycles,
// stw_final_pause_ns, and the gctrace line's "snap … final" term), and
// the stores whose target the insertion barrier marked (barrier_shades,
// one EvBarrierShade each).
func TestMetricsMatchConcurrentCycleStats(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	rec := w.EnableTracing(0)
	data := addData(t, w, "data", 0x2000, 4096)
	var gctrace bytes.Buffer
	w.SetGCTrace(&gctrace)
	m := w.NewMutator()
	var cycles, finalNs uint64
	w.SetCollectionHook(func(st CollectionStats) {
		if !st.Concurrent {
			t.Errorf("want concurrent cycles, got %+v", st)
		}
		cycles++
		finalNs += uint64(st.PauseFinalNs)
	})
	var shades uint64
	for round := 0; round < 3; round++ {
		addrs := churn(t, w, data, 0x2000, 64)
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		// churn roots the even objects and leaves the odd ones white:
		// storing an odd one into a rooted one is a shade that marks.
		// (Stores first: an assist below may well finish so small a cycle.)
		for i := 1; i < len(addrs); i += 2 {
			if err := m.Store(addrs[i-1], mem.Word(addrs[i])); err != nil {
				t.Fatal(err)
			}
			shades++
		}
		// Slow-path refills mid-cycle: born black, and paced.
		for i := 0; i < 200; i++ {
			if _, err := m.Allocate(8, false); err != nil {
				t.Fatal(err)
			}
		}
		for steps := 0; !w.ConcurrentStep(0); steps++ {
			if steps > 1_000_000 {
				t.Fatal("cycle did not terminate")
			}
		}
	}
	if cycles != 3 {
		t.Fatalf("%d cycles reported, want 3", cycles)
	}
	reg := w.Metrics()
	for name, want := range map[string]uint64{
		"gc_concurrent_cycles": cycles,
		"stw_final_pause_ns":   finalNs,
		"barrier_shades":       shades,
	} {
		if got, ok := reg.Value(name); !ok || uint64(got) != want {
			t.Fatalf("%s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
	if got := uint64(bytes.Count(gctrace.Bytes(), []byte(", snap "))); got != cycles {
		t.Fatalf("gctrace has %d snap/final terms for %d concurrent cycles:\n%s", got, cycles, gctrace.String())
	}
	var events uint64
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvBarrierShade {
			events++
		}
	}
	if events != shades {
		t.Fatalf("%d barrier_shade events, %d shading stores", events, shades)
	}
}

// TestMetricsMatchMutatorStats extends the running-sums invariant to
// the concurrent-mutator counters: stw_stops/stw_pause_ns accumulate
// exactly one safepoint stop per collection of a world with handles
// attached, and the cache_refill*/cache_flush_slots counters are the
// sums of every handle's MutatorStats (the flush an explicit Free's).
func TestMetricsMatchMutatorStats(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1, LazySweep: true})
	data := addData(t, w, "data", 0x2000, 4096)
	var stops, stopNs uint64
	w.SetCollectionHook(func(st CollectionStats) {
		stops++ // each collection stops the attached handles exactly once
		stopNs += uint64(st.PauseStopNs)
	})
	const nMut = 3
	muts := make([]*Mutator, nMut)
	for g := range muts {
		muts[g] = w.NewMutator()
	}
	// Single-goroutine driving keeps this deterministic; handles are
	// per-goroutine, not thread-safe, and that is all this test needs.
	var rooted mem.Addr
	for round := 0; round < 3; round++ {
		for g, m := range muts {
			for i := 0; i < 40; i++ {
				slot := mem.Addr(0x2000 + 4*g)
				if i == 0 {
					p, err := m.AllocateRooted(data, slot, 2, false)
					if err != nil {
						t.Fatal(err)
					}
					if g == 0 {
						rooted = p
					}
				} else if _, err := m.Allocate(2, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		w.Collect()
	}
	// Collections flush nothing; an explicit Free flushes its handle.
	if err := data.Store(0x2000, 0); err != nil {
		t.Fatal(err)
	}
	if err := muts[0].Free(rooted); err != nil {
		t.Fatal(err)
	}
	var refills, refillSlots, flushSlots uint64
	for _, m := range muts {
		s := m.Stats()
		refills += s.Refills
		refillSlots += s.RunSlots
		flushSlots += s.FlushedSlots
	}
	reg := w.Metrics()
	check := func(name string, want uint64) {
		t.Helper()
		got, ok := reg.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		if uint64(got) != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if stops == 0 || refills == 0 || flushSlots == 0 {
		t.Fatalf("workload exercised nothing: %d stops, %d refills, %d slots flushed", stops, refills, flushSlots)
	}
	check("stw_stops", stops)
	check("stw_pause_ns", stopNs)
	check("cache_refills", refills)
	check("cache_refill_slots", refillSlots)
	check("cache_flush_slots", flushSlots)
	if h := reg.Histogram("stop_pause_ns_hist"); h.Count() != stops || h.Sum() != stopNs {
		t.Fatalf("stop hist count=%d sum=%d, want %d stops totalling %d ns",
			h.Count(), h.Sum(), stops, stopNs)
	}
}

// TestGCTraceLine checks the one-line-per-cycle text mode's shape.
func TestGCTraceLine(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	var buf bytes.Buffer
	w.SetGCTrace(&buf)
	data := addData(t, w, "data", 0x2000, 4096)
	churn(t, w, data, 0x2000, 32)
	w.Collect()
	w.Collect()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("gctrace lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	re := regexp.MustCompile(`^gc (\d+) @\d+\.\d{3}s full: \d+\.\d{2}ms pause \(mark \d+\.\d{2}ms, sweep \d+\.\d{2}ms\): \d+ live \(\d+ KiB\), \d+ freed, heap \d+ KiB, \d+ blacklisted$`)
	for i, line := range lines {
		m := re.FindSubmatch(line)
		if m == nil {
			t.Fatalf("gctrace line %d does not match: %q", i, line)
		}
	}
	if !bytes.HasPrefix(lines[0], []byte("gc 1 ")) || !bytes.HasPrefix(lines[1], []byte("gc 2 ")) {
		t.Fatalf("gctrace cycle numbers wrong:\n%s", buf.String())
	}
	// Detaching stops the stream.
	w.SetGCTrace(nil)
	n := buf.Len()
	w.Collect()
	if buf.Len() != n {
		t.Fatal("gctrace kept writing after SetGCTrace(nil)")
	}
}

// TestGCTraceSummary checks the cumulative distribution line built
// from the pause histograms: its shape, and that the quantiles it
// prints never shrink below zero or exceed the recorded maximum.
func TestGCTraceSummary(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	for i := 0; i < 3; i++ {
		churn(t, w, data, 0x2000, 32)
		w.Collect()
	}
	line := w.GCTraceSummary()
	re := regexp.MustCompile(`^gc summary: 3 cycles: mark p50 \d+\.\d{2}ms p95 \d+\.\d{2}ms max \d+\.\d{2}ms; sweep p50 \d+\.\d{2}ms p95 \d+\.\d{2}ms max \d+\.\d{2}ms; stop 0 stops p50 0\.00ms p95 0\.00ms max 0\.00ms$`)
	if !re.MatchString(line) {
		t.Fatalf("summary does not match: %q", line)
	}
	h := w.Metrics().Histogram("mark_pause_ns_hist")
	if h.Quantile(0.5) > h.Quantile(0.95) || h.Quantile(0.95) > h.Max() {
		t.Fatalf("quantiles disordered: p50=%d p95=%d max=%d",
			h.Quantile(0.5), h.Quantile(0.95), h.Max())
	}
}

// TestTraceLazySweepDrain checks deferred sweeps report their drains,
// and that an eager world, which defers nothing, reports none.
func TestTraceLazySweepDrain(t *testing.T) {
	for _, lazy := range []bool{true, false} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Config{GCDivisor: -1, LazySweep: lazy})
			r := w.EnableTracing(0)
			data := addData(t, w, "data", 0x2000, 4096)
			churn(t, w, data, 0x2000, 64)
			st := w.Collect()
			w.FinishSweep()
			got := countKind(r, trace.EvSweepDrain)
			if !lazy {
				if got != 0 {
					t.Fatalf("eager world traced %d sweep_drain events", got)
				}
				return
			}
			if st.SweepDeferredBlocks == 0 {
				t.Skip("workload produced no mixed blocks to defer")
			}
			if got != st.SweepDeferredBlocks {
				t.Fatalf("sweep_drain events = %d, deferred blocks = %d", got, st.SweepDeferredBlocks)
			}
		})
	}
}
