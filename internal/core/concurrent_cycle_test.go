package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/blacklist"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Tests of the one concurrent cycle: who marks it and who lands it, and
// what it finds against a stop-the-world collection of the same heap.
// Every cycle runs under the closure oracle unless it says otherwise.

// TestLostObjectRacingChunks is the adversarial barrier test against
// marking that really runs beside the mutator, repeated: hide the only
// pointer to an object inside a possibly-already-scanned object and
// erase the other path, while a second goroutine steps the cycle chunk
// by chunk to its finale. The race window cannot be opened
// deterministically (the chunks may mark x before the hide lands, or
// finish the cycle before it starts), so the assertions are the
// barrier's — x is marked when the hiding store returns, if a cycle is
// still in flight — and the soundness outcome: x survives and exactly
// the one garbage object is reclaimed, every time. (The case-by-case
// battery, lostobject_test.go, opens every window deterministically.)
func TestLostObjectRacingChunks(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1, MarkQuantum: 1})
		installClosureOracle(t, w, nil)
		data := addData(t, w, "data", 0x2000, 4096)
		alloc2 := func() mem.Addr {
			p, err := w.Allocate(2, false)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		c1 := alloc2()
		black := alloc2()
		x := alloc2()
		_ = alloc2() // garbage
		if err := data.Store(0x2000, mem.Word(c1)); err != nil {
			t.Fatal(err)
		}
		if err := data.Store(0x2004, mem.Word(black)); err != nil {
			t.Fatal(err)
		}
		if err := w.Store(c1, mem.Word(x)); err != nil {
			t.Fatal(err)
		}
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for !w.ConcurrentStep(1) {
				runtime.Gosched()
			}
		}()
		// The hide, racing the chunks: x's only pointer moves into `black`,
		// the path through c1 is erased. The first store shades x.
		if err := w.Store(black, mem.Word(x)); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		hidden := w.cyc.active && !w.Heap.Marked(x)
		w.mu.Unlock()
		if hidden {
			t.Fatalf("iter %d: x unmarked after the store that hid it", iter)
		}
		if err := w.Store(c1, 0); err != nil {
			t.Fatal(err)
		}
		<-done
		st := w.LastCollection()
		if st.Sweep.ObjectsFreed != 1 {
			t.Fatalf("iter %d: sweep freed %d objects, want exactly the 1 garbage object",
				iter, st.Sweep.ObjectsFreed)
		}
		if st.Sweep.ObjectsLive != 3 {
			t.Fatalf("iter %d: sweep saw %d live objects, want 3 (c1, black, x)",
				iter, st.Sweep.ObjectsLive)
		}
	}
}

// startTriggered opens a concurrent cycle exactly as an allocation that
// crosses the trigger does (allocateLocked): the trigger is counted and
// the snapshot pause runs, and nothing is left marking it.
func startTriggered(w *World) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.allocTrigger(kindConcurrent)
	w.startConcurrentLocked()
}

// TestDetachedWorkersParkAndRetire pins who lands a concurrent cycle now that
// nothing marks beside the mutators. Over a mark-heavy graph — a root, 64 hubs of 64 words, 4096
// leaves — cycles are opened the way an allocation trigger opens them.
//
//   - Left alone, a cycle stays active: with no allocation nothing
//     marks it, and a store still takes the barrier, shading the leaf it
//     writes. FinishConcurrentCycle then lands it with every object
//     marked.
//   - On one goroutine that keeps allocating garbage, the pacer's
//     assists mark the cycle to its end and run its finale: no forced
//     finale, every object past the root marked between the pauses, and
//     — one goroutine being deterministic — the same number of
//     allocations per cycle on a second world built the same way.
//
// The collector starts no goroutine: the count never grows.
func TestDetachedWorkersParkAndRetire(t *testing.T) {
	const hubs, fanout = 64, 64
	const objects = 1 + hubs + hubs*fanout
	run := func() []int {
		w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
		installClosureOracle(t, w, nil)
		data := addData(t, w, "data", 0x2000, 4096)
		alloc := func(words int) mem.Addr {
			p, err := w.Allocate(words, false)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		store := func(a mem.Addr, v mem.Addr) {
			if err := w.Store(a, mem.Word(v)); err != nil {
				t.Fatal(err)
			}
		}
		root := alloc(hubs)
		var prev mem.Addr
		for h := 0; h < hubs; h++ {
			hub := alloc(fanout)
			store(root+mem.Addr(4*h), hub)
			for i := 0; i < fanout; i++ {
				leaf := alloc(2)
				store(hub+mem.Addr(4*i), leaf)
				store(leaf, prev) // a cross edge: reached twice
				prev = leaf
			}
		}
		if err := data.Store(0x2000, mem.Word(root)); err != nil {
			t.Fatal(err)
		}
		metric := func(name string) int64 { return findMetric(t, w.MetricsSnapshot(), name).Value }
		base := runtime.NumGoroutine()
		for cycle := 0; cycle < 100; cycle++ {
			startTriggered(w)
			if cycle%2 == 1 {
				if st := w.FinishConcurrentCycle(); st.Mark.ObjectsMarked != objects {
					t.Fatalf("cycle %d: landed at once, marked %d objects, want %d", cycle, st.Mark.ObjectsMarked, objects)
				}
				continue
			}
			time.Sleep(time.Millisecond)
			if !w.ConcurrentActive() {
				t.Fatalf("cycle %d: closed with no allocation and no step", cycle)
			}
			shades := metric("barrier_shades")
			store(0x2004, prev) // the last leaf, white: only the root is marked yet
			if !markedNow(w, prev) || metric("barrier_shades") != shades+1 {
				t.Fatalf("cycle %d: a store into an open cycle did not shade its value", cycle)
			}
			store(0x2004, 0)
			st := w.FinishConcurrentCycle()
			if st.Mark.ObjectsMarked != objects || st.MarkedConcurrent != 1 {
				t.Fatalf("cycle %d: landed after a store, marked %d objects, %d between the pauses; want %d and 1",
					cycle, st.Mark.ObjectsMarked, st.MarkedConcurrent, objects)
			}
		}
		var allocs []int
		for cycle := 0; cycle < 50; cycle++ {
			startTriggered(w)
			before := w.Collections()
			n := 0
			for w.ConcurrentActive() {
				alloc(16) // garbage: only the slow paths' assists mark
				if n++; n > 1_000_000 {
					t.Fatalf("cycle %d: still open after %d allocations", cycle, n)
				}
			}
			st := w.LastCollection()
			if w.Collections() != before+1 || st.Mark.ObjectsMarked != objects || st.MarkedConcurrent != objects-1 {
				t.Fatalf("cycle %d: %d collections, %d objects marked, %d between the pauses; want 1, %d and %d",
					cycle, w.Collections()-before, st.Mark.ObjectsMarked, st.MarkedConcurrent, objects, objects-1)
			}
			allocs = append(allocs, n)
		}
		if f := metric("gc_forced_finales"); f != 0 {
			t.Fatalf("%d finales forced by exhausted memory; the assists should land every cycle", f)
		}
		if metric("pacer_assist_ns") == 0 {
			t.Fatal("the cycles closed with no pacer assist")
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after the cycles, %d before", n, base)
		}
		return allocs
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("allocations per assisted cycle differ between two identical worlds:\n%v\n%v", a, b)
	}
}

// TestWorkerIdleJudgedOnWork pins what a chunk's "done" is decided on:
// whether gray work is left, not whether the chunk won any first-mark.
// A plain concurrent cycle's snapshot marks hundreds of objects straight
// from a root segment, each pointing only at another of them, so every
// chunk scans a share of that gray set and marks nothing — the pacer's
// credit never moves — and yet no chunk may end the cycle while a gray
// object is left.
func TestWorkerIdleJudgedOnWork(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	installClosureOracle(t, w, nil)
	const n, quantum = 512, 16
	data := addData(t, w, "data", 0x2000, n*mem.WordBytes)
	objs := make([]mem.Addr, n)
	for i := range objs {
		p, err := w.Allocate(2, false)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = p
		if err := data.Store(0x2000+mem.Addr(i*mem.WordBytes), mem.Word(p)); err != nil {
			t.Fatal(err)
		}
	}
	// A ring: every object's one pointer is to another rooted object.
	for i, p := range objs {
		if err := w.Store(p, mem.Word(objs[(i+1)%n])); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	w.startConcurrentLocked()
	gray := w.cyc.snapMarked
	w.mu.Unlock()
	if gray != n {
		t.Fatalf("the snapshot marked %d objects, want the %d rooted", gray, n)
	}
	chunks := 0
	for !w.ConcurrentStep(quantum) {
		chunks++
		w.mu.Lock()
		credit := w.cyc.pacerCredit
		w.mu.Unlock()
		if credit != 0 {
			t.Fatalf("chunk %d credited %d bytes; every target was marked", chunks, credit)
		}
	}
	if want := n/quantum - 1; chunks != want {
		t.Fatalf("the cycle ended after %d chunks that marked nothing, want %d: the gray set was not empty", chunks, want)
	}
	if st := w.LastCollection(); st.Mark.ObjectsMarked != n || st.MarkedConcurrent != 0 {
		t.Fatalf("cycle marked %d objects, %d between the pauses; want %d, 0", st.Mark.ObjectsMarked, st.MarkedConcurrent, n)
	}
}

// cycleByStep opens a concurrent cycle and steps it
// to its end with ConcurrentStep on the calling goroutine: nothing runs
// beside it, so what it finds is as fixed as a stop-the-world
// collection's.
func cycleByStep(t *testing.T, w *World) CollectionStats {
	t.Helper()
	w.mu.Lock()
	w.startConcurrentLocked()
	w.mu.Unlock()
	for !w.ConcurrentStep(0) {
	}
	st := w.LastCollection()
	if !st.Concurrent {
		t.Fatalf("last collection is not the concurrent cycle: %+v", st)
	}
	return st
}

// buildMixedWorld constructs a world and a deterministic mixed
// workload: rooted chains, dead garbage, a wide fan-out, atomic objects,
// register roots, and near-heap junk in the static segment. Returns the
// world and every allocated address.
func buildMixedWorld(t *testing.T, cfg Config) (*World, []mem.Addr) {
	t.Helper()
	cfg.GCDivisor = -1
	if cfg.Blacklisting == 0 {
		cfg.Blacklisting = BlacklistDense
	}
	if cfg.InitialHeapBytes == 0 {
		cfg.InitialHeapBytes = 4 << 20
	}
	w := newWorld(t, cfg)
	m := withMachine(t, w, machine.Config{})
	data := addData(t, w, "data", 0x2000, 64*1024)
	var objs []mem.Addr
	allocObj := func(words int, atomic bool) mem.Addr {
		p, err := w.Allocate(words, atomic)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, p)
		return p
	}
	slot := 0
	root := func(v mem.Word) {
		data.Store(0x2000+mem.Addr(slot*mem.WordBytes), v)
		slot++
	}
	for c := 0; c < 16; c++ {
		var head mem.Addr
		for i := 0; i < 80; i++ {
			n := allocObj(4, false)
			w.Store(n, mem.Word(head))
			head = n
			if i%3 == 0 {
				allocObj(3, false) // dead
			}
		}
		root(mem.Word(head))
	}
	fan := allocObj(10000, false)
	for i := 0; i < 10000; i++ {
		leaf := allocObj(2, false)
		w.Store(fan+mem.Addr(i*mem.WordBytes), mem.Word(leaf))
	}
	root(mem.Word(fan))
	for i := 0; i < 4; i++ {
		root(mem.Word(allocObj(16, true))) // atomic
	}
	// Register roots: a live object and a near-heap junk value.
	m.SetGlobal(1, mem.Word(allocObj(8, false)))
	m.SetGlobal(2, mem.Word(w.Heap.Limit()+0x40))
	// Static near-heap junk: blacklisted by the collection.
	root(mem.Word(w.Heap.Limit() - 2))
	root(mem.Word(w.Heap.Limit() + 0x200))
	return w, objs
}

// denseGranules extracts the blacklisted granules, which must match
// across the two ways of collecting.
func denseGranules(t *testing.T, w *World) []mem.Addr {
	t.Helper()
	d, ok := w.Blacklist.(*blacklist.Dense)
	if !ok {
		t.Fatalf("blacklist is %T, want *Dense", w.Blacklist)
	}
	return d.Granules()
}

func survivors(w *World, objs []mem.Addr) []bool {
	out := make([]bool, len(objs))
	for i, p := range objs {
		out[i] = w.Heap.IsAllocated(p)
	}
	return out
}

// TestParallelCollectMatchesSerial is the concurrent cycle's whole-world
// differential against the stop-the-world collection: a cycle stepped
// to its end — registers, a live stack and a wide fan-out among the
// roots — marks, sweeps and blacklists exactly what the stop-the-world
// collection does. Only first-mark counters are compared: the finale
// scans the roots a second time.
func TestParallelCollectMatchesSerial(t *testing.T) {
	type outcome struct {
		objects, bytes, atomic uint64
		live, freed            uint64
		surv                   []bool
		bl                     []mem.Addr
	}
	run := func(concurrent bool) outcome {
		w, objs := buildMixedWorld(t, Config{ConcurrentMark: concurrent})
		var st CollectionStats
		if concurrent {
			installClosureOracle(t, w, nil)
			st = cycleByStep(t, w)
		} else {
			st = w.Collect()
		}
		return outcome{
			objects: st.Mark.ObjectsMarked, bytes: st.Mark.BytesMarked, atomic: st.Mark.AtomicSkipped,
			live: st.Sweep.ObjectsLive, freed: st.Sweep.ObjectsFreed,
			surv: survivors(w, objs), bl: denseGranules(t, w),
		}
	}
	want, got := run(false), run(true)
	if want.objects == 0 || want.freed == 0 || want.atomic == 0 || len(want.bl) == 0 {
		t.Fatalf("workload not exercising enough: %+v", want)
	}
	if got.objects != want.objects || got.bytes != want.bytes || got.atomic != want.atomic {
		t.Errorf("first-marks diverge: concurrent %d/%d/%d, stop-the-world %d/%d/%d",
			got.objects, got.bytes, got.atomic, want.objects, want.bytes, want.atomic)
	}
	if got.live != want.live || got.freed != want.freed {
		t.Errorf("sweep diverges: live %d/%d freed %d/%d", got.live, want.live, got.freed, want.freed)
	}
	if !slices.Equal(got.surv, want.surv) {
		t.Fatal("survivors diverge from the stop-the-world collection's")
	}
	if !slices.Equal(got.bl, want.bl) {
		t.Fatalf("blacklist granules diverge: %d, stop-the-world %d", len(got.bl), len(want.bl))
	}
}

// TestParallelMarkOnlyMatchesSerial: MarkOnly on a world whose concurrent
// cycle is in flight lands the cycle first, then measures what a world
// that never marked concurrently measures.
func TestParallelMarkOnlyMatchesSerial(t *testing.T) {
	w1, _ := buildMixedWorld(t, Config{})
	wantObjs, wantBytes := w1.MarkOnly()
	w, _ := buildMixedWorld(t, Config{ConcurrentMark: true})
	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	if objs, bytes := w.MarkOnly(); objs != wantObjs || bytes != wantBytes {
		t.Fatalf("MarkOnly = %d, %d; stop-the-world %d, %d", objs, bytes, wantObjs, wantBytes)
	}
	if w.ConcurrentActive() || w.Collections() != 1 {
		t.Fatal("the cycle in flight was not landed before the measurement")
	}
}

// TestMarkWorkersDefaultIsAdaptive pins the defaults, under the name it
// had when a zero ConcMarkWorkers chose an adaptive number of detached
// workers: MarkWorkers and ConcMarkWorkers stay 0, a Collect is a
// stop-the-world cycle, and a concurrent cycle at the defaults marks on
// the one marker (the trace's mark_begin says so) and leaves no
// goroutine behind.
func TestMarkWorkersDefaultIsAdaptive(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	if w.cfg.MarkWorkers != 0 || w.cfg.ConcMarkWorkers != 0 {
		t.Fatalf("default MarkWorkers = %d, ConcMarkWorkers = %d, want 0 and 0", w.cfg.MarkWorkers, w.cfg.ConcMarkWorkers)
	}
	rec := w.EnableTracing(0)
	addData(t, w, "data", 0x2000, 4096)
	concBuildGraph(t, directDriver{w})
	if st := w.Collect(); st.Concurrent {
		t.Fatal("Collect ran a concurrent cycle")
	}
	base := runtime.NumGoroutine()
	if st := cycleByStep(t, w); st.MarkedConcurrent == 0 {
		t.Fatalf("the default concurrent cycle marked nothing between its pauses: %+v", st)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the cycle, %d before", n, base)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvMarkBegin && ev.A1 != 1 {
			t.Fatalf("mark_begin reports %d markers, want 1", ev.A1)
		}
	}
}

// TestAdaptiveMarkWorkersRebuild grows a live heap of ~12 MiB, rooted only
// by a RootSource's registers, and runs two stepped cycles: both mark
// every object.
func TestAdaptiveMarkWorkersRebuild(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, InitialHeapBytes: 64 << 20, ReserveHeapBytes: 128 << 20, GCDivisor: -1})
	var keep []mem.Addr
	for i := 0; i < 3*1024; i++ {
		p, err := w.Allocate(1024, false)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		keep = append(keep, p)
	}
	root := rootHolder{addrs: keep}
	w.SetMutator(&root)
	for cycle := 0; cycle < 2; cycle++ {
		if st := cycleByStep(t, w); st.Mark.ObjectsMarked != uint64(len(keep)) {
			t.Fatalf("cycle %d marked %d objects, want %d", cycle, st.Mark.ObjectsMarked, len(keep))
		}
	}
}

// rootHolder is a minimal RootSource pinning addresses via registers.
type rootHolder struct{ addrs []mem.Addr }

func (r *rootHolder) Registers() []mem.Word {
	regs := make([]mem.Word, len(r.addrs))
	for i, a := range r.addrs {
		regs[i] = mem.Word(a)
	}
	return regs
}
func (r *rootHolder) LiveStack() ([]mem.Word, mem.Addr) { return nil, 0 }
func (r *rootHolder) OnAllocate()                       {}
