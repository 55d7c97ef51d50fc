package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/machine"
	"repro/internal/mark"
	"repro/internal/mem"
)

// Tests for detached background marking (Config.ConcMarkWorkers > 1):
// the sharded no-world-lock cycle must mark and sweep exactly what the
// single-driver lock-chunked cycle (and hence a stop-the-world
// collection) does, and the insertion barrier must still defeat the
// hide-behind-black race when the hiding store races real background
// workers. Every cycle here runs under the closure oracle.

// TestDetachedMarkingDifferential compares a detached cycle (4
// background workers pulling without the world lock) against the
// lock-chunked oracle (ConcMarkWorkers: 1, the pre-detached path) on
// identical quiesced heaps, across the collector modes detachment
// composes with. The CAS mark bits admit one winner per object, so
// the marked object set, byte totals and reclamation must be
// identical even though which shard marks each object is scheduling-
// dependent.
func TestDetachedMarkingDifferential(t *testing.T) {
	configs := map[string]Config{
		"full": {GCDivisor: -1},
		"gen":  {Generational: true, GCDivisor: -1, MinorDivisor: -1},
		"lazy": {GCDivisor: -1, LazySweep: true},
		"line": {GCDivisor: -1, LineAlloc: true},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			run := func(workers int) (CollectionStats, map[mem.Addr]bool, int) {
				c := cfg
				c.ConcurrentMark = true
				c.ConcMarkWorkers = workers
				w := newWorld(t, c)
				installClosureOracle(t, w, nil)
				addData(t, w, "data", 0x2000, 4096)
				allocs := concBuildGraph(t, directDriver{w})
				if err := w.StartConcurrentCycle(); err != nil {
					t.Fatal(err)
				}
				// No steps-taken floor here: detached workers may finish
				// the whole gray set before the first explicit step.
				for steps := 0; !w.ConcurrentStep(16); steps++ {
					if steps > 1_000_000 {
						t.Fatal("cycle did not terminate")
					}
				}
				st := w.LastCollection()
				w.FinishSweep()
				return st, liveSet(w), allocs
			}
			oracle, oracleLive, oracleAllocs := run(1)
			det, detLive, detAllocs := run(4)
			if oracleAllocs != detAllocs {
				t.Fatalf("setup diverged: %d vs %d allocations", oracleAllocs, detAllocs)
			}
			if oracle.ConcWorkers != 0 {
				t.Fatalf("lock-chunked cycle reports ConcWorkers=%d, want 0", oracle.ConcWorkers)
			}
			if det.ConcWorkers != 4 {
				t.Fatalf("detached cycle reports ConcWorkers=%d, want 4", det.ConcWorkers)
			}
			if det.Mark.ObjectsMarked != oracle.Mark.ObjectsMarked ||
				det.Mark.BytesMarked != oracle.Mark.BytesMarked {
				t.Fatalf("mark outcome diverges: detached %d objects/%d bytes, oracle %d/%d",
					det.Mark.ObjectsMarked, det.Mark.BytesMarked,
					oracle.Mark.ObjectsMarked, oracle.Mark.BytesMarked)
			}
			if det.Sweep != oracle.Sweep {
				t.Fatalf("sweep diverges:\ndetached %+v\noracle   %+v", det.Sweep, oracle.Sweep)
			}
			if len(detLive) != len(oracleLive) {
				t.Fatalf("live sets diverge: %d vs %d objects", len(detLive), len(oracleLive))
			}
			for a := range oracleLive {
				if !detLive[a] {
					t.Fatalf("object %#x live under oracle, missing under detached cycle", uint32(a))
				}
			}
		})
	}
}

// TestDetachedLostObject is the adversarial barrier test against real
// background workers, repeated: hide the only pointer to an object
// inside a possibly-already-scanned object and erase the other path,
// while 4 detached workers race the stores. Unlike the lock-chunked
// shapes the race window cannot be opened deterministically (a worker
// may mark x before the hide lands), so the assertions are the
// barrier's — x is marked when the hiding store returns, whoever marked
// it — and the soundness outcome: x survives and exactly the one
// garbage object is reclaimed, every time. (The case-by-case battery,
// lostobject_test.go, runs against this shape too.)
func TestDetachedLostObject(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		w := newWorld(t, Config{ConcurrentMark: true, ConcMarkWorkers: 4, GCDivisor: -1})
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
		// The hide, racing the workers: x's only pointer moves into
		// `black`, the path through c1 is erased. The first store shades
		// x under w.mu.
		if err := w.Store(black, mem.Word(x)); err != nil {
			t.Fatal(err)
		}
		if !markedNow(w, x) {
			t.Fatalf("iter %d: x unmarked after the store that hid it", iter)
		}
		if err := w.Store(c1, 0); err != nil {
			t.Fatal(err)
		}
		for steps := 0; !w.ConcurrentStep(1); steps++ {
			if steps > 100_000 {
				t.Fatal("cycle did not terminate")
			}
		}
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

// TestDetachedWorkersParkAndRetire runs 200 detached cycles over a
// mark-heavy graph — a root, 64 hubs of 64 words, 4096 leaves — whose
// hubs overflow a worker's stack, so the workers shed grays to each
// other through the queue and wake each other on the way. Even cycles
// are left to the workers: nothing is allocated, the driver only asks
// for the certificate between waits long enough for idle workers to
// park, and the cycle must certify with every object past the root
// marked concurrently and no pacer assist. Odd cycles are forced at
// once with FinishConcurrentCycle, from wherever the workers are. After
// every finale the goroutine count must return to its baseline: no
// worker may stay parked on a retired cycle. Every close runs under the
// closure oracle.
func TestDetachedWorkersParkAndRetire(t *testing.T) {
	const hubs, fanout = 64, 64
	w := newWorld(t, Config{ConcurrentMark: true, ConcMarkWorkers: 2, GCDivisor: -1})
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
			store(leaf, prev) // a cross edge: markers race on the CAS
			prev = leaf
		}
	}
	if err := data.Store(0x2000, mem.Word(root)); err != nil {
		t.Fatal(err)
	}
	const objects = 1 + hubs + hubs*fanout
	assistNs := func() int64 { return findMetric(t, w.MetricsSnapshot(), "pacer_assist_ns").Value }
	certified := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.concCertifyLocked()
	}
	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 200; cycle++ {
		assist := assistNs()
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		var st CollectionStats
		if cycle%2 == 0 {
			for !certified() {
				time.Sleep(50 * time.Microsecond)
			}
			st = w.LastCollection()
			if st.Mark.ObjectsMarked != objects || st.MarkedConcurrent != objects-1 {
				t.Fatalf("cycle %d: %d objects marked, %d of them concurrently; want %d and %d",
					cycle, st.Mark.ObjectsMarked, st.MarkedConcurrent, objects, objects-1)
			}
			if d := assistNs() - assist; d != 0 {
				t.Fatalf("cycle %d: no allocation ran, yet the pacer assisted for %d ns", cycle, d)
			}
		} else {
			st = w.FinishConcurrentCycle()
			if st.Mark.ObjectsMarked != objects {
				t.Fatalf("cycle %d: forced finale marked %d objects, want %d", cycle, st.Mark.ObjectsMarked, objects)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: %d goroutines 5 s after the finale, %d before the first cycle: a worker is still parked on a retired cycle",
					cycle, runtime.NumGoroutine(), base)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestDetachedConfigValidation pins the knob's edges: negative worker
// counts are rejected at construction, and ConcurrentSweep implies
// LazySweep in the resolved configuration.
func TestDetachedConfigValidation(t *testing.T) {
	if _, err := NewWorld(nil, Config{ConcurrentMark: true, ConcMarkWorkers: -1}); err == nil {
		t.Fatal("NewWorld accepted ConcMarkWorkers: -1")
	}
	w := newWorld(t, Config{ConcurrentSweep: true})
	if !w.Config().LazySweep {
		t.Fatal("ConcurrentSweep did not imply LazySweep")
	}
}

// TestWorkerIdleJudgedOnWork pins what a detached worker's back-off is
// decided on. The worker is fed gray objects whose children are all
// marked already — every chunk scans its full budget and wins no
// first-mark, so the bytes it reports for the pacer are zero — through
// the real chunk driver, with its stack kept between chunks as a
// detached worker's is. Judged on first-marks such a worker looks idle
// from its first chunk and is parked by its ninth; judged on work done
// it must never be told to park while gray objects are left anywhere.
func TestWorkerIdleJudgedOnWork(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	const n = 2000
	grays := make([]alloc.Gray, 0, n)
	var prev mem.Addr
	for i := 0; i < n; i++ {
		p, err := w.Allocate(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Store(p, mem.Word(prev)); err != nil {
			t.Fatal(err)
		}
		// Marked here, queued below: nothing is left to win.
		g, out := w.Heap.MarkCandidate(p, false, true)
		if out != alloc.WonScan {
			t.Fatalf("object %d: mark outcome %d", i, out)
		}
		grays = append(grays, g)
		prev = p
	}
	par := mark.NewParallel(w.Heap, w.mcfg, 2)
	par.ResetCycle()
	par.AddGrays(grays)
	par.FlushStaged()
	idle, chunks := 0, 0
	for !par.Quiescent() {
		work, bytes := par.DetachedChunk(0, 16, nil)
		chunks++
		if bytes != 0 {
			t.Fatalf("chunk %d won %d bytes of first-marks; the feed was to be all marked", chunks, bytes)
		}
		if work == 0 {
			t.Fatalf("chunk %d reports no work with gray objects left", chunks)
		}
		if workerIdle(&idle, work) {
			t.Fatalf("worker told to park after chunk %d with gray objects left", chunks)
		}
	}
	if chunks < n/16 {
		t.Fatalf("%d objects drained in %d chunks of 16", n, chunks)
	}
	// With nothing left the count runs up and the worker parks.
	for i := 0; i <= workerIdleAfter; i++ {
		work, _ := par.DetachedChunk(0, 16, nil)
		if park := workerIdle(&idle, work); park != (i == workerIdleAfter) {
			t.Fatalf("empty chunk %d: park = %v", i+1, park)
		}
	}
}

// cycleOnWorkers opens a concurrent cycle of the given kind and leaves
// its marking to the detached workers, as an allocation-triggered
// cycle's background driver does: the caller only asks for the
// certificate, which runs the finale once the workers are done.
func cycleOnWorkers(t *testing.T, w *World, kind cycleKind) CollectionStats {
	t.Helper()
	w.mu.Lock()
	w.startConcurrentLocked(kind)
	gen := w.cyc.gen
	w.mu.Unlock()
	w.driveConcurrent(gen)
	st := w.LastCollection()
	if !st.Concurrent {
		t.Fatalf("last collection is not the concurrent cycle: %+v", st)
	}
	return st
}

// buildParallelWorld constructs a world and a deterministic mixed
// workload: rooted chains, dead garbage, a fan-out wide enough to spill
// a marker's stack, atomic objects, register roots, and near-heap junk
// in the static segment. Returns the world and every allocated address.
func buildParallelWorld(t *testing.T, cfg Config) (*World, []mem.Addr) {
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
// across marker counts.
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

// TestParallelCollectMatchesSerial is the sharded marker's whole-world
// differential: a detached cycle whose 2, 4 or 8 workers do all the
// marking — registers, a live stack and a spilling fan-out among the
// roots — marks, sweeps and blacklists exactly what the serial
// stop-the-world collection does. Only first-mark counters are
// compared: the finale scans the roots a second time.
func TestParallelCollectMatchesSerial(t *testing.T) {
	type outcome struct {
		objects, bytes, atomic uint64
		live, freed            uint64
		surv                   []bool
		bl                     []mem.Addr
	}
	run := func(workers int) outcome {
		cfg := Config{}
		if workers > 1 {
			cfg.ConcurrentMark, cfg.ConcMarkWorkers = true, workers
		}
		w, objs := buildParallelWorld(t, cfg)
		var st CollectionStats
		if workers > 1 {
			installClosureOracle(t, w, nil)
			st = cycleOnWorkers(t, w, kindConcurrent)
			if st.ConcWorkers != workers {
				t.Fatalf("cycle ran %d workers, want %d", st.ConcWorkers, workers)
			}
		} else {
			st = w.Collect()
		}
		return outcome{
			objects: st.Mark.ObjectsMarked, bytes: st.Mark.BytesMarked, atomic: st.Mark.AtomicSkipped,
			live: st.Sweep.ObjectsLive, freed: st.Sweep.ObjectsFreed,
			surv: survivors(w, objs), bl: denseGranules(t, w),
		}
	}
	want := run(1)
	if want.objects == 0 || want.freed == 0 || want.atomic == 0 || len(want.bl) == 0 {
		t.Fatalf("workload not exercising enough: %+v", want)
	}
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			got := run(n)
			if got.objects != want.objects || got.bytes != want.bytes || got.atomic != want.atomic {
				t.Errorf("first-marks diverge: workers %d/%d/%d, serial %d/%d/%d",
					got.objects, got.bytes, got.atomic, want.objects, want.bytes, want.atomic)
			}
			if got.live != want.live || got.freed != want.freed {
				t.Errorf("sweep diverges: live %d/%d freed %d/%d",
					got.live, want.live, got.freed, want.freed)
			}
			for i := range want.surv {
				if got.surv[i] != want.surv[i] {
					t.Fatalf("object %d survival = %v, serial %v", i, got.surv[i], want.surv[i])
				}
			}
			if !slices.Equal(got.bl, want.bl) {
				t.Fatalf("blacklist granules diverge: %d, serial %d", len(got.bl), len(want.bl))
			}
		})
	}
}

// TestParallelMinorCollectMatchesSerial is the generational variant: a
// full collection establishes the old generation, stores through the
// card barrier create old-to-young edges, and a concurrent minor cycle
// has its workers rescan the remembered set — one queue task per dirty
// block — concurrently. Promotions, byte totals, survivors and the
// blacklist must match the serial stop-the-world minor's; scan-effort
// counters may not, since racing rescans can scan an object twice.
func TestParallelMinorCollectMatchesSerial(t *testing.T) {
	type outcome struct {
		promoted, bytes uint64
		surv            []bool
		bl              []mem.Addr
	}
	run := func(workers int) outcome {
		cfg := Config{Generational: true, MinorDivisor: -1}
		if workers > 1 {
			cfg.ConcurrentMark, cfg.ConcMarkWorkers = true, workers
		}
		w, objs := buildParallelWorld(t, cfg)
		w.Collect()
		// Young objects reachable only through old ones, via the barrier.
		old := objs[0]
		for i := 0; i < 64; i++ {
			p, err := w.Allocate(4, false)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, p)
			if err := w.Store(old+mem.Addr((i%4)*mem.WordBytes), mem.Word(p)); err != nil {
				t.Fatal(err)
			}
			old = p
		}
		// Young garbage too.
		for i := 0; i < 200; i++ {
			p, err := w.Allocate(4, false)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, p)
		}
		var st CollectionStats
		if workers > 1 {
			st = cycleOnWorkers(t, w, kindConcurrentMinor)
		} else {
			st = w.CollectMinor()
		}
		if !st.Minor || st.DirtyBlocks == 0 {
			t.Fatalf("minor cycle not exercised: %+v", st)
		}
		return outcome{
			promoted: st.Promoted,
			bytes:    st.Mark.BytesMarked,
			surv:     survivors(w, objs),
			bl:       denseGranules(t, w),
		}
	}
	want := run(1)
	if want.promoted == 0 {
		t.Fatal("no promotions in the serial run")
	}
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			got := run(n)
			if got.promoted != want.promoted || got.bytes != want.bytes {
				t.Errorf("promoted %d/%d, bytes %d/%d",
					got.promoted, want.promoted, got.bytes, want.bytes)
			}
			for i := range want.surv {
				if got.surv[i] != want.surv[i] {
					t.Fatalf("object %d survival = %v, serial %v", i, got.surv[i], want.surv[i])
				}
			}
			if len(got.bl) != len(want.bl) {
				t.Fatalf("blacklist granules %d, serial %d", len(got.bl), len(want.bl))
			}
		})
	}
}

// TestParallelMarkOnlyMatchesSerial: MarkOnly on a world whose detached
// cycle is in flight lands the cycle first, then measures — serially,
// as every stop-the-world mark does — what a world that never detached
// measures.
func TestParallelMarkOnlyMatchesSerial(t *testing.T) {
	w1, _ := buildParallelWorld(t, Config{})
	wantObjs, wantBytes := w1.MarkOnly()
	for _, n := range []int{2, 4} {
		wn, _ := buildParallelWorld(t, Config{ConcurrentMark: true, ConcMarkWorkers: n})
		if err := wn.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		objs, bytes := wn.MarkOnly()
		if objs != wantObjs || bytes != wantBytes {
			t.Fatalf("workers=%d MarkOnly = %d, %d; serial %d, %d",
				n, objs, bytes, wantObjs, wantBytes)
		}
		if wn.ConcurrentActive() || wn.Collections() != 1 {
			t.Fatalf("workers=%d: the cycle in flight was not landed before the measurement", n)
		}
	}
}

// TestMarkWorkersDefaultIsAdaptive pins the defaults: MarkWorkers 0 is
// the serial stop-the-world mark, and ConcMarkWorkers 0 is the adaptive
// width, which on a heap with under 8 MiB live is the serial
// lock-chunked cycle. Neither builds a sharded marker, eagerly or on
// the first cycle, and the mark_workers gauge reads one marker.
func TestMarkWorkersDefaultIsAdaptive(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	if w.cfg.MarkWorkers != 0 || w.cfg.ConcMarkWorkers != 0 {
		t.Fatalf("default MarkWorkers = %d, ConcMarkWorkers = %d, want 0 and 0", w.cfg.MarkWorkers, w.cfg.ConcMarkWorkers)
	}
	if w.par != nil {
		t.Fatal("fresh world built a sharded marker eagerly")
	}
	addData(t, w, "data", 0x2000, 4096)
	concBuildGraph(t, directDriver{w})
	if st := w.Collect(); st.Concurrent {
		t.Fatal("Collect ran a concurrent cycle")
	}
	if st := cycleOnWorkers(t, w, kindConcurrent); st.ConcWorkers != 0 {
		t.Fatalf("first adaptive cycle ran %d detached workers, want the serial cycle", st.ConcWorkers)
	}
	if w.par != nil {
		t.Fatal("serial cycles built a sharded marker")
	}
	if g := findMetric(t, w.MetricsSnapshot(), "mark_workers").Value; g != 1 {
		t.Fatalf("mark_workers = %d, want 1", g)
	}
}

func TestAutoMarkWorkersTable(t *testing.T) {
	const mib = 1 << 20
	cases := []struct {
		procs int
		live  uint64
		want  int
	}{
		// Uniprocessor: always serial.
		{1, 1 << 30, 1},
		{0, 1 << 30, 1},
		// Tiny live heaps mark serially on any machine.
		{16, 0, 1},
		{16, 8*mib - 1, 1},
		// Bands: <32MiB -> 2, <128MiB -> 4, else 8 — each capped by procs.
		{16, 8 * mib, 2},
		{16, 32*mib - 1, 2},
		{2, 16 * mib, 2},
		{16, 32 * mib, 4},
		{16, 128*mib - 1, 4},
		{3, 64 * mib, 3},
		{16, 128 * mib, 8},
		{16, 1 << 30, 8},
		{6, 1 << 30, 6},
		{64, 1 << 32, 8},
	}
	for _, c := range cases {
		if got := AutoMarkWorkers(c.procs, c.live); got != c.want {
			t.Errorf("AutoMarkWorkers(%d, %d) = %d, want %d", c.procs, c.live, got, c.want)
		}
	}
}

// TestAdaptiveMarkWorkersRebuild grows the live heap across
// AutoMarkWorkers' bands under ConcMarkWorkers 0: a cycle over a heap
// with nothing measured live yet is the serial lock-chunked one and
// builds no sharded marker; once a close has measured ~12 MiB live, the
// next cycle detaches on 2 workers, on a sharded marker built at exactly
// that width, and the mark_workers gauge says so.
func TestAdaptiveMarkWorkersRebuild(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // the selection reads GOMAXPROCS, not nproc
	defer runtime.GOMAXPROCS(prev)
	w := newWorld(t, Config{ConcurrentMark: true, InitialHeapBytes: 64 << 20, ReserveHeapBytes: 128 << 20, GCDivisor: -1})
	var keep []mem.Addr
	// ~12 MiB live: inside the [8MiB, 32MiB) band -> 2 workers.
	for i := 0; i < 3*1024; i++ {
		p, err := w.Allocate(1024, false)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		keep = append(keep, p)
	}
	root := rootHolder{addrs: keep}
	w.SetMutator(&root)
	st := cycleOnWorkers(t, w, kindConcurrent)
	if st.ConcWorkers != 0 || w.par != nil {
		t.Fatalf("first cycle ran %d workers (sharded marker built: %v), want the serial cycle", st.ConcWorkers, w.par != nil)
	}
	st = cycleOnWorkers(t, w, kindConcurrent)
	if st.ConcWorkers != 2 || w.par == nil || w.par.Workers() != 2 {
		t.Fatalf("second cycle ran %d workers (sharded marker built: %v), want 2 on a marker of 2",
			st.ConcWorkers, w.par != nil)
	}
	if st.Mark.ObjectsMarked != uint64(len(keep)) {
		t.Fatalf("adaptive cycle marked %d objects, want %d", st.Mark.ObjectsMarked, len(keep))
	}
	if g := findMetric(t, w.MetricsSnapshot(), "mark_workers").Value; g != 2 {
		t.Fatalf("mark_workers = %d after a 2-worker cycle", g)
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

// TestMarkStealsCountedOnce: only a detached cycle's markers take tasks
// from a shared queue, and each take is counted once in the registry —
// however many counters carry "steal" in their name, after several
// detached cycles they sum to the sharded marker's own count.
func TestMarkStealsCountedOnce(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, ConcMarkWorkers: 2, GCDivisor: -1})
	installClosureOracle(t, w, nil)
	addData(t, w, "data", 0x2000, 4096)
	concBuildGraph(t, directDriver{w})
	for k := 0; k < 3; k++ {
		cycleOnWorkers(t, w, kindConcurrent)
		w.Collect() // a stop-the-world cycle between them steals nothing
	}
	var sum int64
	for _, s := range w.MetricsSnapshot() {
		if strings.Contains(s.Name, "steal") {
			sum += s.Value
		}
	}
	if steals := w.par.Steals(); steals == 0 || uint64(sum) != steals {
		t.Fatalf("the registry's steal counters sum to %d; the sharded marker took %d tasks", sum, steals)
	}
}
