package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/alloc"
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
