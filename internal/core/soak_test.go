package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// TestSoakConcurrentClosure is the root package's bounded-live-set soak
// (TestSoakHeapBounded) run where the closure oracle can reach: a
// program whose live set is a rotating window of lists allocates a few
// hundred times its heap while allocation-triggered cycles — in the
// concurrent shapes: background driver, detached workers, pacer
// assists, forced finales, the lot; and stop-the-world, whose close is
// the same close — collect behind it. Every cycle must hold the closure
// of the roots when it closes (the oracle), the window must survive,
// and the heap must stay bounded. All root writes go through
// World.Store: the driver's finale scans the roots on another
// goroutine, and the world lock is what orders the two.
func TestSoakConcurrentClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"gen-lazy", Config{Generational: true, MinorDivisor: 4, FullEvery: 4, LazySweep: true}},
		{"line-bgsweep", Config{LineAlloc: true, ConcurrentSweep: true}},
	}
	shapes := map[string]Config{"stop-the-world": {MarkWorkers: 1}}
	for _, shape := range concShapes {
		shape.cfg.ConcurrentMark = true
		shapes[shape.name] = shape.cfg
	}
	for shapeName, shape := range shapes {
		for _, mode := range modes {
			shape, mode := shape, mode
			t.Run(shapeName+"/"+mode.name, func(t *testing.T) {
				cfg := mode.cfg
				cfg.ConcurrentMark = shape.ConcurrentMark
				cfg.MarkWorkers, cfg.ConcMarkWorkers = shape.MarkWorkers, shape.ConcMarkWorkers
				cfg.GCDivisor = 4
				cfg.InitialHeapBytes = 256 << 10
				cfg.ReserveHeapBytes = 32 << 20
				w := newWorld(t, cfg)
				oracle := installClosureOracle(t, w, nil)
				addData(t, w, "roots", 0x2000, 4096)
				rng := simrand.New(7)
				const window = 64
				heads := make([]mem.Addr, window)
				peakHeap := 0
				for i := 0; i < 30000; i++ {
					// Build a list of up to 30 cells, newest first; slot 0 of the
					// roots keeps it alive while it grows.
					var head mem.Addr
					for j, n := 0, 1+rng.Intn(30); j < n; j++ {
						cell, err := w.Allocate(2, rng.Bool(0.2))
						if err != nil {
							t.Fatal(err)
						}
						if !rng.Bool(0.2) { // composite: link it
							if err := w.Store(cell+4, mem.Word(head)); err != nil {
								t.Fatal(err)
							}
						}
						head = cell
						if err := w.Store(0x2000, mem.Word(head)); err != nil {
							t.Fatal(err)
						}
					}
					slot := 1 + rng.Intn(window-1)
					heads[slot] = head
					if err := w.Store(0x2000+mem.Addr(4*slot), mem.Word(head)); err != nil {
						t.Fatal(err)
					}
					if i%512 == 0 {
						oracle.check(t)
						// Under the world lock: a background driver may be
						// closing a cycle, and the close writes these stats.
						w.mu.Lock()
						_, hb := w.Heap.SinceGC()
						w.mu.Unlock()
						if hb > peakHeap {
							peakHeap = hb
						}
					}
				}
				w.FinishConcurrentCycle()
				oracle.check(t)
				if oracle.checked() < 10 {
					t.Fatalf("only %d cycles closed in the soak", oracle.checked())
				}
				if peakHeap > 8<<20 {
					t.Fatalf("heap grew to %d MiB under a bounded live set", peakHeap>>20)
				}
				if err := w.VerifyIntegrity(); err != nil {
					t.Fatal(err)
				}
				for slot, h := range heads {
					if h != 0 && !w.Heap.IsAllocated(h) {
						t.Fatalf("window slot %d lost", slot)
					}
				}
				t.Logf("peak heap %d KiB, %d collections, %d closes audited",
					peakHeap/1024, w.Collections(), oracle.checked())
			})
		}
	}
}
