package core

import (
	"testing"
)

// TestConcurrentSweepDifferential is the acceptance criterion for the
// background sweeper: a world with ConcurrentSweep must be
// observationally identical to the plain lazy/eager worlds under an
// identical mutator schedule — equal allocation addresses (SweepChunk
// yields whenever a free list is stocked, so the demand drain keeps
// carving from the same blocks in the same order), equal per-collection
// sweep results, and equal final heap statistics. How many blocks the
// background goroutine happens to classify is scheduling-dependent
// (legitimately zero on one core), so conc_sweep_blocks is
// deliberately not asserted here.
func TestConcurrentSweepDifferential(t *testing.T) {
	variants := []struct {
		name   string
		cfg    Config
		minors bool
	}{
		{"full", Config{}, false},
		{"generational", Config{Generational: true}, true},
		{"parallel", Config{ConcurrentMark: true, GCDivisor: -1}, false},
		{"line", Config{LineAlloc: true}, false},
	}
	mask := []bool{true, false, false, true, false}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			concCfg := v.cfg
			concCfg.ConcurrentSweep = true
			we := newWorld(t, v.cfg)
			wc := newWorld(t, concCfg)
			te, err := we.RegisterLayout(mask)
			if err != nil {
				t.Fatal(err)
			}
			tc, err := wc.RegisterLayout(mask)
			if err != nil {
				t.Fatal(err)
			}
			if te != tc {
				t.Fatalf("descriptor ids diverge: %d vs %d", te, tc)
			}
			ae, se := worldChurn(t, we, 42, te, v.minors)
			ac, sc := worldChurn(t, wc, 42, tc, v.minors)
			if len(ae) != len(ac) {
				t.Fatalf("allocation counts diverge: %d vs %d", len(ae), len(ac))
			}
			for i := range ae {
				if ae[i] != ac[i] {
					t.Fatalf("allocation %d diverges: eager %#x concurrent-sweep %#x", i, ae[i], ac[i])
				}
			}
			if len(se) != len(sc) {
				t.Fatalf("collection counts diverge: %d vs %d", len(se), len(sc))
			}
			for i := range se {
				if se[i] != sc[i] {
					t.Fatalf("sweep %d diverges:\neager      %+v\nconc-sweep %+v", i, se[i], sc[i])
				}
			}
			if n := wc.Heap.SweepPending(); n != 0 {
				t.Fatalf("%d blocks still pending after FinishSweep", n)
			}
			ste, stc := we.Heap.Stats(), wc.Heap.Stats()
			stc.LazySweptBlocks = 0 // deferred-sweep bookkeeping, allowed to differ
			if ste != stc {
				t.Fatalf("final stats diverge:\neager      %+v\nconc-sweep %+v", ste, stc)
			}
		})
	}
}
