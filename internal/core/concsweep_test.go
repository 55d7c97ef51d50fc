package core

import (
	"testing"
)

// TestConcurrentSweepDifferential pins what Config.ConcurrentSweep is
// now: LazySweep and nothing else. The background sweeper it once
// started is gone, so a ConcurrentSweep world must equal a LazySweep
// world under an identical mutator schedule — equal allocation
// addresses, equal per-collection sweep results, and equal final heap
// statistics, the lazily swept block count included.
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
			lazyCfg, concCfg := v.cfg, v.cfg
			lazyCfg.LazySweep = true
			concCfg.ConcurrentSweep = true
			wl := newWorld(t, lazyCfg)
			wc := newWorld(t, concCfg)
			tl, err := wl.RegisterLayout(mask)
			if err != nil {
				t.Fatal(err)
			}
			tc, err := wc.RegisterLayout(mask)
			if err != nil {
				t.Fatal(err)
			}
			if tl != tc {
				t.Fatalf("descriptor ids diverge: %d vs %d", tl, tc)
			}
			al, sl := worldChurn(t, wl, 42, tl, v.minors)
			ac, sc := worldChurn(t, wc, 42, tc, v.minors)
			if len(al) != len(ac) {
				t.Fatalf("allocation counts diverge: %d vs %d", len(al), len(ac))
			}
			for i := range al {
				if al[i] != ac[i] {
					t.Fatalf("allocation %d diverges: lazy %#x concurrent-sweep %#x", i, al[i], ac[i])
				}
			}
			if len(sl) != len(sc) {
				t.Fatalf("collection counts diverge: %d vs %d", len(sl), len(sc))
			}
			for i := range sl {
				if sl[i] != sc[i] {
					t.Fatalf("sweep %d diverges:\nlazy       %+v\nconc-sweep %+v", i, sl[i], sc[i])
				}
			}
			if n := wc.Heap.SweepPending(); n != 0 {
				t.Fatalf("%d blocks still pending after FinishSweep", n)
			}
			if stl, stc := wl.Heap.Stats(), wc.Heap.Stats(); stl != stc {
				t.Fatalf("final stats diverge:\nlazy       %+v\nconc-sweep %+v", stl, stc)
			}
		})
	}
}
