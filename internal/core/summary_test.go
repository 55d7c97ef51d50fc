package core

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// TestMarkSummaryExactAtSweep pins the contract between markers that
// share the heap and the sweep that follows them. Such markers set mark
// bits by compare-and-swap and write nothing else, so the allocator's
// per-block mark summaries lag for as long as they run; every reader of
// a summary — above all the sweep's classification, eager or lazy,
// clearing or sticky — must see it recounted. Each driver that marks
// that way (the stop-the-world parallel phase: Parallel.Run; the
// detached cycle, whose finale is a DrainKept over the workers' kept
// stacks) is run against
// the serial stop-the-world collector on an identical heap, with an
// audit inside the phase where there is an inside, and must reclaim
// exactly the same objects and leave a heap the strict audit accepts.
func TestMarkSummaryExactAtSweep(t *testing.T) {
	drivers := []struct {
		name string
		cfg  Config
	}{
		{"parallel-run", Config{MarkWorkers: 4}},
		{"detached-finale", Config{ConcurrentMark: true, ConcMarkWorkers: 4}},
	}
	for _, d := range drivers {
		for _, lazy := range []bool{false, true} {
			for _, sticky := range []bool{false, true} {
				d, lazy, sticky := d, lazy, sticky
				t.Run(fmt.Sprintf("%s/lazy=%v/sticky=%v", d.name, lazy, sticky), func(t *testing.T) {
					run := func(cfg Config) (CollectionStats, map[mem.Addr]bool) {
						cfg.GCDivisor, cfg.MinorDivisor = -1, -1
						cfg.LazySweep, cfg.Generational = lazy, sticky
						w := newWorld(t, cfg)
						addData(t, w, "data", 0x2000, 4096)
						concBuildGraph(t, directDriver{w})
						var st CollectionStats
						if cfg.ConcurrentMark {
							installClosureOracle(t, w, nil)
							if err := w.StartConcurrentCycle(); err != nil {
								t.Fatal(err)
							}
							audited := false
							for steps := 0; !w.ConcurrentStep(16); steps++ {
								if steps > 1_000_000 {
									t.Fatal("cycle did not terminate")
								}
								if !audited {
									// Inside the compare-and-swap phase: the summaries
									// lag the bitmaps and the audit knows it.
									if err := w.VerifyIntegrity(); err != nil {
										t.Fatalf("audit inside the cycle: %v", err)
									}
									audited = true
								}
							}
							st = w.LastCollection()
						} else {
							st = w.Collect()
						}
						if err := w.VerifyIntegrity(); err != nil {
							t.Fatalf("audit after the sweep barrier: %v", err)
						}
						w.FinishSweep()
						if err := w.VerifyIntegrity(); err != nil {
							t.Fatalf("audit after the deferred sweeps: %v", err)
						}
						return st, liveSet(w)
					}
					want, wantLive := run(Config{MarkWorkers: 1})
					got, gotLive := run(d.cfg)
					if got.Sweep != want.Sweep {
						t.Fatalf("sweep diverges from the serial collector's:\n%s %+v\nserial %+v", d.name, got.Sweep, want.Sweep)
					}
					if got.Mark.ObjectsMarked != want.Mark.ObjectsMarked || got.Mark.BytesMarked != want.Mark.BytesMarked {
						t.Fatalf("marked %d objects / %d bytes, serial %d / %d", got.Mark.ObjectsMarked, got.Mark.BytesMarked,
							want.Mark.ObjectsMarked, want.Mark.BytesMarked)
					}
					if len(gotLive) != len(wantLive) {
						t.Fatalf("%d objects survive, serial %d", len(gotLive), len(wantLive))
					}
					for a := range wantLive {
						if !gotLive[a] {
							t.Fatalf("object %#x survives the serial collector and not %s", uint32(a), d.name)
						}
					}
				})
			}
		}
	}
}
