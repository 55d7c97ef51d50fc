package core

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// TestMarkSummaryExactAtSweep pins the contract between a concurrent
// cycle's marking and the sweep that follows it: the allocator's
// per-block mark summaries, which the sweep's classification reads —
// eager or lazy, clearing or sticky — are exact at every point, the
// middle of a cycle included (the strict audit checks each against its
// bitmap). The cycle is driven two ways (the rows keep the names of the
// detached engine they once drove): "parallel-run" steps it to its end
// at the default quantum, audited once before its first chunk;
// "detached-finale" steps it in chunks of 16 and audits between two. Each is run against the stop-the-world
// collector on an identical heap, and must reclaim exactly the same
// objects and leave a heap the strict audit accepts.
func TestMarkSummaryExactAtSweep(t *testing.T) {
	drivers := []struct {
		name   string
		cfg    Config
		driven bool // stepped at the default quantum, as cycleByStep does
	}{
		{"parallel-run", Config{ConcurrentMark: true, ConcMarkWorkers: 4}, true},
		{"detached-finale", Config{ConcurrentMark: true, ConcMarkWorkers: 4}, false},
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
						switch {
						case d.driven && cfg.ConcurrentMark:
							installClosureOracle(t, w, nil)
							if err := w.StartConcurrentCycle(); err != nil {
								t.Fatal(err)
							}
							// Inside the cycle, before its first chunk.
							if err := w.VerifyIntegrity(); err != nil {
								t.Fatalf("audit inside the cycle: %v", err)
							}
							for !w.ConcurrentStep(0) {
							}
							st = w.LastCollection()
						case cfg.ConcurrentMark:
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
									// Inside the cycle, between two chunks.
									if err := w.VerifyIntegrity(); err != nil {
										t.Fatalf("audit inside the cycle: %v", err)
									}
									audited = true
								}
							}
							st = w.LastCollection()
						default:
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
