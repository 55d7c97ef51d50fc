package core

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/mem"
)

// TestMarkSummaryExactAtSweep pins the contract between a concurrent
// cycle's marking and the sweep that follows it: the allocator's
// per-block mark summaries, which the sweep's classification reads —
// eager or lazy, clearing or sticky — are exact at every point, the
// middle of a cycle included (the strict audit checks each against its
// bitmap). In each concurrent mode the cycle is audited two ways,
// under the row names of the marking engines they once ran on:
// "parallel-run" steps it to its end at the default quantum, audited
// once before its first chunk; "detached-finale" steps it in chunks of
// 16 and audits between two. A mode is named by its sweep (lazy) and
// its generations (sticky mark bits: never, in a concurrent world, so
// every row reads sticky=false). Each is run against the
// stop-the-world collector of the same mode on an identical heap, and
// must reclaim exactly the same objects and leave a heap the strict
// audit accepts.
func TestMarkSummaryExactAtSweep(t *testing.T) {
	for _, mode := range modesWhere(func(m Mode) bool { return m.ConcurrentMark }) {
		for _, between := range []bool{false, true} {
			way := "parallel-run"
			if between {
				way = "detached-finale"
			}
			name := fmt.Sprintf("%s/lazy=%v/sticky=%v", way, mode.LazySweep, mode.Generational)
			t.Run(name, func(t *testing.T) {
				run := func(concurrent bool) (CollectionStats, map[mem.Addr]bool) {
					cfg := mode.Apply(Config{GCDivisor: -1})
					cfg.ConcurrentMark = concurrent
					w := newWorld(t, cfg)
					addData(t, w, "data", 0x2000, 4096)
					concBuildGraph(t, directDriver{w})
					settle := func(st CollectionStats) (CollectionStats, map[mem.Addr]bool) {
						if err := w.VerifyIntegrity(); err != nil {
							t.Fatalf("audit after the sweep barrier: %v", err)
						}
						w.FinishSweep()
						if err := w.VerifyIntegrity(); err != nil {
							t.Fatalf("audit after the deferred sweeps: %v", err)
						}
						return st, liveSet(w)
					}
					if !concurrent {
						return settle(w.Collect())
					}
					installClosureOracle(t, w, nil)
					if err := w.StartConcurrentCycle(); err != nil {
						t.Fatal(err)
					}
					quantum := 0
					if between {
						quantum = 16
					} else if err := w.VerifyIntegrity(); err != nil {
						t.Fatalf("audit inside the cycle, before its first chunk: %v", err)
					}
					for steps := 0; !w.ConcurrentStep(quantum); steps++ {
						if steps > 1_000_000 {
							t.Fatal("cycle did not terminate")
						}
						if between && steps == 0 {
							if err := w.VerifyIntegrity(); err != nil {
								t.Fatalf("audit inside the cycle, between two chunks: %v", err)
							}
						}
					}
					return settle(w.LastCollection())
				}
				want, wantLive := run(false)
				got, gotLive := run(true)
				if got.Sweep != want.Sweep {
					t.Fatalf("sweep diverges from the stop-the-world collector's:\nconcurrent     %+v\nstop-the-world %+v", got.Sweep, want.Sweep)
				}
				if got.Mark.ObjectsMarked != want.Mark.ObjectsMarked || got.Mark.BytesMarked != want.Mark.BytesMarked {
					t.Fatalf("marked %d objects / %d bytes, stop-the-world %d / %d", got.Mark.ObjectsMarked, got.Mark.BytesMarked,
						want.Mark.ObjectsMarked, want.Mark.BytesMarked)
				}
				if !maps.Equal(gotLive, wantLive) {
					t.Fatalf("%d objects survive, stop-the-world %d, or different ones", len(gotLive), len(wantLive))
				}
			})
		}
	}
}
