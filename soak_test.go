package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/simrand"
)

// TestSoakHeapBounded models the paper's deployment claim — "the Xerox
// Portable Common Runtime system is used routinely to run more than a
// million lines of Cedar/Mesa code" — as a long-running mixed workload:
// in every collector mode, a program whose live set is bounded must
// see a bounded heap, no matter how much it allocates.
func TestSoakHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	// Two rows keep the names they had before the mode table.
	old := map[string]string{"full": "stop-the-world", "gen": "generational"}
	for _, mode := range core.Modes {
		name := mode.Name
		if n, ok := old[name]; ok {
			name = n
		}
		t.Run(name, func(t *testing.T) {
			cfg := mode.Apply(Config{Blacklisting: BlacklistDense, MinorDivisor: 4, FullEvery: 8})
			cfg.InitialHeapBytes = 256 * 1024
			cfg.ReserveHeapBytes = 32 << 20
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			roots, err := w.Space.MapNew("roots", KindData, 0x2000, 4096, 4096)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(w, MachineConfig{
				StackTop: 0xF0000000, StackBytes: 256 * 1024,
				FrameSlopWords: 4, Clear: ClearCheap,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := simrand.New(7)

			// A rotating window of live structures: lists, trees of cons
			// cells, atomic buffers. Window size bounds the live set.
			const window = 64
			heads := make([]Addr, window)
			var peakHeap int
			for i := 0; i < 60000; i++ {
				var head Addr
				err := m.WithFrame(2, func(f *Frame) error {
					n := 1 + rng.Intn(30)
					for j := 0; j < n; j++ {
						cell, err := w.Allocate(2, rng.Bool(0.2))
						if err != nil {
							return err
						}
						if !rng.Bool(0.2) { // composite: link it
							w.Store(cell+4, Word(head))
						}
						head = cell
						f.Store(0, Word(head))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				slot := rng.Intn(window)
				heads[slot] = head
				roots.Store(0x2000+Addr(4*slot), Word(head))
				if hb := w.Heap.Stats().HeapBytes; hb > peakHeap {
					peakHeap = hb
				}
			}
			// Live set ≤ 64 windows × ~30 cells × 8 B ≈ 15 KiB; anything
			// above a few MiB of heap would mean runaway retention.
			if peakHeap > 8<<20 {
				t.Fatalf("heap grew to %d MiB under a bounded live set", peakHeap>>20)
			}
			if w.Collections() < 10 {
				t.Fatalf("only %d collections in the soak", w.Collections())
			}
			// The window survives.
			for slot, h := range heads {
				if h != 0 && !w.Heap.IsAllocated(h) {
					t.Fatalf("window slot %d lost", slot)
				}
			}
			t.Log(fmt.Sprintf("%s: peak heap %d KiB over %d collections",
				mode.Name, peakHeap/1024, w.Collections()))
		})
	}
}
