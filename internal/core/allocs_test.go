package core

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// TestAllocateZeroAllocsWithMachine guards the direct allocation path
// program T runs on: with a simulated machine attached and the
// allocator's call residue modelled, an allocation plus the store that
// links it — hook, trigger check, carve, residue frame — takes nothing
// from Go's heap, whether the residue is left behind or cleaned up, and
// whether the world or a Mutator handle owns the machine.
func TestAllocateZeroAllocsWithMachine(t *testing.T) {
	mcfg := machine.Config{StackTop: 0x80000000, StackBytes: 64 * 1024,
		RegisterWindows: true, FrameSlopWords: 4, Clear: machine.ClearCheap}
	for _, handle := range []bool{false, true} {
		for _, clean := range []bool{false, true} {
			t.Run(fmt.Sprintf("handle=%v/selfclean=%v", handle, clean), func(t *testing.T) {
				w := newWorld(t, Config{AllocatorResidue: true, AllocatorSelfClean: clean})
				var d gcDriver = directDriver{w}
				if handle {
					mach, err := machine.New(w.Space, mcfg)
					if err != nil {
						t.Fatal(err)
					}
					m := w.NewMutator()
					m.SetRootSource(mach)
					d = m
				} else {
					withMachine(t, w, mcfg)
				}
				step := func(prev mem.Addr) mem.Addr {
					p, err := d.Allocate(4, false)
					if err != nil {
						t.Fatal(err)
					}
					if prev != 0 {
						if err := w.Store(prev, mem.Word(p)); err != nil {
							t.Fatal(err)
						}
					}
					return p
				}
				prev := step(0) // the handle's first refill sizes its cache
				avg := testing.AllocsPerRun(200, func() { prev = step(prev) })
				if avg != 0 {
					t.Fatalf("Allocate+Store allocates %v times per call from Go's heap, want 0", avg)
				}
			})
		}
	}
}
