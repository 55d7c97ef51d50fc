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

// TestTenantAllocateZeroAlloc guards a budgeted tenant handle's books:
// the fast path spending paid slots, a refill paying for its carve, a
// carve the budget trims (the unpaid tail goes straight back) and the
// flush an explicit Free runs (the unspent slot's charge goes back) take
// nothing from Go's heap. The class's next hole is a fresh block, longer
// than the budget, so every round's one refill is trimmed; the round
// allocates one object fewer than the budget admits, leaving one paid
// slot for its first Free to flush, and frees from the top down, so
// the freed slots rejoin the hole they came from.
func TestTenantAllocateZeroAlloc(t *testing.T) {
	const objWords, k = 8, 10
	w := newWorld(t, Config{GCDivisor: -1})
	ten := w.NewTenant(TenantConfig{BudgetBytes: k * tenantChargeBytes(objWords), Policy: TenantFail})
	m := ten.NewMutator()
	objs := make([]mem.Addr, k-1)
	round := func() {
		for i := range objs {
			p, err := m.Allocate(objWords, false)
			if err != nil {
				t.Fatal(err)
			}
			objs[i] = p
		}
		for i := len(objs) - 1; i >= 0; i-- {
			if err := m.Free(objs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // the first round sizes the cache and the owner table
	before := m.Stats()
	avg := testing.AllocsPerRun(50, round)
	after := m.Stats()
	if avg != 0 {
		t.Fatalf("a round allocates %v times from Go's heap, want 0", avg)
	}
	rounds := after.Refills - before.Refills
	if rounds == 0 || after.RunSlots-before.RunSlots != rounds*k || after.FlushedSlots-before.FlushedSlots != rounds {
		t.Fatalf("%d refills kept %d slots and flushed %d; want each trimmed to %d, with one slot flushed",
			rounds, after.RunSlots-before.RunSlots, after.FlushedSlots-before.FlushedSlots, k)
	}
	if st, owned := ten.Stats(), ten.OwnedBytes(); st.LiveBytes != 0 || owned != 0 {
		t.Fatalf("after freeing everything: LiveBytes %d, owned %d, want 0", st.LiveBytes, owned)
	}
}
