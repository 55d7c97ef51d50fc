package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

// TestMutatorBatteryStoreGrowth is the race battery for the rule that
// lets a handle store and load under its own lock alone: heap memory
// moves only in Allocator.Expand, and Expand runs with every handle
// parked. Storer handles write and read back words of their own rooted
// objects, and their own root slots, while a grower handle's rooted
// allocations force the heap to grow — by growing the extent in place,
// by mapping new extents (DiscontiguousGrowth), and under concurrent
// marking, where stores take the barrier path from each snapshot to its
// finale and the direct path again after it. Every store must land (the
// last value written is the value read), the allocator audit must pass
// after every round, and the closure oracle checks every close.
func TestMutatorBatteryStoreGrowth(t *testing.T) {
	const (
		storers  = 3
		objs     = 8 // rooted objects per storer, reallocated every round
		objWords = 4
		rounds   = 6
		grown    = 600 // rooted allocations the grower makes per round
	)
	configs := map[string]Config{
		"contiguous": {InitialHeapBytes: 16 << 10, ReserveHeapBytes: 4 << 20, ExpandIncrement: 4 << 10, GCDivisor: -1},
		"discontiguous": {InitialHeapBytes: 16 << 10, ReserveHeapBytes: 32 << 10, ExpandIncrement: 4 << 10,
			DiscontiguousGrowth: true, Blacklisting: BlacklistHashed, GCDivisor: -1},
		"conc": {InitialHeapBytes: 16 << 10, ReserveHeapBytes: 4 << 20, ExpandIncrement: 4 << 10,
			ConcurrentMark: true, GCDivisor: 4},
	}
	sizes := [4]int{2, 4, 8, 16}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, cfg)
			var oracle *closureOracle
			if cfg.ConcurrentMark {
				oracle = installClosureOracle(t, w, nil)
			}
			const rootBase = mem.Addr(0x2000)
			growBase := rootBase + storers*objs*mem.WordBytes
			data := addData(t, w, "roots", rootBase, (storers*objs+rounds*grown)*mem.WordBytes)
			muts := make([]*Mutator, storers+1)
			for i := range muts {
				muts[i] = w.NewMutator()
			}
			grower := muts[storers]
			for round := 0; round < rounds; round++ {
				var (
					wg   sync.WaitGroup
					done atomic.Bool
					errs = make([]error, storers+1)
				)
				for g := 0; g < storers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						errs[g] = storeAndCheck(muts[g], data, rootBase+mem.Addr(g*objs*mem.WordBytes), objs, objWords, &done)
					}(g)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer done.Store(true)
					for i := 0; i < grown; i++ {
						slot := growBase + mem.Addr((round*grown+i)*mem.WordBytes)
						if _, err := grower.AllocateRooted(data, slot, sizes[i&3], false); err != nil {
							errs[storers] = err
							return
						}
						if _, err := grower.Allocate(sizes[(i+1)&3], false); err != nil {
							errs[storers] = err
							return
						}
					}
				}()
				wg.Wait()
				for g, err := range errs {
					if err != nil {
						t.Fatalf("round %d, handle %d: %v", round, g, err)
					}
				}
				w.FinishConcurrentCycle()
				if err := w.VerifyIntegrity(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			st := w.Heap.Stats()
			if st.Expansions < rounds {
				t.Fatalf("%d heap expansions in %d rounds: the battery did not grow the heap", st.Expansions, rounds)
			}
			if cfg.DiscontiguousGrowth && w.Heap.Extents() < 2 {
				t.Fatalf("heap stayed in %d extent: no extent was mapped under the stores", w.Heap.Extents())
			}
			if oracle != nil && oracle.checked() == 0 {
				t.Fatal("no cycle closed: no store switched paths")
			}
		})
	}
}

// storeAndCheck is one storer's round: allocate objs rooted objects,
// then until done (and at least a few hundred times) store into a word
// of one of them — a pointer to another of its objects or a small
// integer — rewrite that object's root slot, and load the word back.
// At the end every word must hold the last value stored into it.
func storeAndCheck(m *Mutator, data *mem.Segment, base mem.Addr, objs, objWords int, done *atomic.Bool) error {
	obj := make([]mem.Addr, objs)
	for j := range obj {
		p, err := m.AllocateRooted(data, base+mem.Addr(j*mem.WordBytes), objWords, false)
		if err != nil {
			return err
		}
		obj[j] = p
	}
	want := make([]mem.Word, objs*objWords) // fresh objects are zero
	for i := 0; i < 256 || !done.Load(); i++ {
		j, k := i%objs, (i/objs)%objWords
		v := mem.Word(obj[(j+1+i)%objs])
		if i&1 == 1 {
			v = mem.Word(i)
		}
		a := obj[j] + mem.Addr(k*mem.WordBytes)
		if err := m.Store(a, v); err != nil {
			return err
		}
		want[j*objWords+k] = v
		if err := m.Store(base+mem.Addr(j*mem.WordBytes), mem.Word(obj[j])); err != nil {
			return err
		}
		if got, err := m.Load(a); err != nil || got != v {
			return fmt.Errorf("store %d: %#x holds %#x after storing %#x (err %v)", i, uint32(a), uint32(got), uint32(v), err)
		}
	}
	for j := range obj {
		for k := 0; k < objWords; k++ {
			a := obj[j] + mem.Addr(k*mem.WordBytes)
			if got, err := m.Load(a); err != nil || got != want[j*objWords+k] {
				return fmt.Errorf("lost store: %#x holds %#x, last stored %#x (err %v)",
					uint32(a), uint32(got), uint32(want[j*objWords+k]), err)
			}
		}
	}
	return nil
}

// TestMutatorStoreLoadZeroAlloc pins a handle's stores and loads at no
// Go-heap allocation: the direct path into a heap object and a root
// slot (the handle's segment cache flipping between them), the load,
// and the barrier path a generational world's stores take.
func TestMutatorStoreLoadZeroAlloc(t *testing.T) {
	for name, cfg := range map[string]Config{
		"direct":       {GCDivisor: -1},
		"generational": {Generational: true, MinorDivisor: 6, FullEvery: 3, GCDivisor: -1},
	} {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, cfg)
			data := addData(t, w, "data", 0x2000, 4096)
			m := w.NewMutator()
			p, err := m.AllocateRooted(data, 0x2000, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(100, func() {
				if err := m.Store(p+mem.WordBytes, mem.Word(p)); err != nil {
					t.Fatal(err)
				}
				if err := m.Store(0x2000, mem.Word(p)); err != nil {
					t.Fatal(err)
				}
				if v, err := m.Load(p + mem.WordBytes); err != nil || v != mem.Word(p) {
					t.Fatalf("load = %#x, %v", uint32(v), err)
				}
			})
			if avg != 0 {
				t.Fatalf("handle Store+Store+Load allocates %v times per call, want 0", avg)
			}
		})
	}
}
