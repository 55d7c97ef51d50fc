package core

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/mem"
)

// worldCalls is what the region battery's program calls: the world call
// by call, or one Region for the whole run.
type worldCalls interface {
	Allocate(nwords int, atomic bool) (mem.Addr, error)
	Store(a mem.Addr, v mem.Word) error
	Load(a mem.Addr) (mem.Word, error)
	Collect() CollectionStats
	RegisterFinalizable(a mem.Addr)
	DrainReclaimed() []mem.Addr
}

const (
	regionRoots  = mem.Addr(0x2000) // two root slots per chain: head, tail
	regionChains = 16
)

// regionProgram is one single-goroutine program: chains of 2-, 4- and
// 8-word nodes, each with its head and its tail rooted (the program
// writes into no object it could have lost), each new node linked from
// its chain's tail (in a generational world, mostly an old-to-young
// store).
// A chain's head is registered finalizable, and one new node in forty
// starts its chain afresh, dropping the old one. One step in eight moves
// a chain's second node to another chain's tail and then clears the
// link it was reached by — the store an insertion barrier exists for.
// Every 997 steps it collects explicitly, beside the collections the
// allocations trigger. It returns every address allocated and every
// batch DrainReclaimed returned.
func regionProgram(t *testing.T, c worldCalls) (addrs []mem.Addr, reclaimed [][]mem.Addr) {
	t.Helper()
	rng := uint32(0x2545f491)
	next := func(n uint32) uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng % n
	}
	store := func(a mem.Addr, v mem.Addr) {
		if err := c.Store(a, mem.Word(v)); err != nil {
			t.Fatal(err)
		}
	}
	load := func(a mem.Addr) mem.Addr {
		v, err := c.Load(a)
		if err != nil {
			t.Fatal(err)
		}
		return mem.Addr(v)
	}
	collect := func() {
		c.Collect()
		// The queue's order is a map's; its contents are the check.
		batch := c.DrainReclaimed()
		slices.Sort(batch)
		reclaimed = append(reclaimed, batch)
	}
	var tails [regionChains]mem.Addr
	for i := 0; i < 8000; i++ {
		ch := next(regionChains)
		p, err := c.Allocate(2<<next(3), false)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, p)
		if tails[ch] == 0 || next(40) == 0 {
			store(regionRoots+mem.Addr(8*ch), p)
			c.RegisterFinalizable(p)
		} else {
			store(tails[ch], p)
		}
		store(regionRoots+mem.Addr(8*ch+4), p)
		tails[ch] = p
		if to := next(regionChains); next(8) == 0 && to != ch && tails[to] != 0 {
			head := load(regionRoots + mem.Addr(8*ch))
			if x := load(head); x != 0 {
				store(tails[to]+mem.WordBytes, x)
				store(head, 0)
			}
		}
		if next(997) == 0 {
			collect()
		}
	}
	collect()
	return addrs, reclaimed
}

// TestRegionBattery: a World.Run region is the per-call path. In every
// mode the program runs call by call and inside one Run, and the two
// give the same addresses, the same collections, the same reclaimed
// objects and the same final heap, with the closure oracle at every
// close. The beside-handle row runs the program in a region while a
// second goroutine's handle allocates rooted objects: its fast path
// goes on beside the region, the region's collections park it, and its
// slow paths wait for the region to end.
func TestRegionBattery(t *testing.T) {
	for _, mode := range Modes {
		cfg := mode.Apply(Config{GCDivisor: 4, InitialHeapBytes: 64 << 10})
		t.Run(mode.Name+"/calls-vs-region", func(t *testing.T) {
			type run struct {
				addrs     []mem.Addr
				stats     []CollectionStats
				reclaimed [][]mem.Addr
				w         *World
			}
			play := func(inRegion bool) (r run) {
				r.w = newWorld(t, cfg)
				addData(t, r.w, "data", regionRoots, 4096)
				installClosureOracle(t, r.w, func(st CollectionStats) { r.stats = append(r.stats, st) })
				if !inRegion {
					r.addrs, r.reclaimed = regionProgram(t, r.w)
				} else if err := r.w.Run(func(rg *Region) error {
					r.addrs, r.reclaimed = regionProgram(t, rg)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if err := r.w.VerifyIntegrity(); err != nil {
					t.Fatalf("region=%v: %v", inRegion, err)
				}
				return r
			}
			calls, region := play(false), play(true)
			if !slices.Equal(calls.addrs, region.addrs) {
				t.Fatal("allocation addresses differ")
			}
			if len(calls.stats) < 8 || len(calls.stats) != len(region.stats) {
				t.Fatalf("%d collections call by call, %d in the region; want the same, at least 8", len(calls.stats), len(region.stats))
			}
			for i := range calls.stats {
				a, b := calls.stats[i], region.stats[i]
				normalizeTimes(&a, &b)
				if a != b {
					t.Fatalf("collection %d:\ncalls  %+v\nregion %+v", i, a, b)
				}
			}
			if !slices.EqualFunc(calls.reclaimed, region.reclaimed, slices.Equal) || len(slices.Concat(calls.reclaimed...)) == 0 {
				t.Fatalf("reclaimed call by call %v, in the region %v; want the same, not empty", calls.reclaimed, region.reclaimed)
			}
			if a, b := calls.w.Heap.Stats(), region.w.Heap.Stats(); a != b {
				t.Fatalf("final heap stats:\ncalls  %+v\nregion %+v", a, b)
			}
			if !maps.Equal(liveSet(calls.w), liveSet(region.w)) {
				t.Fatal("final heaps hold different objects")
			}
		})
		t.Run(mode.Name+"/beside-handle", func(t *testing.T) {
			w := newWorld(t, cfg)
			addData(t, w, "data", regionRoots, 4096)
			const handleRoots, slots = mem.Addr(0x3000), 1024
			hseg := addData(t, w, "handle", handleRoots, 4*slots)
			installClosureOracle(t, w, nil)
			// The handle's first allocation carves its cache; from then on
			// its goroutine allocates beside the region.
			m := w.NewMutator()
			kept := make([]mem.Addr, slots)
			p, err := m.AllocateRooted(hseg, handleRoots, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			kept[0] = p
			done := make(chan struct{})
			defer func() { <-done }() // also when the region's program fails
			go func() {
				defer close(done)
				for i := 1; i < 4000; i++ {
					p, err := m.AllocateRooted(hseg, handleRoots+mem.Addr(4*(i%slots)), 4, false)
					if err != nil {
						t.Error(err)
						return
					}
					kept[i%slots] = p
				}
			}()
			var collections int
			if err := w.Run(func(r *Region) error {
				regionProgram(t, r)
				collections = r.w.collections
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			<-done
			if collections < 8 {
				t.Fatalf("%d collections in the region, want at least 8", collections)
			}
			w.Collect()
			w.FinishSweep()
			for i, p := range kept {
				if p != 0 && !w.Heap.IsAllocated(p) {
					t.Fatalf("the handle's object %#x, rooted in slot %d, was freed", uint32(p), i)
				}
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegionAfterRunPanics: Run clears its Region when fn returns, so a
// Region kept past its Run panics at its next call rather than touching
// the world without the lock.
func TestRegionAfterRunPanics(t *testing.T) {
	w := newWorld(t, Config{})
	addData(t, w, "data", regionRoots, 4096)
	var stale *Region
	if err := w.Run(func(r *Region) error { stale = r; return nil }); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){
		"Allocate":            func() { stale.Allocate(2, false) },
		"AllocateTyped":       func() { stale.AllocateTyped(0) },
		"Store":               func() { stale.Store(regionRoots, 0) },
		"Load":                func() { stale.Load(regionRoots) },
		"Collect":             func() { stale.Collect() },
		"RegisterFinalizable": func() { stale.RegisterFinalizable(0) },
		"DrainReclaimed":      func() { stale.DrainReclaimed() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Region.%s after its Run returned did not panic", name)
				}
			}()
			call()
		}()
	}
	// The world is unlocked and usable.
	if _, err := w.Allocate(2, false); err != nil {
		t.Fatal(err)
	}
}
