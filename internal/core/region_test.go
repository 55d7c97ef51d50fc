package core

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
)

// worldCalls is what the region battery's programs call: the world call
// by call, or one Region for the whole run.
type worldCalls interface {
	Allocate(nwords int, atomic bool) (mem.Addr, error)
	AllocateTyped(id alloc.DescID) (mem.Addr, error)
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

// regionEdges is a scripted program for the edges of a region's caches.
// Before each step it leaves carves outstanding in several classes
// (tails: a plain 2-word object, then a 4-word atomic one between two
// plain ones of its class), then takes the step: a typed allocation, an
// explicit collection, and large rooted allocations until the heap
// grows. It ends with tails outstanding. Between steps, probe(step)
// sees the state the step starts from.
func regionEdges(t *testing.T, w *World, c worldCalls, id alloc.DescID, probe func(step string)) (addrs []mem.Addr, reclaimed [][]mem.Addr) {
	t.Helper()
	ring := 0 // the next root slot: a ring over the root segment
	root := func(p mem.Addr) {
		if err := c.Store(regionRoots+mem.Addr(4*(ring%1000)), mem.Word(p)); err != nil {
			t.Fatal(err)
		}
		ring++
	}
	allocate := func(nwords int, atomic bool) mem.Addr {
		p, err := c.Allocate(nwords, atomic)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, p)
		return p
	}
	tails := func() {
		root(allocate(2, false))
		for _, atomic := range []bool{false, true, false} {
			root(allocate(4, atomic))
		}
	}
	// big chains the large objects, so that the heap must grow for them.
	const bigRoot = regionRoots + 4*1000
	for round := 0; round < 40; round++ {
		tails()
		probe("typed")
		p, err := c.AllocateTyped(id)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, p)
		c.RegisterFinalizable(p)
		if round%2 == 0 {
			root(p)
		}
		tails()
		probe("collect")
		c.Collect()
		batch := c.DrainReclaimed()
		slices.Sort(batch)
		reclaimed = append(reclaimed, batch)
		if round%8 == 0 {
			tails()
			probe("expansion")
			for e := w.Heap.Stats().Expansions; w.Heap.Stats().Expansions == e; {
				big := allocate(2*alloc.MaxSmallWords, false)
				prev, err := c.Load(bigRoot)
				if err == nil {
					err = c.Store(big, prev)
				}
				if err == nil {
					err = c.Store(bigRoot, mem.Word(big))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tails()
	allocate(8, false)
	probe("end")
	return addrs, reclaimed
}

// TestRegionBattery: a World.Run region is the per-call path. In every
// mode each program runs call by call and inside one Run, and the two
// give the same addresses, the same collections, the same reclaimed
// objects and the same final heap, with the closure oracle at every
// close and the heap's integrity audit after the Run. regionProgram is
// a random program of linked chains; regionEdges steps to each point
// where a region's caches hold carves: an atomic allocation between
// plain ones of its class, a typed allocation, a collection and a heap
// expansion, each with tails outstanding in several classes, and the
// end of the Run. The beside-handle row runs the program in a region
// while a second goroutine's handle allocates rooted objects: its fast
// path goes on beside the region, the region's collections park it, and
// its slow paths wait for the region to end.
func TestRegionBattery(t *testing.T) {
	for _, mode := range Modes {
		cfg := mode.Apply(Config{GCDivisor: 4, InitialHeapBytes: 64 << 10})
		t.Run(mode.Name+"/calls-vs-region", func(t *testing.T) {
			sameInRegion(t, cfg, 8, func(w *World, c worldCalls, _ alloc.DescID, _ func(string)) ([]mem.Addr, [][]mem.Addr) {
				return regionProgram(t, c)
			})
		})
		t.Run(mode.Name+"/edges", func(t *testing.T) {
			sameInRegion(t, cfg, 40, func(w *World, c worldCalls, id alloc.DescID, probe func(string)) ([]mem.Addr, [][]mem.Addr) {
				return regionEdges(t, w, c, id, probe)
			})
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
			if err := w.Heap.CheckIntegrity(nil); err != nil {
				t.Fatal(err)
			}
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

// sameInRegion runs program call by call and inside one Run on two
// worlds of cfg and requires the same addresses, at least minCycles
// collections with the same statistics, the same reclaimed objects and
// the same final heap. In the region, probe requires carves outstanding
// in at least two classes.
func sameInRegion(t *testing.T, cfg Config, minCycles int, program func(w *World, c worldCalls, id alloc.DescID, probe func(step string)) ([]mem.Addr, [][]mem.Addr)) {
	t.Helper()
	type run struct {
		addrs     []mem.Addr
		stats     []CollectionStats
		reclaimed [][]mem.Addr
		w         *World
	}
	play := func(inRegion bool) (r run) {
		r.w = newWorld(t, cfg)
		addData(t, r.w, "data", regionRoots, 4096)
		id, err := r.w.RegisterLayout([]bool{true, false, true})
		if err != nil {
			t.Fatal(err)
		}
		installClosureOracle(t, r.w, func(st CollectionStats) { r.stats = append(r.stats, st) })
		if !inRegion {
			r.addrs, r.reclaimed = program(r.w, r.w, id, func(string) {})
		} else if err := r.w.Run(func(rg *Region) error {
			r.addrs, r.reclaimed = program(r.w, rg, id, func(step string) {
				if n := bits.OnesCount64(rg.warm); n < 2 {
					t.Fatalf("before the %s step the region holds carves in %d classes, want at least 2", step, n)
				}
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := r.w.Heap.CheckIntegrity(nil); err != nil {
			t.Fatalf("region=%v: %v", inRegion, err)
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
	if len(calls.stats) < minCycles || len(calls.stats) != len(region.stats) {
		t.Fatalf("%d collections call by call, %d in the region; want the same, at least %d", len(calls.stats), len(region.stats), minCycles)
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

// TestRegionRefillsCarveWholeHoles: a region's refill carves its
// class's whole next hole, not one slot, and counts it in cache_refills
// and cache_refill_slots as a handle's refill does. 2 000 two-word
// allocations in one Run must take at least eight slots per refill; a
// refill of one slot per carve takes one.
func TestRegionRefillsCarveWholeHoles(t *testing.T) {
	w := newWorld(t, Config{})
	if err := w.Run(func(r *Region) error {
		for i := 0; i < 2000; i++ {
			if _, err := r.Allocate(2, false); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	refills, slots := w.met.cacheRefills.Load(), w.met.cacheRefillSlots.Load()
	if refills == 0 || slots < 8*refills {
		t.Fatalf("%d refills carved %d slots, want at least one refill and 8 slots per refill", refills, slots)
	}
}

// TestRegionStoreMatchesWorldStore: a region's store, whose hit path
// writes the heap's words without a call, returns what World.Store
// returns — the same error text, or nil — and leaves the same word
// behind, on a twin world, at every kind of address and in every mode.
func TestRegionStoreMatchesWorldStore(t *testing.T) {
	const readOnlyBase = mem.Addr(0x6000)
	for _, c := range []struct {
		name string
		addr func(w *World, obj mem.Addr) mem.Addr
		// readOnlyHeap write-protects the heap's segment for the store.
		readOnlyHeap bool
		// want is what the error says, "" for none.
		want string
	}{
		{"committed heap word", func(_ *World, obj mem.Addr) mem.Addr { return obj + mem.WordBytes }, false, ""},
		{"unaligned heap address", func(_ *World, obj mem.Addr) mem.Addr { return obj + 1 }, false, "bad store"},
		{"reserved uncommitted heap", func(w *World, _ mem.Addr) mem.Addr { return w.Heap.Limit() + mem.PageBytes }, false, "bad store"},
		{"root data word", func(*World, mem.Addr) mem.Addr { return regionRoots + 8 }, false, ""},
		{"read-only segment", func(*World, mem.Addr) mem.Addr { return readOnlyBase + 4 }, false, `"rodata": store to read-only segment`},
		{"read-only heap", func(_ *World, obj mem.Addr) mem.Addr { return obj }, true, `"heap": store to read-only segment`},
		{"unmapped address", func(*World, mem.Addr) mem.Addr { return 0x100 }, false, "store to unmapped address"},
	} {
		for _, mode := range Modes {
			t.Run(mode.Name+"/"+c.name, func(t *testing.T) {
				twin := func() (*World, mem.Addr) {
					w := newWorld(t, mode.Apply(Config{InitialHeapBytes: 64 << 10}))
					addData(t, w, "data", regionRoots, 4096)
					addData(t, w, "rodata", readOnlyBase, 64).SetWritable(false)
					obj, err := w.Allocate(4, false)
					if err != nil {
						t.Fatal(err)
					}
					w.Heap.Seg().SetWritable(!c.readOnlyHeap)
					return w, obj
				}
				calls, obj := twin()
				region, obj2 := twin()
				a := c.addr(calls, obj)
				if obj2 != obj || c.addr(region, obj2) != a {
					t.Fatalf("twin worlds differ: objects %#x and %#x", uint32(obj), uint32(obj2))
				}
				const v = mem.Word(0x5EED)
				errCalls := calls.Store(a, v)
				var errRegion error
				if err := region.Run(func(r *Region) error { errRegion = r.Store(a, v); return nil }); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(errCalls) != fmt.Sprint(errRegion) {
					t.Fatalf("store at %#x: World.Store %v, Region.Store %v", uint32(a), errCalls, errRegion)
				}
				if (c.want == "") != (errCalls == nil) || errCalls != nil && !strings.Contains(errCalls.Error(), c.want) {
					t.Fatalf("store at %#x: %v, want %q", uint32(a), errCalls, c.want)
				}
				back := mem.AlignWordDown(a)
				vc, errc := calls.Load(back)
				vr, errr := region.Load(back)
				if vc != vr || fmt.Sprint(errc) != fmt.Sprint(errr) {
					t.Fatalf("word at %#x reads %#x (%v) after World.Store, %#x (%v) after Region.Store",
						uint32(back), uint32(vc), errc, uint32(vr), errr)
				}
			})
		}
	}
}
