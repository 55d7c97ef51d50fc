package core

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// worldChurn drives a world through a deterministic allocate/drop/
// collect schedule and returns every allocation address plus every
// collection's sweep result (automatic collections included, via the
// collection hook). The schedule depends only on the seed, never on
// addresses or timing, so two worlds differing only in sweep strategy
// see the identical mutator. A world that marks concurrently (with its
// trigger off) runs each explicit full collection as a concurrent cycle
// marked by its background driver alone.
func worldChurn(t *testing.T, w *World, seed uint64, typed alloc.DescID, minors bool) ([]mem.Addr, []alloc.SweepResult) {
	t.Helper()
	collect := func() {
		if w.cfg.ConcurrentMark {
			cycleOnDriver(t, w, kindConcurrent)
		} else {
			w.Collect()
		}
	}
	const nslots = 64
	data, err := w.Space.MapNew("roots", mem.KindData, 0x2000, nslots*mem.WordBytes, nslots*mem.WordBytes)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(seed)
	var addrs []mem.Addr
	var sweeps []alloc.SweepResult
	w.SetCollectionHook(func(st CollectionStats) { sweeps = append(sweeps, st.Sweep) })
	defer w.SetCollectionHook(nil)
	for step := 0; step < 2500; step++ {
		switch {
		case rng.Bool(0.72): // allocate and root it
			var p mem.Addr
			if typed >= 0 && rng.Bool(0.3) {
				p, err = w.AllocateTyped(typed)
			} else {
				p, err = w.Allocate(1+rng.Intn(60), rng.Bool(0.2))
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			addrs = append(addrs, p)
			slot := data.Base() + mem.Addr(mem.WordBytes*rng.Intn(nslots))
			if err := data.Store(slot, mem.Word(p)); err != nil {
				t.Fatal(err)
			}
		case rng.Bool(0.5): // drop a root
			slot := data.Base() + mem.Addr(mem.WordBytes*rng.Intn(nslots))
			if err := data.Store(slot, 0); err != nil {
				t.Fatal(err)
			}
		case minors && rng.Bool(0.6):
			w.CollectMinor()
		default:
			collect()
		}
	}
	collect()
	w.FinishSweep()
	return addrs, sweeps
}

// TestCoreLazySweepDifferential is the acceptance criterion at the
// World level: identical mutator schedules against an eager and a lazy
// world produce equal allocation addresses, equal per-collection sweep
// results (freed/live/released totals), and equal final heap
// statistics — across full cycles, generational minor cycles, and
// concurrent cycles ("parallel", named for the detached workers it once
// ran on; ConcMarkWorkers 4 now selects nothing).
func TestCoreLazySweepDifferential(t *testing.T) {
	variants := []struct {
		name   string
		cfg    Config
		minors bool
	}{
		{"full", Config{}, false},
		{"generational", Config{Generational: true}, true},
		{"parallel", Config{ConcurrentMark: true, ConcMarkWorkers: 4, GCDivisor: -1}, false},
	}
	mask := []bool{true, false, false, true, false}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			lazyCfg := v.cfg
			lazyCfg.LazySweep = true
			we := newWorld(t, v.cfg)
			wl := newWorld(t, lazyCfg)
			te, err := we.RegisterLayout(mask)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := wl.RegisterLayout(mask)
			if err != nil {
				t.Fatal(err)
			}
			if te != tl {
				t.Fatalf("descriptor ids diverge: %d vs %d", te, tl)
			}
			ae, se := worldChurn(t, we, 42, te, v.minors)
			al, sl := worldChurn(t, wl, 42, tl, v.minors)
			if len(ae) != len(al) {
				t.Fatalf("allocation counts diverge: %d vs %d", len(ae), len(al))
			}
			for i := range ae {
				if ae[i] != al[i] {
					t.Fatalf("allocation %d diverges: eager %#x lazy %#x", i, ae[i], al[i])
				}
			}
			if len(se) != len(sl) {
				t.Fatalf("collection counts diverge: %d vs %d", len(se), len(sl))
			}
			for i := range se {
				if se[i] != sl[i] {
					t.Fatalf("sweep %d diverges:\neager %+v\nlazy  %+v", i, se[i], sl[i])
				}
			}
			if n := wl.Heap.SweepPending(); n != 0 {
				t.Fatalf("%d blocks still pending after FinishSweep", n)
			}
			ste, stl := we.Heap.Stats(), wl.Heap.Stats()
			stl.LazySweptBlocks = 0 // the one stat allowed to differ
			if ste != stl {
				t.Fatalf("final stats diverge:\neager %+v\nlazy  %+v", ste, stl)
			}
		})
	}
}

// TestLazySweepDeferredBlocksReported checks the pause-phase sweep
// statistics: a lazy collection over a mixed heap reports deferred
// blocks, an eager one never does — it sweeps every mixed block inside
// the barrier, so none is left pending and none is swept later.
func TestLazySweepDeferredBlocksReported(t *testing.T) {
	for _, lazy := range []bool{true, false} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Config{LazySweep: lazy})
			data := addData(t, w, "roots", 0x2000, 4096)
			for i := 0; i < 200; i++ {
				p, err := w.Allocate(4, false)
				if err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 { // keep a scattering live so blocks are mixed
					data.Store(0x2000+mem.Addr(4*(i%64)), mem.Word(p))
				}
			}
			st := w.Collect()
			if !lazy {
				if st.SweepDeferredBlocks != 0 || w.Heap.SweepPending() != 0 || w.Heap.Stats().LazySweptBlocks != 0 {
					t.Fatalf("eager collection deferred %d blocks (pending %d, lazily swept %d)",
						st.SweepDeferredBlocks, w.Heap.SweepPending(), w.Heap.Stats().LazySweptBlocks)
				}
				return
			}
			if st.SweepDeferredBlocks == 0 {
				t.Fatal("lazy collection deferred no blocks over a mixed heap")
			}
			if n := w.FinishSweep(); n != st.SweepDeferredBlocks {
				t.Fatalf("FinishSweep swept %d blocks, stats said %d deferred", n, st.SweepDeferredBlocks)
			}
			st = w.Collect()
			if got := w.Heap.SweepPending(); got != st.SweepDeferredBlocks {
				t.Fatalf("SweepPending %d != reported %d", got, st.SweepDeferredBlocks)
			}
		})
	}
}
