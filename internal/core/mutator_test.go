package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// gcDriver abstracts the two ways to drive a world — the direct World
// entry points and a Mutator handle — so one deterministic script can
// be replayed through both and compared bit for bit.
type gcDriver interface {
	Allocate(nwords int, atomic bool) (mem.Addr, error)
	Store(a mem.Addr, v mem.Word) error
	Free(base mem.Addr) error
	Collect() CollectionStats
}

type directDriver struct{ w *World }

func (d directDriver) Allocate(nwords int, atomic bool) (mem.Addr, error) {
	return d.w.Allocate(nwords, atomic)
}
func (d directDriver) Store(a mem.Addr, v mem.Word) error { return d.w.Store(a, v) }
func (d directDriver) Free(base mem.Addr) error           { return d.w.Heap.Free(base) }
func (d directDriver) Collect() CollectionStats           { return d.w.Collect() }

// mutatorScript drives one deterministic allocation history: mixed
// small/large sizes, atomic objects, data-segment roots, heap links
// into rooted (live) objects, explicit frees of rooted objects, and
// periodic explicit collections. Automatic triggers fire along the way
// per the world's config. Returns every allocated address in order.
func mutatorScript(t *testing.T, d gcDriver) []mem.Addr {
	t.Helper()
	const dataBase = mem.Addr(0x2000)
	const rootSlots = 64
	var roots [rootSlots]mem.Addr
	sizes := []int{1, 2, 3, 5, 8, 12, 17, 32, 64, 100, 130, 256, 520, 600}
	var addrs []mem.Addr
	rng := uint32(0x9e3779b9)
	next := func(n uint32) uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng % n
	}
	for i := 0; i < 2500; i++ {
		size := sizes[next(uint32(len(sizes)))]
		atomic := next(7) == 0
		p, err := d.Allocate(size, atomic)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, p)
		switch next(5) {
		case 0:
			// Root it in static data (pointer-free objects too: the
			// conservative marker must handle both).
			slot := next(rootSlots)
			if err := d.Store(dataBase+mem.Addr(4*slot), mem.Word(p)); err != nil {
				t.Fatal(err)
			}
			if atomic {
				roots[slot] = 0 // never link into or free atomic objects
			} else {
				roots[slot] = p
			}
		case 1:
			// Link the new object from a rooted (guaranteed live) one.
			if slot := next(rootSlots); roots[slot] != 0 {
				if err := d.Store(roots[slot], mem.Word(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if next(53) == 0 {
			// Explicitly free a rooted object (rooted ⇒ still allocated),
			// clearing the root first.
			if slot := next(rootSlots); roots[slot] != 0 {
				if err := d.Store(dataBase+mem.Addr(4*slot), 0); err != nil {
					t.Fatal(err)
				}
				if err := d.Free(roots[slot]); err != nil {
					t.Fatal(err)
				}
				roots[slot] = 0
			}
		}
		if next(701) == 0 {
			d.Collect()
		}
	}
	d.Collect()
	return addrs
}

// normalizeTimes zeroes a CollectionStats pair's wall-clock fields so
// the remaining fields compare exactly.
func normalizeTimes(a, b *CollectionStats) {
	a.Duration, b.Duration = 0, 0
	a.PauseMarkNs, b.PauseMarkNs = 0, 0
	a.PauseSweepNs, b.PauseSweepNs = 0, 0
	a.PauseStopNs, b.PauseStopNs = 0, 0
	a.PauseReconcileNs, b.PauseReconcileNs = 0, 0
	a.PauseSnapshotNs, b.PauseSnapshotNs = 0, 0
	a.PauseFinalNs, b.PauseFinalNs = 0, 0
	a.ConcPhaseNs, b.ConcPhaseNs = 0, 0
}

// TestMutatorDifferential proves the tentpole's compatibility claim: a
// single Mutator handle produces allocation addresses, collection
// statistics, and final heap state bit-identical to the direct
// World.Allocate path, in every collector mode. Batched carves hand
// out the same slots in the same order, safepoint flushes restore free
// lists exactly, and the handle's trigger mirror diverts to the slow
// path at precisely the allocations where the direct path collects.
func TestMutatorDifferential(t *testing.T) {
	configs := map[string]Config{
		"full":         {GCDivisor: 4},
		"generational": {Generational: true, MinorDivisor: 6, FullEvery: 3, GCDivisor: 4},
		"parallel":     {GCDivisor: 4, MarkWorkers: 4},
		"lazy":         {GCDivisor: 4, LazySweep: true},
		"gen-lazy":     {Generational: true, MinorDivisor: 6, FullEvery: 3, LazySweep: true},
		"par-lazy":     {GCDivisor: 4, MarkWorkers: 4, LazySweep: true},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			run := func(useHandle bool) ([]mem.Addr, []CollectionStats, *World) {
				w := newWorld(t, cfg)
				addData(t, w, "data", 0x2000, 4096)
				var stats []CollectionStats
				w.SetCollectionHook(func(st CollectionStats) { stats = append(stats, st) })
				var d gcDriver
				if useHandle {
					d = w.NewMutator()
				} else {
					d = directDriver{w}
				}
				addrs := mutatorScript(t, d)
				return addrs, stats, w
			}
			directAddrs, directStats, dw := run(false)
			handleAddrs, handleStats, hw := run(true)

			if len(directAddrs) != len(handleAddrs) {
				t.Fatalf("allocation counts diverge: %d direct, %d handle", len(directAddrs), len(handleAddrs))
			}
			for i := range directAddrs {
				if directAddrs[i] != handleAddrs[i] {
					t.Fatalf("allocation %d diverges: %#x direct, %#x handle",
						i, uint32(directAddrs[i]), uint32(handleAddrs[i]))
				}
			}
			if len(directStats) != len(handleStats) {
				t.Fatalf("collection counts diverge: %d direct, %d handle", len(directStats), len(handleStats))
			}
			for i := range directStats {
				a, b := directStats[i], handleStats[i]
				normalizeTimes(&a, &b)
				if a != b {
					t.Fatalf("cycle %d stats diverge:\ndirect %+v\nhandle %+v", i, a, b)
				}
			}
			if got, want := hw.Collections(), dw.Collections(); got != want {
				t.Fatalf("collections diverge: %d direct, %d handle", want, got)
			}
			if ds, hs := dw.Heap.Stats(), hw.Heap.Stats(); ds != hs {
				t.Fatalf("final heap stats diverge:\ndirect %+v\nhandle %+v", ds, hs)
			}
			if err := hw.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMutatorDifferentialMachine repeats the differential with a
// simulated machine attached — registers and stack as roots, allocator
// residue frames — comparing World.SetMutator against
// Mutator.SetRootSource.
func TestMutatorDifferentialMachine(t *testing.T) {
	cfg := Config{GCDivisor: 4, AllocatorResidue: true}
	mcfg := machine.Config{StackTop: 0x80000000, StackBytes: 256 * 1024}
	run := func(useHandle bool) ([]mem.Addr, []CollectionStats) {
		w := newWorld(t, cfg)
		addData(t, w, "data", 0x2000, 4096)
		var stats []CollectionStats
		w.SetCollectionHook(func(st CollectionStats) { stats = append(stats, st) })
		var d gcDriver
		if useHandle {
			mach, err := machine.New(w.Space, mcfg)
			if err != nil {
				t.Fatal(err)
			}
			m := w.NewMutator()
			m.SetRootSource(mach)
			d = m
		} else {
			withMachine(t, w, mcfg)
			d = directDriver{w}
		}
		return mutatorScript(t, d), stats
	}
	directAddrs, directStats := run(false)
	handleAddrs, handleStats := run(true)
	if len(directAddrs) != len(handleAddrs) {
		t.Fatalf("allocation counts diverge: %d direct, %d handle", len(directAddrs), len(handleAddrs))
	}
	for i := range directAddrs {
		if directAddrs[i] != handleAddrs[i] {
			t.Fatalf("allocation %d diverges: %#x direct, %#x handle",
				i, uint32(directAddrs[i]), uint32(handleAddrs[i]))
		}
	}
	if len(directStats) != len(handleStats) {
		t.Fatalf("collection counts diverge: %d direct, %d handle", len(directStats), len(handleStats))
	}
	for i := range directStats {
		a, b := directStats[i], handleStats[i]
		normalizeTimes(&a, &b)
		if a != b {
			t.Fatalf("cycle %d stats diverge:\ndirect %+v\nhandle %+v", i, a, b)
		}
	}
}

// TestMutatorCollectZeroAllocsUntraced extends the zero-allocation
// guarantee to the safepoint protocol: an untraced collection through
// a Mutator handle — stop, cache flush, publish, mark, sweep, resume —
// performs no Go heap allocations.
func TestMutatorCollectZeroAllocsUntraced(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	m := w.NewMutator()
	data := addData(t, w, "data", 0x2000, 4096)
	for i := 0; i < 200; i++ {
		p, err := m.Allocate(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := data.Store(0x2000+mem.Addr(4*(i/2)), mem.Word(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Collect()
	m.Collect()
	w.FinishSweep()
	// Warm the cache so the warm-up run's safepoint flushes a live run;
	// later runs flush empty caches but walk the same protocol.
	if _, err := m.Allocate(3, false); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		m.Collect()
		w.FinishSweep()
	})
	if avg != 0 {
		t.Fatalf("untraced mutator Collect allocates %v times per cycle, want 0", avg)
	}
	// The cached fast path is allocation-free too: a pointer bump under
	// the handle lock. (Refill slow paths may allocate closure frames,
	// like the direct path always has.)
	if _, err := m.Allocate(2, false); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(10, func() {
		if _, err := m.Allocate(2, false); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("cached fast-path Allocate allocates %v times per call, want 0", avg)
	}
}

// TestMutatorStatsCounters sanity-checks the handle's own accounting:
// cached allocations dominate, refills batch, and safepoints flush.
func TestMutatorStatsCounters(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	m := w.NewMutator()
	for i := 0; i < 100; i++ {
		if _, err := m.Allocate(4, false); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.FastAllocs+st.SlowAllocs != 100 {
		t.Fatalf("fast %d + slow %d != 100", st.FastAllocs, st.SlowAllocs)
	}
	if st.FastAllocs < 90 {
		t.Fatalf("only %d of 100 allocations hit the cache", st.FastAllocs)
	}
	if st.Refills == 0 || st.RunSlots < st.Refills {
		t.Fatalf("refills %d / run slots %d look wrong", st.Refills, st.RunSlots)
	}
	m.Collect()
	if st = m.Stats(); st.FlushedSlots == 0 {
		t.Fatalf("safepoint flushed no slots despite a warm cache")
	}
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The central stats see exactly the objects handed out.
	if got := w.Heap.Stats().ObjectsAllocated; got != 100 {
		t.Fatalf("central ObjectsAllocated = %d, want 100", got)
	}
}
