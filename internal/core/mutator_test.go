package core

import (
	"testing"

	"repro/internal/alloc"
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

// concurrentDriver is d with every explicit collection a concurrent
// cycle stepped to its end on the caller (cycleByStep). Nothing runs
// beside the cycle, so what it finds is as fixed as a stop-the-world
// collection's; the world's trigger must be off (GCDivisor -1), or
// cycles would open inside allocations of the script and be marked by
// their assists instead.
type concurrentDriver struct {
	gcDriver
	t *testing.T
	w *World
}

func (d concurrentDriver) Collect() CollectionStats { return cycleByStep(d.t, d.w, kindConcurrent) }

// collectingConcurrently wraps d in a concurrentDriver when w marks
// concurrently.
func collectingConcurrently(t *testing.T, w *World, d gcDriver) gcDriver {
	if w.cfg.ConcurrentMark {
		return concurrentDriver{d, t, w}
	}
	return d
}

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

// countingDriver counts the allocations a script has started, so that
// a collection hook can tell where in the script each collection ran.
type countingDriver struct {
	gcDriver
	n *int
}

func (d countingDriver) Allocate(nwords int, atomic bool) (mem.Addr, error) {
	*d.n++
	return d.gcDriver.Allocate(nwords, atomic)
}

// scriptRun is one replay of a script through one driver: the
// addresses it was handed, each collection's statistics with the
// number of allocations the script had started when it ran, and the
// world.
type scriptRun struct {
	addrs []mem.Addr
	stats []CollectionStats
	at    []int
	w     *World
}

// replay runs script on w through d.
func replay(t *testing.T, w *World, d gcDriver, script func(*testing.T, gcDriver) []mem.Addr) scriptRun {
	t.Helper()
	r := &scriptRun{w: w}
	n := 0
	w.SetCollectionHook(func(st CollectionStats) {
		r.stats = append(r.stats, st)
		r.at = append(r.at, n)
	})
	r.addrs = script(t, countingDriver{d, &n})
	return *r
}

// findings is what a collection found: the objects it marked, and the
// objects and bytes its sweep kept and freed.
type findings struct {
	Marked, Live, LiveBytes, Freed, FreedBytes uint64
}

func findingsOf(st CollectionStats) findings {
	return findings{st.Mark.ObjectsMarked, st.Sweep.ObjectsLive, st.Sweep.BytesLive, st.Sweep.ObjectsFreed, st.Sweep.BytesFreed}
}

// sameCollections is the contract a Mutator handle keeps with the
// direct World path. Up to the first collection the two hand out the
// same addresses. From it on the handle's caches keep the slots they
// hold — marked at every mark step, where the direct path's sweep
// threads the same slots back onto its free lists — so addresses part
// ways, and with them whatever placement decides: the blocks a sweep
// keeps and releases (BlocksKept, BlocksReleased), the blocks a lazy
// sweep defers, and the words a minor cycle rescans on its dirty
// blocks. What does not move is what the collections found: the same
// collections, at the same allocations, marking the same number of
// objects and keeping and freeing the same objects and bytes; and the
// heap's allocation and live totals at the end.
func sameCollections(t *testing.T, label string, direct, handle scriptRun) {
	t.Helper()
	if len(direct.addrs) != len(handle.addrs) {
		t.Fatalf("%s: allocation counts diverge: %d direct, %d handle", label, len(direct.addrs), len(handle.addrs))
	}
	if len(direct.stats) == 0 || len(direct.stats) != len(handle.stats) {
		t.Fatalf("%s: collection counts diverge: %d direct, %d handle", label, len(direct.stats), len(handle.stats))
	}
	// The allocation that triggered the first collection, if one did, is
	// the first that may be placed differently.
	for i := 0; i < direct.at[0]-1; i++ {
		if direct.addrs[i] != handle.addrs[i] {
			t.Fatalf("%s: allocation %d, before the first collection, diverges: %#x direct, %#x handle",
				label, i, uint32(direct.addrs[i]), uint32(handle.addrs[i]))
		}
	}
	for i := range direct.stats {
		if direct.at[i] != handle.at[i] {
			t.Fatalf("%s: collection %d ran at allocation %d direct, %d handle", label, i, direct.at[i], handle.at[i])
		}
		if a, b := findingsOf(direct.stats[i]), findingsOf(handle.stats[i]); a != b {
			t.Fatalf("%s: collection %d found\ndirect %+v\nhandle %+v", label, i, a, b)
		}
	}
	ds, hs := direct.w.Heap.Stats(), handle.w.Heap.Stats()
	if ds.ObjectsAllocated != hs.ObjectsAllocated || ds.BytesAllocated != hs.BytesAllocated ||
		ds.ObjectsLive != hs.ObjectsLive || ds.BytesLive != hs.BytesLive {
		t.Fatalf("%s: final heap totals diverge:\ndirect %+v\nhandle %+v", label, ds, hs)
	}
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

// TestMutatorDifferential proves the handle's compatibility claim: a
// single Mutator handle keeps sameCollections' contract with the direct
// World.Allocate path in every collector mode. Batched carves hand out
// the same slots in the same order, the handle's trigger mirror diverts
// to the slow path at precisely the allocations where the direct path
// collects, and the slots its caches hold across a collection are kept
// by the sweep and left out of what it reports.
func TestMutatorDifferential(t *testing.T) {
	configs := map[string]Config{
		"full":         {GCDivisor: 4},
		"generational": {Generational: true, MinorDivisor: 6, FullEvery: 3, GCDivisor: 4},
		"lazy":         {GCDivisor: 4, LazySweep: true},
		"gen-lazy":     {Generational: true, MinorDivisor: 6, FullEvery: 3, LazySweep: true},
		// Explicit collections as concurrent cycles, the handle's caches
		// marked at each snapshot; exhausted allocations still collect
		// stop-the-world. (The names are those of the detached workers
		// these rows once ran on; ConcMarkWorkers 4 now selects nothing.)
		"parallel": {ConcurrentMark: true, ConcMarkWorkers: 4, GCDivisor: -1},
		"par-lazy": {ConcurrentMark: true, ConcMarkWorkers: 4, GCDivisor: -1, LazySweep: true},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			run := func(useHandle bool) scriptRun {
				w := newWorld(t, cfg)
				addData(t, w, "data", 0x2000, 4096)
				var d gcDriver = directDriver{w}
				if useHandle {
					d = w.NewMutator()
				}
				return replay(t, w, collectingConcurrently(t, w, d), mutatorScript)
			}
			direct, handle := run(false), run(true)
			sameCollections(t, "direct-vs-handle", direct, handle)
			if err := handle.w.VerifyIntegrity(); err != nil {
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
	run := func(useHandle bool) scriptRun {
		w := newWorld(t, cfg)
		addData(t, w, "data", 0x2000, 4096)
		var d gcDriver = directDriver{w}
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
		}
		return replay(t, w, d, mutatorScript)
	}
	sameCollections(t, "direct-vs-handle", run(false), run(true))
}

// TestMutatorCollectZeroAllocsUntraced extends the zero-allocation
// guarantee to the safepoint protocol: an untraced collection through
// a Mutator handle — park, publish, mark the held cache, mark, sweep,
// settle the held cache, resume — performs no Go heap allocations.
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
	// Warm the cache: every run then marks and settles the run it holds.
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
// cached allocations dominate, refills batch, a collection keeps the
// cache (flushes nothing, and the next allocation is a fast path), and
// an explicit flush — Free — counts what it returns.
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
	class, _ := alloc.ClassFor(4)
	held := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return m.caches[class].held()
	}
	if held() == 0 {
		t.Fatal("the workload left the cache empty")
	}
	m.Collect()
	if st = m.Stats(); st.FlushedSlots != 0 {
		t.Fatalf("a collection flushed %d slots", st.FlushedSlots)
	}
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The central stats see exactly the objects handed out.
	if got := w.Heap.Stats().ObjectsAllocated; got != 100 {
		t.Fatalf("central ObjectsAllocated = %d, want 100", got)
	}
	p, err := m.Allocate(4, false)
	if err != nil {
		t.Fatal(err)
	}
	if after := m.Stats(); after.FastAllocs != st.FastAllocs+1 || after.SlowAllocs != st.SlowAllocs {
		t.Fatalf("the allocation after a collection took the slow path: %+v then %+v", st, after)
	}
	rest := held()
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if st = m.Stats(); st.FlushedSlots != uint64(rest) {
		t.Fatalf("Free flushed %d slots, the cache held %d", st.FlushedSlots, rest)
	}
}

// TestRootSourceAccessorsRace reads World.RootSource and
// Mutator.RootSource on one goroutine while another attaches and
// detaches root sources through SetMutator and SetRootSource: the
// getters take the locks the setters write under, so the race detector
// (make race runs this among the concurrent batteries) finds nothing,
// and every read is one of the values written.
func TestRootSourceAccessorsRace(t *testing.T) {
	w := newWorld(t, Config{})
	m := w.NewMutator()
	src := &rootHolder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			var s RootSource
			if i%2 == 0 {
				s = src
			}
			w.SetMutator(s)
			m.SetRootSource(s)
		}
	}()
	for i := 0; i < 2000; i++ {
		for _, got := range []RootSource{w.RootSource(), m.RootSource()} {
			if got != nil && got != RootSource(src) {
				t.Fatalf("read %v, which no setter wrote", got)
			}
		}
	}
	<-done
}
