package core

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
)

// Tests for Config.ConcurrentMark: the mostly-concurrent cycle must
// reclaim exactly what a stop-the-world collection reclaims on a
// quiesced heap, must never lose an object to the classic
// hide-behind-black race (the insertion barrier's whole job; the battery
// is in lostobject_test.go), and must do almost all of its marking
// outside the pauses. Every cycle these tests run is also checked by
// the closure oracle (closure_test.go).

// concBuildGraph runs a deterministic quiesced workload: allocations
// rooted in a data segment, links between live objects, explicit frees
// and abandoned (garbage) objects — no collections. Identical worlds
// replaying it end in identical heaps, so a concurrent cycle on one
// and a STW collection on the other are directly comparable.
func concBuildGraph(t *testing.T, d gcDriver) int {
	t.Helper()
	const dataBase = mem.Addr(0x2000)
	const rootSlots = 48
	var roots [rootSlots]mem.Addr
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 600}
	rng := uint32(0xc0ffee11)
	next := func(n uint32) uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng % n
	}
	allocs := 0
	for i := 0; i < 900; i++ {
		size := sizes[next(uint32(len(sizes)))]
		atomic := next(6) == 0
		p, err := d.Allocate(size, atomic)
		if err != nil {
			t.Fatal(err)
		}
		allocs++
		switch next(4) {
		case 0, 1:
			slot := next(rootSlots)
			if err := d.Store(dataBase+mem.Addr(4*slot), mem.Word(p)); err != nil {
				t.Fatal(err)
			}
			if atomic {
				roots[slot] = 0
			} else {
				roots[slot] = p
			}
		case 2:
			if slot := next(rootSlots); roots[slot] != 0 {
				if err := d.Store(roots[slot], mem.Word(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if next(31) == 0 {
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
	}
	return allocs
}

// liveSet returns every allocated base address (after FinishSweep, the
// surviving objects).
func liveSet(w *World) map[mem.Addr]bool {
	out := make(map[mem.Addr]bool)
	w.Heap.ForEachObject(func(base mem.Addr) { out[base] = true })
	return out
}

// TestConcurrentMarkDifferential is the tentpole's correctness claim:
// on a quiesced world (no mutation between snapshot and finale) a
// concurrent cycle — snapshot, bounded background chunks, bounded
// finale — marks and sweeps exactly what a stop-the-world collection
// does, across the collector modes the concurrent cycle composes with.
// Scan-volume fields legitimately differ (the finale re-scans roots),
// so the comparison is marking outcome and reclamation, not effort.
func TestConcurrentMarkDifferential(t *testing.T) {
	// Every trigger is disabled (MinorDivisor defaults on in
	// generational mode): a mid-build automatic cycle would overlap the
	// build's own allocations and legitimately diverge the two heaps.
	configs := map[string]Config{
		"full":      {GCDivisor: -1},
		"gen":       {Generational: true, GCDivisor: -1, MinorDivisor: -1},
		"lazy":      {GCDivisor: -1, LazySweep: true},
		"gen-lazy":  {Generational: true, GCDivisor: -1, MinorDivisor: -1, LazySweep: true},
		"line":      {GCDivisor: -1, LineAlloc: true},
		"line-lazy": {GCDivisor: -1, LineAlloc: true, LazySweep: true},
		// The concurrent side configured with ConcMarkWorkers 4, which
		// once detached it onto four workers and must now select nothing.
		"par": {GCDivisor: -1, ConcMarkWorkers: 4},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			run := func(concurrent bool) (CollectionStats, map[mem.Addr]bool, int) {
				c := cfg
				c.ConcurrentMark = concurrent
				w := newWorld(t, c)
				addData(t, w, "data", 0x2000, 4096)
				allocs := concBuildGraph(t, directDriver{w})
				var st CollectionStats
				if concurrent {
					installClosureOracle(t, w, nil)
					if err := w.StartConcurrentCycle(); err != nil {
						t.Fatal(err)
					}
					steps := 0
					for !w.ConcurrentStep(16) {
						steps++
						if steps > 1_000_000 {
							t.Fatal("concurrent cycle did not terminate")
						}
					}
					// The cycle marks only in steps.
					if steps == 0 {
						t.Fatal("cycle finished without any background chunk")
					}
					st = w.LastCollection()
				} else {
					st = w.Collect()
				}
				w.FinishSweep()
				return st, liveSet(w), allocs
			}
			stw, stwLive, stwAllocs := run(false)
			conc, concLive, concAllocs := run(true)
			if stwAllocs != concAllocs {
				t.Fatalf("setup diverged: %d vs %d allocations", stwAllocs, concAllocs)
			}
			if !conc.Concurrent {
				t.Fatal("concurrent cycle's stats not flagged Concurrent")
			}
			if conc.Mark.ObjectsMarked != stw.Mark.ObjectsMarked ||
				conc.Mark.BytesMarked != stw.Mark.BytesMarked {
				t.Fatalf("mark outcome diverges: concurrent %d objects/%d bytes, stw %d/%d",
					conc.Mark.ObjectsMarked, conc.Mark.BytesMarked,
					stw.Mark.ObjectsMarked, stw.Mark.BytesMarked)
			}
			if conc.Sweep != stw.Sweep {
				t.Fatalf("sweep diverges:\nconcurrent %+v\nstw        %+v", conc.Sweep, stw.Sweep)
			}
			if len(concLive) != len(stwLive) {
				t.Fatalf("live sets diverge: %d vs %d objects", len(concLive), len(stwLive))
			}
			for a := range stwLive {
				if !concLive[a] {
					t.Fatalf("object %#x live after STW, missing after concurrent cycle", uint32(a))
				}
			}
		})
	}
}

// TestConcurrentMarkMinorDifferential is the generational variant: a
// concurrent minor cycle — the remembered set staged at the snapshot,
// drained in the background, finished in a bounded pause — promotes
// and reclaims exactly what a stop-the-world minor does on a quiesced
// world. Both worlds first run an identical STW full collection (the
// old generation), then the same mutation epoch, then the minor under
// comparison. The concurrent minor runs twice: stepped to its end, and
// forced to its finale straight after the snapshot, with its whole
// remembered set still staged — the finale must rescan it itself.
func TestConcurrentMarkMinorDifferential(t *testing.T) {
	run := func(concurrent, forced bool) (CollectionStats, map[mem.Addr]bool) {
		w := newWorld(t, Config{
			Generational: true, GCDivisor: -1, MinorDivisor: -1,
			ConcurrentMark: concurrent,
		})
		data := addData(t, w, "data", 0x2000, 4096)
		concBuildGraph(t, directDriver{w})
		w.Collect() // identical STW full in both modes: the old generation
		// Mutation epoch: new objects linked from old ones (dirtying
		// their cards), new roots, and fresh garbage.
		var keep [8]mem.Addr
		for i := range keep {
			p, err := w.Allocate(4, false)
			if err != nil {
				t.Fatal(err)
			}
			keep[i] = p
			if err := data.Store(0x2000+mem.Addr(4*i), mem.Word(p)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			p, err := w.Allocate(2, false)
			if err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 { // reachable only through a dirtied old root
				if err := w.Store(keep[i%8], mem.Word(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Young objects reachable only through old ones, which a minor's
		// root scan finds marked and does not scan: only the remembered
		// set leads to them.
		for i := 8; i < 48; i++ {
			v, err := data.Load(0x2000 + mem.Addr(4*i))
			if err != nil {
				t.Fatal(err)
			}
			old := mem.Addr(v)
			if old == 0 || !w.Heap.IsAllocated(old) {
				continue
			}
			if _, atomic := w.Heap.ObjectSpan(old); atomic {
				continue
			}
			p, err := w.Allocate(2, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Store(old, mem.Word(p)); err != nil {
				t.Fatal(err)
			}
		}
		var st CollectionStats
		if concurrent {
			installClosureOracle(t, w, nil)
			w.mu.Lock()
			w.startConcurrentLocked(kindConcurrentMinor) // no background driver
			staged := len(w.cyc.dirty)
			w.mu.Unlock()
			if staged == 0 {
				t.Fatal("the snapshot staged no remembered set")
			}
			if forced {
				w.FinishConcurrentCycle()
			}
			for steps := 0; !w.ConcurrentStep(8); steps++ {
				if steps > 1_000_000 {
					t.Fatal("concurrent minor did not terminate")
				}
			}
			st = w.LastCollection()
			if !st.Concurrent || !st.Minor {
				t.Fatalf("expected a concurrent minor, got %+v", st)
			}
		} else {
			st = w.CollectMinor()
		}
		w.FinishSweep()
		return st, liveSet(w)
	}
	stw, stwLive := run(false, false)
	for _, forced := range []bool{false, true} {
		conc, concLive := run(true, forced)
		if conc.Promoted != stw.Promoted {
			t.Fatalf("forced=%v: promotion diverges: concurrent %d, stw %d", forced, conc.Promoted, stw.Promoted)
		}
		if conc.Sweep != stw.Sweep {
			t.Fatalf("forced=%v: minor sweep diverges:\nconcurrent %+v\nstw        %+v", forced, conc.Sweep, stw.Sweep)
		}
		if len(concLive) != len(stwLive) {
			t.Fatalf("forced=%v: live sets diverge: %d vs %d objects", forced, len(concLive), len(stwLive))
		}
		for a := range stwLive {
			if !concLive[a] {
				t.Fatalf("forced=%v: object %#x live after STW minor, missing after concurrent minor", forced, uint32(a))
			}
		}
	}
}

// TestConcurrentMarkMostlyOutsideSTW pins the design's load-shifting
// claim: on a deep structure (a 2000-node list, reachable only
// link-by-link) the snapshot pause marks just the root-referenced
// head, the finale marks nothing new, and the background chunks do
// everything in between — more than 90% of the cycle's marking.
func TestConcurrentMarkMostlyOutsideSTW(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	installClosureOracle(t, w, nil)
	data := addData(t, w, "data", 0x2000, 4096)
	const nodes = 2000
	var head, prev mem.Addr
	for i := 0; i < nodes; i++ {
		p, err := w.Allocate(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if err := w.Store(prev, mem.Word(p)); err != nil {
				t.Fatal(err)
			}
		} else {
			head = p
		}
		prev = p
	}
	if err := data.Store(0x2000, mem.Word(head)); err != nil {
		t.Fatal(err)
	}
	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	for steps := 0; !w.ConcurrentStep(64); steps++ {
		if steps > 1_000_000 {
			t.Fatal("concurrent cycle did not terminate")
		}
	}
	st := w.LastCollection()
	if st.Mark.ObjectsMarked < nodes {
		t.Fatalf("marked %d objects, want at least the %d list nodes", st.Mark.ObjectsMarked, nodes)
	}
	if st.MarkedConcurrent*10 < st.Mark.ObjectsMarked*9 {
		t.Fatalf("only %d of %d objects marked outside the pauses, want > 90%%",
			st.MarkedConcurrent, st.Mark.ObjectsMarked)
	}
}

// TestConcurrentMarkBornBlack pins allocation-during-marking: un-rooted
// objects allocated mid-cycle — through a mutator handle's cache
// carves and the direct path alike — are born black and survive the
// in-flight cycle even when nothing roots them (floating garbage); the
// next collection reclaims them. The AllocateRooted objects are born
// white, and survive because their root slots still hold them at the
// finale.
func TestConcurrentMarkBornBlack(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	installClosureOracle(t, w, nil)
	data := addData(t, w, "data", 0x2000, 4096)
	m := w.NewMutator()
	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	const rooted, floating = 20, 30
	for i := 0; i < rooted; i++ {
		if _, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*i), 4, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < floating; i++ {
		if _, err := m.Allocate(4, i%2 == 0); err != nil { // cache fast path
			t.Fatal(err)
		}
		if _, err := w.Allocate(600, false); err != nil { // direct, large
			t.Fatal(err)
		}
	}
	for steps := 0; !w.ConcurrentStep(16); steps++ {
		if steps > 1_000_000 {
			t.Fatal("concurrent cycle did not terminate")
		}
	}
	if freed := w.LastCollection().Sweep.ObjectsFreed; freed != 0 {
		t.Fatalf("in-flight cycle freed %d mid-cycle allocations, want 0 (born black)", freed)
	}
	// The next, fully-observed collection reclaims the floating garbage.
	st := w.Collect()
	if st.Sweep.ObjectsFreed != 2*floating {
		t.Fatalf("follow-up collection freed %d, want the %d unrooted mid-cycle objects",
			st.Sweep.ObjectsFreed, 2*floating)
	}
	if st.Sweep.ObjectsLive != rooted {
		t.Fatalf("follow-up collection kept %d, want the %d rooted objects", st.Sweep.ObjectsLive, rooted)
	}
}

// concLiveList roots a list of n two-word nodes at root slot at:
// marking work a concurrent cycle's first chunks and assists cannot
// drain, so a test's allocations land inside the cycle.
func concLiveList(t *testing.T, w *World, at mem.Addr, n int) {
	t.Helper()
	var head mem.Addr
	for i := 0; i < n; i++ {
		p, err := w.Allocate(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Store(p, mem.Word(head)); err != nil {
			t.Fatal(err)
		}
		head = p
	}
	if err := w.Store(at, mem.Word(head)); err != nil {
		t.Fatal(err)
	}
}

// concFinish drives the active concurrent cycle through its finale with
// bounded steps, failing if it was already over.
func concFinish(t *testing.T, w *World) {
	t.Helper()
	if !w.ConcurrentActive() {
		t.Fatal("the cycle ended before the test's allocations did")
	}
	for steps := 0; !w.ConcurrentStep(16); steps++ {
		if steps > 1_000_000 {
			t.Fatal("concurrent cycle did not terminate")
		}
	}
}

// TestConcurrentMarkUnrootedBornBlack pins the contract rooted
// allocations being born white keeps: every entry point that returns a
// bare address — its caller's Go local is no root — is born black while
// a concurrent cycle marks, even on a handle whose cache of the same
// size class a rooted allocation has just left white. Each row
// interleaves AllocateRooted with one kind of un-rooted allocation,
// roots none of the latter, and requires all of them to outlive the
// cycle's finale.
func TestConcurrentMarkUnrootedBornBlack(t *testing.T) {
	const words, large = 4, alloc.MaxSmallWords + 88
	type plainFn func(w *World, m *Mutator, id alloc.DescID) (mem.Addr, error)
	handle := func(w *World, m *Mutator, _ alloc.DescID) (mem.Addr, error) { return m.Allocate(words, false) }
	for _, tc := range []struct {
		name   string
		cfg    Config
		budget uint64
		plain  []plainFn
	}{
		{name: "freelist", plain: []plainFn{handle}},
		{name: "linealloc", cfg: Config{LineAlloc: true}, plain: []plainFn{handle}},
		{name: "tenant", budget: 1 << 20, plain: []plainFn{handle}},
		{name: "world", plain: []plainFn{
			func(w *World, _ *Mutator, _ alloc.DescID) (mem.Addr, error) { return w.Allocate(words, false) },
			func(w *World, _ *Mutator, id alloc.DescID) (mem.Addr, error) { return w.AllocateTyped(id) },
			func(w *World, _ *Mutator, _ alloc.DescID) (mem.Addr, error) {
				return w.AllocateIgnoreOffPage(large, false)
			},
		}},
		{name: "handle-uncached", plain: []plainFn{
			func(_ *World, m *Mutator, id alloc.DescID) (mem.Addr, error) { return m.AllocateTyped(id) },
			func(_ *World, m *Mutator, _ alloc.DescID) (mem.Addr, error) {
				return m.AllocateIgnoreOffPage(large, false)
			},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ConcurrentMark, cfg.GCDivisor, cfg.MarkQuantum = true, -1, 16
			w := newWorld(t, cfg)
			installClosureOracle(t, w, nil)
			data := addData(t, w, "data", 0x2000, 4096)
			concLiveList(t, w, 0x2000+4*8, 4000)
			id, err := w.RegisterLayout([]bool{true, false, false, false})
			if err != nil {
				t.Fatal(err)
			}
			m := w.NewMutator()
			if tc.budget > 0 {
				m = w.NewTenant(TenantConfig{Name: "t", BudgetBytes: tc.budget, Policy: TenantFail}).NewMutator()
			}
			if err := w.StartConcurrentCycle(); err != nil {
				t.Fatal(err)
			}
			var unrooted []mem.Addr
			for i := 0; i < 120; i++ {
				// Two rooted allocations per un-rooted one, into four root
				// slots: most rooted objects die before the finale, and
				// most refills of the shared class are rooted ones.
				for j := 0; j < 2; j++ {
					if _, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*((2*i+j)%4)), words, false); err != nil {
						t.Fatal(err)
					}
				}
				p, err := tc.plain[i%len(tc.plain)](w, m, id)
				if err != nil {
					t.Fatal(err)
				}
				unrooted = append(unrooted, p)
				if i%16 == 15 {
					w.ConcurrentStep(16)
				}
			}
			concFinish(t, w)
			for i, p := range unrooted {
				if !w.Heap.IsAllocated(p) {
					t.Fatalf("un-rooted object %d (%#x), allocated mid-cycle, was swept by the cycle's finale", i, uint32(p))
				}
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentMarkRootedBornWhite pins what rooted allocation gains:
// an object AllocateRooted hands out while a concurrent cycle marks is
// born white, so when its root slot is overwritten before the finale,
// the finale frees it. A hundred allocations into one root slot leave
// one object rooted, and the finale's sweep keeps that one beside the
// list that keeps the cycle busy — the cache's held slots are taken back
// out of the survey.
func TestConcurrentMarkRootedBornWhite(t *testing.T) {
	const allocs, listNodes = 100, 4000
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{name: "freelist"},
		{name: "linealloc", cfg: Config{LineAlloc: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ConcurrentMark, cfg.GCDivisor, cfg.MarkQuantum = true, -1, 16
			w := newWorld(t, cfg)
			installClosureOracle(t, w, nil)
			data := addData(t, w, "data", 0x2000, 4096)
			concLiveList(t, w, 0x2000+4, listNodes)
			m := w.NewMutator()
			if err := w.StartConcurrentCycle(); err != nil {
				t.Fatal(err)
			}
			var last mem.Addr
			for i := 0; i < allocs; i++ {
				p, err := m.AllocateRooted(data, 0x2000, 4, false)
				if err != nil {
					t.Fatal(err)
				}
				last = p
			}
			concFinish(t, w)
			st := w.LastCollection()
			if st.Sweep.ObjectsLive != listNodes+1 || st.Sweep.ObjectsFreed != allocs-1 {
				t.Fatalf("finale kept %d and freed %d objects, want the %d list nodes and the one rooted object, and %d",
					st.Sweep.ObjectsLive, st.Sweep.ObjectsFreed, listNodes, allocs-1)
			}
			if !w.Heap.IsAllocated(last) {
				t.Fatalf("the rooted object %#x was swept", uint32(last))
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentMarkFastPathZeroAlloc pins the fast path's cost while
// a concurrent cycle is marking: an untraced world's cached mutator
// allocation is still a pointer bump — zero Go allocations — because
// the cycle's work (born-black carves, the write barrier) lives
// entirely on the slow paths.
func TestConcurrentMarkFastPathZeroAlloc(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	m := w.NewMutator()
	// Warm the cache, then open a cycle (no background driver: the
	// explicit entry point keeps every goroutine's allocations out of
	// the measurement).
	for i := 0; i < 8; i++ {
		if _, err := m.Allocate(2, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	if !w.ConcurrentActive() {
		t.Fatal("cycle not active")
	}
	// The snapshot marked the cache's held slots; allocate once more
	// (from them, or a born-black refill), then measure the in-cycle
	// fast path.
	if _, err := m.Allocate(2, false); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := m.Allocate(2, false); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("in-cycle cached Allocate allocates %v times per call, want 0", avg)
	}
	w.FinishConcurrentCycle()
}

// FuzzConcurrentMark fuzzes interleavings of mutator work with the
// concurrent cycle's own control points: stores, explicit frees,
// rooted and garbage allocations, cycle starts, bounded steps, and
// forced finales, on one deterministic goroutine. Invariants: no
// operation errors, every cycle terminates, every finale's marked set
// holds the closure of its roots (the closure oracle), rooted objects
// are never lost (their roots still resolve to allocated objects at the
// end), the final audit balances, and the object count is conserved.
func FuzzConcurrentMark(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x41, 0x9a, 0xe3, 0x07, 0xff, 0x22, 0x6d})
	f.Add(uint8(1), []byte{0x05, 0x25, 0x45, 0x65, 0x85, 0xa5, 0xc5, 0xe5, 0x06, 0x06})
	f.Add(uint8(2), []byte{0xe0, 0xe4, 0xe8, 0x02, 0x03, 0x83, 0x43, 0x23, 0x13, 0x0b})
	f.Add(uint8(3), []byte{0x07, 0x07, 0x07, 0x07, 0x0f, 0x0f, 0x0f, 0x0f, 0xc3, 0xc7})
	f.Add(uint8(4), []byte{0x00, 0x08, 0x03, 0x05, 0x0b, 0x43, 0x06, 0x13, 0x02, 0x07, 0x05, 0x1b, 0x06})
	cfgs := []Config{
		{ConcurrentMark: true, GCDivisor: -1},
		{ConcurrentMark: true, GCDivisor: -1, LazySweep: true},
		{ConcurrentMark: true, GCDivisor: -1, LineAlloc: true, LazySweep: true},
		{ConcurrentMark: true, GCDivisor: -1, Generational: true, LazySweep: true},
		{ConcurrentMark: true, GCDivisor: -1, ConcurrentSweep: true},
	}
	f.Fuzz(func(t *testing.T, mode uint8, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		w := newWorld(t, cfgs[int(mode)%len(cfgs)])
		oracle := installClosureOracle(t, w, nil)
		const slots = 8
		data := addData(t, w, "roots", 0x2000, 4*slots)
		m := w.NewMutator()
		sizes := []int{1, 2, 4, 8, 16, 64, 600}
		var roots [slots]mem.Addr
		var atomicRoot [slots]bool
		var total uint64
		for _, b := range prog {
			op := b & 7
			j := uint32(b>>3) & 7
			si := int(b>>6) % len(sizes)
			switch op {
			case 0, 1: // rooted allocation (op 1: atomic)
				p, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*j), sizes[si], op == 1)
				if err != nil {
					t.Fatal(err)
				}
				total++
				roots[j] = p
				atomicRoot[j] = op == 1
			case 2: // garbage allocation
				if _, err := m.Allocate(sizes[(si+int(j))%len(sizes)], false); err != nil {
					t.Fatal(err)
				}
				total++
			case 3: // barrier-visible store: link root j into root j+1
				k := (j + 1) % slots
				if roots[j] != 0 && !atomicRoot[j] && roots[k] != 0 {
					if err := m.Store(roots[j], mem.Word(roots[k])); err != nil {
						t.Fatal(err)
					}
				}
			case 4: // free the rooted object, then clear the root
				if roots[j] == 0 {
					continue
				}
				if err := m.Free(roots[j]); err != nil {
					t.Fatal(err)
				}
				if err := m.Store(0x2000+mem.Addr(4*j), 0); err != nil {
					t.Fatal(err)
				}
				roots[j] = 0
			case 5: // open a cycle (no-op if one is active)
				if err := w.StartConcurrentCycle(); err != nil {
					t.Fatal(err)
				}
			case 6: // one bounded chunk
				w.ConcurrentStep(int(j)*8 + 1)
			case 7: // forced finale (or a plain collection when idle)
				if w.ConcurrentActive() {
					w.FinishConcurrentCycle()
				} else if j == 0 {
					m.Collect()
				}
			}
		}
		w.FinishConcurrentCycle()
		oracle.check(t)
		w.Collect()
		w.FinishSweep()
		if err := w.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
		if got := w.Heap.Stats().ObjectsAllocated; got != total {
			t.Fatalf("central ObjectsAllocated = %d, script allocated %d", got, total)
		}
		// Every root that survived the tape still resolves to an
		// allocated object: nothing rooted was lost to a cycle.
		for j, p := range roots {
			if p == 0 {
				continue
			}
			if base, ok := w.Heap.FindObject(p, false); !ok || base != p {
				t.Fatalf("root %d: object %#x lost", j, uint32(p))
			}
		}
	})
}
