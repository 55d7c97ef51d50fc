package core

import (
	"testing"

	"repro/internal/mem"
)

// Differential coverage for Config.LineAlloc (the bump profile): the
// collector's observable behaviour — reclamation totals, heap stats,
// collection counts, and on line-aligned size classes the allocation
// addresses themselves — must match the free-list profile exactly.
// The address-identity argument: the sweep barrier queues partial line
// blocks ascending and the carve pops them from the back (the threaded
// free list's descending-block order), and runs within a block are
// carved ascending (the list's within-block order); on classes whose
// slots are whole lines, free lines ARE free slots, so the two
// profiles hand out the same addresses in the same order.

// lineScript is mutatorScript restricted to line-aligned small classes
// (64/128/256/512 words — slot size a whole number of lines) plus
// large objects, so the bump profile's addresses are comparable to the
// free-list profile's.
func lineScript(t *testing.T, d gcDriver) []mem.Addr {
	t.Helper()
	const dataBase = mem.Addr(0x2000)
	const rootSlots = 64
	var roots [rootSlots]mem.Addr
	sizes := []int{64, 128, 256, 512, 100, 200, 400, 600, 1030}
	// 100 -> class 128, 200 -> 256, 400 -> 512: rounded into aligned
	// classes; 600 and 1030 are large objects, identical in either
	// profile.
	var addrs []mem.Addr
	rng := uint32(0x51f15eed)
	next := func(n uint32) uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng % n
	}
	for i := 0; i < 1600; i++ {
		size := sizes[next(uint32(len(sizes)))]
		atomic := next(7) == 0
		p, err := d.Allocate(size, atomic)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, p)
		switch next(5) {
		case 0:
			slot := next(rootSlots)
			if err := d.Store(dataBase+mem.Addr(4*slot), mem.Word(p)); err != nil {
				t.Fatal(err)
			}
			if atomic {
				roots[slot] = 0
			} else {
				roots[slot] = p
			}
		case 1:
			if slot := next(rootSlots); roots[slot] != 0 {
				if err := d.Store(roots[slot], mem.Word(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if next(47) == 0 {
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
		if next(509) == 0 {
			d.Collect()
		}
	}
	d.Collect()
	return addrs
}

// lineConfigs are the collector modes the line profile composes with:
// stop-the-world ones, and explicit collections as concurrent cycles
// ("parallel", "par-lazy", named for the detached workers they once ran
// on; the concurrent batteries have line rows of their own).
var lineConfigs = map[string]Config{
	"full":         {GCDivisor: 4},
	"generational": {Generational: true, MinorDivisor: 6, FullEvery: 3, GCDivisor: 4},
	"lazy":         {GCDivisor: 4, LazySweep: true},
	"parallel":     {ConcurrentMark: true, GCDivisor: -1},
	"gen-lazy":     {Generational: true, MinorDivisor: 6, FullEvery: 3, LazySweep: true},
	"par-lazy":     {ConcurrentMark: true, GCDivisor: -1, LazySweep: true},
}

// TestLineAllocDifferential is the line profile's compatibility claim:
// on line-aligned classes the bump profile replays the free-list
// profile's exact history — same addresses, same collection stats up
// to timing, same final heap state — in every collector mode through
// the direct World path, and a Mutator handle keeps sameCollections'
// contract with that path.
func TestLineAllocDifferential(t *testing.T) {
	for name, cfg := range lineConfigs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			run := func(line, useHandle bool) scriptRun {
				c := cfg
				c.LineAlloc = line
				w := newWorld(t, c)
				addData(t, w, "data", 0x2000, 4096)
				var d gcDriver = directDriver{w}
				if useHandle {
					d = w.NewMutator()
				}
				return replay(t, w, collectingConcurrently(t, w, d), lineScript)
			}
			compare := func(label string, a, b scriptRun) {
				t.Helper()
				if len(a.addrs) != len(b.addrs) {
					t.Fatalf("%s: allocation counts diverge: %d vs %d", label, len(a.addrs), len(b.addrs))
				}
				for i := range a.addrs {
					if a.addrs[i] != b.addrs[i] {
						t.Fatalf("%s: allocation %d diverges: %#x vs %#x",
							label, i, uint32(a.addrs[i]), uint32(b.addrs[i]))
					}
				}
				if len(a.stats) != len(b.stats) {
					t.Fatalf("%s: collection counts diverge: %d vs %d", label, len(a.stats), len(b.stats))
				}
				for i := range a.stats {
					x, y := a.stats[i], b.stats[i]
					normalizeTimes(&x, &y)
					if x != y {
						t.Fatalf("%s: cycle %d stats diverge:\nA %+v\nB %+v", label, i, x, y)
					}
				}
				if as, bs := a.w.Heap.Stats(), b.w.Heap.Stats(); as != bs {
					t.Fatalf("%s: final heap stats diverge:\nA %+v\nB %+v", label, as, bs)
				}
			}

			freelist := run(false, false)
			line := run(true, false)
			compare("freelist-vs-line (direct)", freelist, line)
			lineHandle := run(true, true)
			sameCollections(t, "direct-vs-handle (line)", line, lineHandle)

			for _, o := range []scriptRun{line, lineHandle} {
				if err := o.w.VerifyIntegrity(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestLineAllocIntegrityWithOutstandingSpans audits the world while
// mutator handles hold half-consumed bump spans: VerifyIntegrity must
// account every carved-but-unissued slot (no double-carve, bits set)
// without requiring a flush first.
func TestLineAllocIntegrityWithOutstandingSpans(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1, LineAlloc: true})
	addData(t, w, "data", 0x2000, 4096)
	m1 := w.NewMutator()
	m2 := w.NewMutator()
	// Odd counts leave both handles mid-span.
	for i := 0; i < 7; i++ {
		if _, err := m1.Allocate(64, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := m2.Allocate(128, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity with outstanding spans: %v", err)
	}
	// A collection parks the handles and keeps their spans; the next
	// audit accounts them as before.
	w.Collect()
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The handles allocate on from the spans they kept, and the audit
	// still balances.
	if _, err := m1.Allocate(64, false); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLineAllocGeneralWorkload runs the full mixed-size script (not
// line-aligned: small classes tile lines with waste) under the bump
// profile. Addresses legitimately differ from the free-list profile;
// the invariants are integrity and exact conservation of the object
// count.
func TestLineAllocGeneralWorkload(t *testing.T) {
	for _, useHandle := range []bool{false, true} {
		w := newWorld(t, Config{GCDivisor: 4, LazySweep: true, LineAlloc: true})
		addData(t, w, "data", 0x2000, 4096)
		var d gcDriver
		if useHandle {
			d = w.NewMutator()
		} else {
			d = directDriver{w}
		}
		addrs := mutatorScript(t, d)
		w.Collect()
		w.FinishSweep()
		if err := w.VerifyIntegrity(); err != nil {
			t.Fatalf("handle=%v: %v", useHandle, err)
		}
		if got := w.Heap.Stats().ObjectsAllocated; got != uint64(len(addrs)) {
			t.Fatalf("handle=%v: ObjectsAllocated = %d, script allocated %d", useHandle, got, len(addrs))
		}
	}
}
