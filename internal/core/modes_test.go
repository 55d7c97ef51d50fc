package core

import (
	"maps"
	"slices"
	"testing"
)

// TestModes pins the mode table: six rows, each a world NewWorld
// builds, no two of which resolve to the same effective configuration.
func TestModes(t *testing.T) {
	if len(Modes) != 6 {
		t.Fatalf("%d modes, want the six combinations of three switches without concurrent generations", len(Modes))
	}
	seen := map[Config]string{}
	for _, m := range Modes {
		if _, err := NewWorld(nil, m.Apply(Config{})); err != nil {
			t.Errorf("mode %s: %v", m.Name, err)
		}
		c := m.Apply(Config{}).withDefaults()
		if prev, ok := seen[c]; ok {
			t.Errorf("modes %s and %s resolve to the same Config", prev, m.Name)
		}
		seen[c] = m.Name
	}
}

// modesWhere returns the modes keep accepts, in table order.
func modesWhere(keep func(Mode) bool) []Mode {
	return slices.DeleteFunc(slices.Clone(Modes), func(m Mode) bool { return !keep(m) })
}

// named returns modes with the rows a test named before it drew them
// from Modes renamed back (old maps a mode's name to the row's), so that
// a row keeps the name the test's history and records know it by.
func named(modes []Mode, old map[string]string) []Mode {
	out := slices.Clone(modes)
	for i := range out {
		if n, ok := old[out[i].Name]; ok {
			out[i].Name = n
		}
	}
	return out
}

// modeTriggers is the trigger a scripted differential runs a mode under:
// a collection every quarter of the heap allocated, or, when the world
// marks concurrently, only the script's own (concurrentDriver).
func modeTriggers(m Mode) Config {
	if m.ConcurrentMark {
		return Config{GCDivisor: -1}
	}
	return Config{GCDivisor: 4}
}

// TestInertKnobs pins the four Config fields that select nothing:
// LineAlloc, ConcMarkWorkers and MarkWorkers on or off, and
// ConcurrentSweep against LazySweep, replay one script through a
// handle to the same addresses, the same collections and the same
// final heap. NewWorld still rejects the worker counts it always did.
func TestInertKnobs(t *testing.T) {
	for _, n := range []int{2, 8, -1} {
		if _, err := NewWorld(nil, Config{MarkWorkers: n}); err == nil {
			t.Errorf("NewWorld accepted MarkWorkers: %d", n)
		}
	}
	if _, err := NewWorld(nil, Config{ConcurrentMark: true, ConcMarkWorkers: -1}); err == nil {
		t.Error("NewWorld accepted ConcMarkWorkers: -1")
	}
	for _, k := range []struct {
		name    string
		off, on Config
	}{
		{"LineAlloc", Config{GCDivisor: 4, LazySweep: true}, Config{GCDivisor: 4, LazySweep: true, LineAlloc: true}},
		{"MarkWorkers", Config{GCDivisor: 4}, Config{GCDivisor: 4, MarkWorkers: 1}},
		{"ConcMarkWorkers", Config{ConcurrentMark: true, GCDivisor: -1}, Config{ConcurrentMark: true, GCDivisor: -1, ConcMarkWorkers: 4}},
		{"ConcurrentSweep", Config{ConcurrentMark: true, GCDivisor: -1, LazySweep: true}, Config{ConcurrentMark: true, GCDivisor: -1, ConcurrentSweep: true}},
	} {
		t.Run(k.name, func(t *testing.T) {
			run := func(cfg Config) scriptRun {
				w := newWorld(t, cfg)
				if cfg.ConcurrentMark {
					installClosureOracle(t, w, nil)
				}
				addData(t, w, "data", 0x2000, 4096)
				return replay(t, w, collectingConcurrently(t, w, w.NewMutator()), mutatorScript)
			}
			off, on := run(k.off), run(k.on)
			if !slices.Equal(off.addrs, on.addrs) {
				t.Fatal("allocation addresses differ")
			}
			if len(off.stats) == 0 || len(off.stats) != len(on.stats) {
				t.Fatalf("%d collections off, %d on", len(off.stats), len(on.stats))
			}
			for i := range off.stats {
				a, b := off.stats[i], on.stats[i]
				normalizeTimes(&a, &b)
				if a != b {
					t.Fatalf("collection %d:\noff %+v\non  %+v", i, a, b)
				}
			}
			if a, b := off.w.Heap.Stats(), on.w.Heap.Stats(); a != b {
				t.Fatalf("final heap stats:\noff %+v\non  %+v", a, b)
			}
			if !maps.Equal(liveSet(off.w), liveSet(on.w)) {
				t.Fatal("final heaps hold different objects")
			}
		})
	}
}

// TestNewWorldRejectsNegativeMarkQuantum: with a negative quantum no
// chunk would mark anything, and only a forced finale could end a cycle.
func TestNewWorldRejectsNegativeMarkQuantum(t *testing.T) {
	if _, err := NewWorld(nil, Config{ConcurrentMark: true, MarkQuantum: -1}); err == nil {
		t.Fatal("NewWorld accepted MarkQuantum: -1")
	}
}

// TestNewWorldRejectsConcurrentGenerational: a generational world marks
// stop-the-world. The concurrent cycle rescans no remembered set, so
// NewWorld refuses the pair rather than run a minor cycle without one.
func TestNewWorldRejectsConcurrentGenerational(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		if _, err := NewWorld(nil, Config{ConcurrentMark: true, Generational: true, LazySweep: lazy}); err == nil {
			t.Errorf("NewWorld accepted ConcurrentMark with Generational (LazySweep %v)", lazy)
		}
	}
}
