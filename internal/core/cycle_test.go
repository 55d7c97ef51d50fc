package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Tests for the one collection cycle (cycle.go): what every kind's
// close must leave behind, and that the accessors a program polls from
// its own goroutine are safe against a finale running on another
// goroutine's allocation.
// (The entry points that must land a cycle in flight first are the
// forced-finale table of TestConcurrentMarkLostObject.)

// TestConfigKnobCount pins the number of Config fields. The rule it
// upholds: a new field needs two callers that exist outside tests and
// examples and need different values for it — otherwise it is a
// constant, or a mode nobody runs. Raising the number is a visible,
// argued diff; a field whose last caller goes should take it down.
func TestConfigKnobCount(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 27 {
		t.Fatalf("Config has %d fields, want 27: see the rule in this test's comment", n)
	}
}

// TestSingleClose runs one cycle of every kind, on two worlds each and
// under both sweeps, and checks what the close — written
// once, in closeCycleLocked — must leave behind whichever way the cycle
// got there: the collection counted once, the minor count kept, the
// hook fired once with the kind's flags, allocation and card counters
// reset, an unreachable finalizable queued once and a reachable one not
// at all, one begin/mark/sweep/end quadruple in the trace carrying the
// kind and one marker, the closure of the roots marked at the audit
// seam, and a heap the strict audit accepts.
func TestSingleClose(t *testing.T) {
	kinds := []struct {
		name string
		kind cycleKind
		gen  bool
	}{
		{"full", kindFull, false},
		{"full-generational", kindFull, true},
		{"minor", kindMinor, true},
		{"concurrent", kindConcurrent, false},
	}
	for _, k := range kinds {
		// Every non-generational kind also runs on a world whose first
		// cycle was a concurrent one, whose close must leave nothing
		// behind for the next; a generational world never marks
		// concurrently. That row keeps the name of the mark step's
		// retired second shape: "parallel" for a stop-the-world kind,
		// "detached" for a concurrent one.
		shapes := []string{"serial"}
		after := "parallel"
		if k.kind.concurrent() {
			after = "detached"
		}
		if !k.gen {
			shapes = append(shapes, after)
		}
		for _, shape := range shapes {
			for _, lazy := range []bool{false, true} {
				cfg := Config{
					GCDivisor: -1, MinorDivisor: -1, Generational: k.gen, LazySweep: lazy,
					ConcurrentMark: k.kind.concurrent() || shape == after,
				}
				k, kind := k, k.kind
				t.Run(fmt.Sprintf("%s/%s/lazy=%v", k.name, shape, lazy), func(t *testing.T) {
					w := newWorld(t, cfg)
					lw := &lostWorld{t: t, w: w, data: addData(t, w, "data", lostRoots, 4096)}
					var hooks []CollectionStats
					oracle := installClosureOracle(t, w, func(st CollectionStats) { hooks = append(hooks, st) })
					rec := w.EnableTracing(0)
					// An old generation of one: holder, tenured by a full cycle
					// and then a minor one, so the count of minors since the last
					// full cycle stands at 1 when the cycle under test opens.
					holder := lw.alloc(2)
					lw.root(0, holder)
					if shape == after {
						w.mu.Lock()
						w.startConcurrentLocked()
						w.mu.Unlock()
						lw.finish()
					} else {
						w.Collect()
					}
					minorsBefore := 0
					if cfg.Generational {
						w.CollectMinor()
						minorsBefore = 1
					}
					// The young: child hangs off holder alone (the store cards
					// holder's block), young off a root; dead off nothing.
					child, young, dead := lw.alloc(2), lw.alloc(2), lw.alloc(2)
					lw.store(holder, mem.Word(child))
					lw.root(1, young)
					w.RegisterFinalizable(dead)
					w.RegisterFinalizable(young)
					before, audits := w.Collections(), oracle.checked()
					hooks = nil
					rec.Reset()

					var st CollectionStats
					switch kind {
					case kindFull:
						st = w.Collect()
					case kindMinor:
						st = w.CollectMinor()
					default:
						w.mu.Lock()
						w.startConcurrentLocked()
						w.mu.Unlock()
						if !w.ConcurrentActive() {
							t.Fatal("no cycle in flight after its snapshot")
						}
						st = lw.finish()
					}

					if got := w.Collections(); got != before+1 {
						t.Errorf("Collections advanced by %d, want 1", got-before)
					}
					if len(hooks) != 1 || hooks[0] != st {
						t.Errorf("hook fired %d times; want once, with the cycle's statistics", len(hooks))
					}
					if st.Minor != kind.minor() || st.Concurrent != kind.concurrent() || !strings.HasPrefix(k.name, st.Kind()) {
						t.Errorf("Minor=%v Concurrent=%v Kind=%q for a %s cycle", st.Minor, st.Concurrent, st.Kind(), k.name)
					}
					w.mu.Lock()
					minors := w.minorsSinceFull
					w.mu.Unlock()
					if kind.minor() {
						if minors != minorsBefore+1 {
							t.Errorf("minorsSinceFull = %d after a minor cycle, want %d", minors, minorsBefore+1)
						}
						if st.DirtyBlocks == 0 || st.Promoted == 0 || st.Promoted != st.Mark.ObjectsMarked {
							t.Errorf("minor cycle: DirtyBlocks=%d Promoted=%d of %d marked", st.DirtyBlocks, st.Promoted, st.Mark.ObjectsMarked)
						}
					} else {
						if minors != 0 {
							t.Errorf("minorsSinceFull = %d after a full cycle, want 0", minors)
						}
						if st.DirtyBlocks != 0 || st.Promoted != 0 {
							t.Errorf("full cycle: DirtyBlocks=%d Promoted=%d, want 0 and 0", st.DirtyBlocks, st.Promoted)
						}
					}
					if since := w.Heap.Stats().BytesSinceGC; since != 0 {
						t.Errorf("BytesSinceGC = %d after the close", since)
					}
					w.Heap.DirtyBlocks(func(bi int) { t.Errorf("block %d still carded after the close", bi) })
					if got := w.DrainReclaimed(); len(got) != 1 || got[0] != dead {
						t.Errorf("reclaimed queue = %#x, want the one dead finalizable %#x", got, uint32(dead))
					}
					if got := w.DrainReclaimed(); len(got) != 0 {
						t.Errorf("reclaimed queue drained twice: %#x", got)
					}
					w.FinishSweep()
					lw.requireLive("holder", holder)
					lw.requireLive("child", child)
					lw.requireLive("young", young)
					lw.requireSwept("the unreachable object", dead)
					for _, ev := range []trace.Kind{trace.EvCycleBegin, trace.EvMarkBegin, trace.EvMarkEnd,
						trace.EvSweepBegin, trace.EvSweepEnd, trace.EvCycleEnd} {
						if n := countKind(rec, ev); n != 1 {
							t.Errorf("%d %v events for one cycle", n, ev)
						}
					}
					for _, ev := range rec.Events() {
						switch ev.Kind {
						case trace.EvCycleBegin, trace.EvMarkBegin, trace.EvSweepBegin:
							if ev.A2 != int64(kind) {
								t.Errorf("%v carries kind %d, want %d", ev.Kind, ev.A2, kind)
							}
						}
						if ev.Kind == trace.EvMarkBegin && ev.A1 != 1 {
							t.Errorf("mark_begin reports %d markers for one %s cycle, want 1", ev.A1, shape)
						}
					}
					if got := oracle.checked(); got != audits+1 {
						t.Errorf("audit seam fired %d times for one close", got-audits)
					}
					if err := w.VerifyIntegrity(); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestFinalizableAccessorsRace is the program every finalization client
// is: it registers objects and polls for collections and reclaimed
// objects from its own goroutine, between allocations on its own
// mutator handle, while a second handle allocates garbage on a
// goroutine of its own, so that allocation-triggered concurrent cycles
// close in either handle's pacer assists — where the close ranges over,
// deletes from and appends to the same table and queue. With another
// goroutine collecting, a bare address in a Go local is no root: the
// program allocates with AllocateRooted, into spare root slots. Under
// -race this fails unless RegisterFinalizable, DrainReclaimed,
// Collections and LastCollection take the world lock; without -race it
// checks that every dead registered object is queued exactly once. The heap starts small so
// that the run closes many cycles: the detector sees the race only when
// a close lands inside the program's unlocked window.
func TestFinalizableAccessorsRace(t *testing.T) {
	w := newWorld(t, Config{InitialHeapBytes: 128 << 10, ConcurrentMark: true, GCDivisor: 8, MarkQuantum: 16})
	lw := &lostWorld{t: t, w: w, data: addData(t, w, "roots", lostRoots, 4096)}
	const cellSlot, finSlot = lostRoots + 4, lostRoots + 8
	prog, churn := w.NewMutator(), w.NewMutator()
	rooted := func(slot mem.Addr) mem.Addr {
		p, err := prog.AllocateRooted(lw.data, slot, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stop, churned := make(chan struct{}), make(chan error, 1)
	stopChurn := sync.OnceValue(func() error { close(stop); return <-churned })
	defer stopChurn()
	go func() {
		for {
			select {
			case <-stop:
				churned <- nil
				return
			default:
			}
			if _, err := churn.Allocate(2, false); err != nil {
				churned <- err
				return
			}
		}
	}()
	const nodes = 20000
	var head mem.Addr
	reclaimed, concurrent := 0, 0
	for i := 0; i < nodes; i++ {
		// One more node on the rooted list (all root writes go through
		// World.Store: the world lock orders them against the root scans
		// of finales on the other goroutine), and one object to be
		// finalized, unreachable once the next one takes its slot.
		cell := rooted(cellSlot)
		lw.store(cell+4, mem.Word(head))
		head = cell
		lw.store(lostRoots, mem.Word(head))
		w.RegisterFinalizable(rooted(finSlot))
		if w.Collections() > 0 && w.LastCollection().Concurrent {
			concurrent++
		}
		if i%64 == 0 {
			reclaimed += len(w.DrainReclaimed())
		}
	}
	if err := stopChurn(); err != nil {
		t.Fatal(err)
	}
	lw.store(finSlot, 0)
	w.FinishConcurrentCycle()
	w.Collect() // a fresh cycle: everything registered is garbage by now
	reclaimed += len(w.DrainReclaimed())
	if reclaimed != nodes {
		t.Fatalf("%d of %d dead registered objects were queued", reclaimed, nodes)
	}
	if concurrent == 0 {
		t.Fatal("no concurrent cycle closed while the program polled")
	}
	// The walk is bounded: a lost node re-carved into the list can close
	// it into a loop, which must fail here, not hang.
	n := 0
	for p := head; p != 0; n++ {
		if n == nodes {
			t.Fatalf("list runs past its %d nodes: a lost node was carved into it again", nodes)
		}
		if !w.Heap.IsAllocated(p) {
			t.Fatalf("list node %d lost", n)
		}
		v, err := w.Load(p + 4)
		if err != nil {
			t.Fatal(err)
		}
		p = mem.Addr(v)
	}
	if n != nodes {
		t.Fatalf("list holds %d nodes, want %d", n, nodes)
	}
}
