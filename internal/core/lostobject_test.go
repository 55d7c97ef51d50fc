package core

import (
	"errors"
	"testing"

	"repro/internal/mark"
	"repro/internal/mem"
)

// The lost-object battery: every way a mutator can try to hide a white
// object from a concurrent cycle, on each world in lostShapes.
// The barrier is Dijkstra's: a store shades the value it writes, so in
// each case the assertion is made *at the store* — the hidden object is
// marked when Store returns, before any chunk, rescan or finale could
// have found it — and again at the end, by the sweep's counts and the
// closure oracle.

// concShapes are the worlds the concurrent batteries run on: the
// concurrent modes. Their rows keep the names of the two marking
// engines they ran on before: "serial" is conc, "detached" conc-lazy.
var concShapes = func() (out []concShape) {
	conc := modesWhere(func(m Mode) bool { return m.ConcurrentMark })
	for _, m := range named(conc, map[string]string{"conc": "serial", "conc-lazy": "detached"}) {
		out = append(out, concShape{name: m.Name, cfg: m.Apply(Config{})})
	}
	return out
}()

// concShape is one world of the concurrent batteries.
type concShape struct {
	name   string
	cfg    Config
	record bool // provenance recording on
}

// lostShapes adds to concShapes a world that records provenance, whose
// barrier also names the stored-into word of every object it shades.
var lostShapes = append(concShapes[:len(concShapes):len(concShapes)],
	concShape{name: "recording", cfg: Config{ConcurrentMark: true}, record: true})

// world is newLostWorld on the shape's world.
func (sh concShape) world(t *testing.T, extra Config) *lostWorld {
	t.Helper()
	lw := newLostWorld(t, sh.cfg, extra)
	lw.w.EnableProvenance(sh.record)
	return lw
}

// lostWorld is one battery case's world: a concurrent-mark world of the
// given shape with a root segment, the closure oracle armed, and no
// automatic collections.
type lostWorld struct {
	t    *testing.T
	w    *World
	data *mem.Segment
}

const lostRoots = mem.Addr(0x2000)

func newLostWorld(t *testing.T, shape, extra Config) *lostWorld {
	t.Helper()
	cfg := extra
	cfg.ConcurrentMark, cfg.LazySweep = true, shape.LazySweep
	if cfg.GCDivisor == 0 {
		cfg.GCDivisor = -1
	}
	if cfg.Generational && cfg.MinorDivisor == 0 {
		cfg.MinorDivisor = -1
	}
	w := newWorld(t, cfg)
	lw := &lostWorld{t: t, w: w, data: addData(t, w, "data", lostRoots, 4096)}
	installClosureOracle(t, w, nil)
	return lw
}

func (lw *lostWorld) alloc(words int) mem.Addr {
	lw.t.Helper()
	p, err := lw.w.Allocate(words, false)
	if err != nil {
		lw.t.Fatal(err)
	}
	return p
}

// root stores v in root slot i directly: root segments are scanned, not
// barriered.
func (lw *lostWorld) root(i int, v mem.Addr) {
	lw.t.Helper()
	if err := lw.data.Store(lostRoots+mem.Addr(4*i), mem.Word(v)); err != nil {
		lw.t.Fatal(err)
	}
}

// store goes through the world's write barrier.
func (lw *lostWorld) store(a mem.Addr, v mem.Word) {
	lw.t.Helper()
	if err := lw.w.Store(a, v); err != nil {
		lw.t.Fatal(err)
	}
}

func (lw *lostWorld) start() {
	lw.t.Helper()
	if err := lw.w.StartConcurrentCycle(); err != nil {
		lw.t.Fatal(err)
	}
}

// finish steps the cycle to its end and returns its statistics.
func (lw *lostWorld) finish() CollectionStats {
	lw.t.Helper()
	for steps := 0; !lw.w.ConcurrentStep(1); steps++ {
		if steps > 1_000_000 {
			lw.t.Fatal("cycle did not terminate")
		}
	}
	st := lw.w.LastCollection()
	if !st.Concurrent {
		lw.t.Fatalf("last collection is not the concurrent cycle: %+v", st)
	}
	return st
}

func (lw *lostWorld) requireMarked(what string, p mem.Addr) {
	lw.t.Helper()
	if !markedNow(lw.w, p) {
		lw.t.Fatalf("%s (%#x) is unmarked after the store that published it", what, uint32(p))
	}
}

func (lw *lostWorld) requireLive(what string, p mem.Addr) {
	lw.t.Helper()
	if !lw.w.Heap.IsAllocated(p) {
		lw.t.Fatalf("%s (%#x) was swept", what, uint32(p))
	}
}

func (lw *lostWorld) requireSwept(what string, p mem.Addr) {
	lw.t.Helper()
	if lw.w.Heap.IsAllocated(p) {
		lw.t.Fatalf("%s (%#x) survived", what, uint32(p))
	}
}

// TestConcurrentMarkLostObject runs the battery.
func TestConcurrentMarkLostObject(t *testing.T) {
	for _, shape := range lostShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			// The classic: the only pointer to x moves into an object that
			// has been scanned already, and the gray path to it is erased.
			t.Run("black-holder", func(t *testing.T) {
				lw := shape.world(t, Config{})
				c1, black, x, garbage := lw.alloc(2), lw.alloc(2), lw.alloc(2), lw.alloc(2)
				lw.root(0, c1)
				lw.root(1, black)
				lw.store(c1, mem.Word(x)) // before the cycle: no barrier needed
				lw.start()
				// The marker pops newest first and the root scan pushed c1
				// then black: a one-object step scans exactly black (empty)
				// while c1, and through it x, is still gray.
				if lw.w.ConcurrentStep(1) {
					t.Fatal("cycle completed in one step; the window never opened")
				}
				if markedNow(lw.w, x) {
					t.Fatal("x is marked before the hide; the window did not open as constructed")
				}
				lw.store(black, mem.Word(x))
				lw.requireMarked("x", x)
				lw.store(c1, 0)
				st := lw.finish()
				if st.Sweep.ObjectsFreed != 1 || st.Sweep.ObjectsLive != 3 {
					t.Fatalf("sweep freed %d and kept %d, want 1 (the garbage) and 3 (c1, black, x)",
						st.Sweep.ObjectsFreed, st.Sweep.ObjectsLive)
				}
				lw.requireLive("x", x)
				lw.requireSwept("garbage", garbage)
				if st.FinalDirtyBlocks != 0 || st.RescanPasses != 0 {
					t.Fatalf("cycle rescanned cards (%d passes, %d final blocks); the barrier is the shade",
						st.RescanPasses, st.FinalDirtyBlocks)
				}
			})

			// The holder is white: reachable, not yet scanned. Its later scan
			// finds x marked already; x's own child must still be traced.
			t.Run("white-holder", func(t *testing.T) {
				lw := shape.world(t, Config{})
				c1, mid, white, x, y := lw.alloc(2), lw.alloc(2), lw.alloc(2), lw.alloc(2), lw.alloc(2)
				lw.root(0, c1)
				lw.store(c1, mem.Word(mid))
				lw.store(mid, mem.Word(white))
				lw.store(c1+4, mem.Word(x))
				lw.store(x, mem.Word(y))
				lw.start()
				lw.store(white, mem.Word(x))
				lw.requireMarked("x", x)
				lw.store(c1+4, 0)
				lw.finish()
				lw.requireLive("x", x)
				lw.requireLive("y, reachable only through the shaded x", y)
			})

			// An interior pointer is a pointer under PointerInterior and
			// shades its object; under the base-only policy the same value
			// is no reference at all and retains nothing.
			t.Run("interior", func(t *testing.T) {
				for _, pol := range []mark.PointerPolicy{mark.PointerInterior, mark.PointerBase} {
					lw := shape.world(t, Config{Pointer: pol})
					black, x := lw.alloc(2), lw.alloc(4)
					lw.root(0, black)
					lw.start()
					lw.store(black, mem.Word(x+8))
					if got, want := markedNow(lw.w, x), pol == mark.PointerInterior; got != want {
						t.Fatalf("%v policy: x marked = %v after storing an interior pointer, want %v", pol, got, want)
					}
					lw.finish()
					if got, want := lw.w.Heap.IsAllocated(x), pol == mark.PointerInterior; got != want {
						t.Fatalf("%v policy: x allocated = %v after the cycle, want %v", pol, got, want)
					}
				}
			})

			// A value in the heap's vicinity that is no object address is
			// what a scan of the stored-into word would blacklist, and so
			// does the barrier; nothing is marked for it. The value is
			// overwritten at once, so no scan ever reads it: the
			// blacklisting is the barrier's.
			t.Run("near-heap", func(t *testing.T) {
				lw := shape.world(t, Config{Blacklisting: BlacklistDense})
				black := lw.alloc(2)
				lw.root(0, black)
				_, hi := lw.w.Heap.Hull()
				bogus := hi - 2*mem.PageBytes + 4 // reserved, never committed
				lw.start()
				lw.store(black, mem.Word(bogus))
				lw.store(black, 0)
				st := lw.finish()
				if st.Mark.ObjectsMarked != 1 {
					t.Fatalf("cycle marked %d objects, want 1 (black)", st.Mark.ObjectsMarked)
				}
				if !lw.w.Blacklist.Contains(bogus) {
					t.Fatalf("near-heap value %#x stored mid-cycle was not blacklisted", uint32(bogus))
				}
			})

			// The holder was allocated during the cycle: born black, never
			// scanned, so only the barrier can see what is put into it.
			t.Run("born-black-holder", func(t *testing.T) {
				lw := shape.world(t, Config{})
				c1, x := lw.alloc(2), lw.alloc(2)
				lw.root(0, c1)
				lw.store(c1, mem.Word(x))
				lw.start()
				fresh := lw.alloc(2)
				lw.root(1, fresh)
				lw.store(fresh, mem.Word(x))
				lw.requireMarked("x", x)
				lw.store(c1, 0)
				lw.finish()
				lw.requireLive("x", x)
			})

			// Stores that land after the snapshot pause and before any mark
			// chunk has run.
			t.Run("before-first-chunk", func(t *testing.T) {
				lw := shape.world(t, Config{})
				c1, holder, x := lw.alloc(2), lw.alloc(2), lw.alloc(2)
				lw.root(0, c1)
				lw.root(1, holder)
				lw.store(c1, mem.Word(x))
				lw.start()
				lw.store(holder, mem.Word(x))
				lw.requireMarked("x", x)
				lw.store(c1, 0)
				lw.finish()
				lw.requireLive("x", x)
			})

			// The barrier's gray is still where the store left it — on the
			// marker's stack — when something other than the chunk that
			// drains the gray set ends the cycle: every entry point
			// that needs the heap to itself lands the cycle in flight first
			// (landCycleLocked). x is marked by the store; y hangs off x and
			// is found only if that gray is drained by the forced finale.
			for _, force := range []struct {
				name string
				// policy, if set, gives run a tenant's mutator whose budget
				// was spent on garbage before the cycle opened.
				policy TenantPolicy
				// own counts the collections the entry point runs itself once
				// the cycle has landed.
				own int
				run func(lw *lostWorld, m *Mutator)
			}{
				{name: "finish", run: func(lw *lostWorld, _ *Mutator) { lw.w.FinishConcurrentCycle() }},
				{name: "collect", run: func(lw *lostWorld, _ *Mutator) { lw.w.Collect() }},
				{name: "collect-minor", run: func(lw *lostWorld, _ *Mutator) { lw.w.CollectMinor() }},
				{name: "mark-only", run: func(lw *lostWorld, _ *Mutator) { lw.w.MarkOnly() }},
				{name: "retention-report", run: func(lw *lostWorld, _ *Mutator) {
					lw.w.GetRetentionReport(RetentionOptions{TopRoots: -1})
				}},
				{name: "tenant-collect-first", policy: TenantCollectFirst, own: 1, run: func(lw *lostWorld, m *Mutator) {
					if _, err := m.Allocate(8, false); err != nil {
						lw.t.Errorf("over-budget allocation with reclaimable garbage: %v", err)
					}
				}},
				{name: "tenant-evict", policy: TenantEvict, run: func(lw *lostWorld, m *Mutator) {
					if _, err := m.Allocate(8, false); !errors.Is(err, ErrTenantEvicted) {
						lw.t.Errorf("over-budget allocation: err = %v, want ErrTenantEvicted", err)
					}
				}},
				{name: "need-memory", own: 1, run: func(lw *lostWorld, _ *Mutator) {
					// More than the heap can ever hold: the first failed
					// attempt finishes the open cycle before anything else.
					// The landed cycle freed only what its snapshot saw
					// dead, so with the heap at its reservation the call
					// then runs one full collection of its own before it
					// gives up (allocateLocked's exhaustion rule).
					if _, err := lw.w.Allocate(1<<20, false); err == nil {
						lw.t.Fatal("an allocation larger than the reserve succeeded")
					}
				}},
			} {
				force := force
				t.Run("forced-finale/"+force.name, func(t *testing.T) {
					lw := shape.world(t, Config{InitialHeapBytes: 256 << 10, ReserveHeapBytes: 256 << 10})
					var m *Mutator
					if force.policy != 0 {
						const k = 40
						m = lw.w.NewTenant(TenantConfig{BudgetBytes: k * tenantChargeBytes(8), Policy: force.policy}).NewMutator()
						for i := 0; i < k; i++ {
							if _, err := m.Allocate(8, false); err != nil {
								t.Fatal(err)
							}
						}
					}
					c1, black, x, y := lw.alloc(2), lw.alloc(2), lw.alloc(2), lw.alloc(2)
					lw.root(0, c1)
					lw.root(1, black)
					lw.store(c1, mem.Word(x))
					lw.store(x, mem.Word(y))
					before := lw.w.Collections()
					lw.start()
					lw.store(black, mem.Word(x))
					lw.store(c1, 0)
					force.run(lw, m)
					if lw.w.ConcurrentActive() || lw.w.Collections() != before+1+force.own {
						t.Fatalf("%s did not end the open cycle (active %v, %d collections since)",
							force.name, lw.w.ConcurrentActive(), lw.w.Collections()-before)
					}
					if st := lw.w.LastCollection(); !st.Concurrent && force.own == 0 {
						t.Fatalf("%s ran a collection of its own instead of the open cycle's finale: %+v", force.name, st)
					}
					lw.requireLive("x", x)
					lw.requireLive("y, behind the barrier's undrained gray", y)
					if err := lw.w.VerifyIntegrity(); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}
