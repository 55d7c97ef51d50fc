package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
)

// Concurrency battery: N goroutines allocate, link, free and collect
// through their own Mutator handles while the allocator's slot
// accounting is audited mid-flight. Runs under -race via `make race`.
//
// The liveness discipline mirrors a real mutator: every object a
// goroutine intends to revisit is rooted *atomically with its
// allocation* (AllocateRooted), because between a plain Allocate
// returning and a root store landing, another mutator's collection
// could reclaim — and another handle re-carve — the slot. Objects
// allocated without rooting are pure garbage and never touched again.

// churnMutator is one battery goroutine's script: ops operations mixed
// from rooted allocations, garbage allocations, links between own live
// objects, explicit frees, and collections. Returns how many objects
// it successfully allocated.
func churnMutator(w *World, m *Mutator, data *mem.Segment, base mem.Addr, seed uint32, ops int) (uint64, error) {
	const slots = 16
	var roots [slots]mem.Addr
	var atomicRoot [slots]bool
	sizes := []int{1, 2, 3, 5, 8, 12, 16, 32, 64, 128, 600}
	rng := seed
	next := func(n uint32) uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng % n
	}
	var allocs uint64
	for i := 0; i < ops; i++ {
		size := sizes[next(uint32(len(sizes)))]
		switch next(10) {
		case 0, 1, 2, 3, 4:
			// Allocate rooted into one of this goroutine's private data
			// slots; whatever the slot held becomes garbage.
			j := next(slots)
			atomic := next(5) == 0
			p, err := m.AllocateRooted(data, base+mem.Addr(4*j), size, atomic)
			if err != nil {
				return allocs, err
			}
			allocs++
			roots[j] = p
			atomicRoot[j] = atomic
		case 5, 6, 7:
			// Garbage: allocated, never rooted, never touched again.
			if _, err := m.Allocate(size, next(5) == 0); err != nil {
				return allocs, err
			}
			allocs++
		case 8:
			// Link one of our live objects into another. Both are rooted,
			// so both are guaranteed allocated; the target must not be
			// atomic (pointer-free objects hold no pointers).
			j, k := next(slots), next(slots)
			if roots[j] != 0 && !atomicRoot[j] && roots[k] != 0 {
				if err := m.Store(roots[j], mem.Word(roots[k])); err != nil {
					return allocs, err
				}
			}
		case 9:
			// Free one of our rooted objects: rooted continuously since
			// allocation, so still allocated and owned by us. Free first,
			// clear the root after — the brief stale root is harmless,
			// while the reverse order would leave an unrooted live window.
			j := next(slots)
			if roots[j] != 0 {
				if err := m.Free(roots[j]); err != nil {
					return allocs, err
				}
				if err := m.Store(base+mem.Addr(4*j), 0); err != nil {
					return allocs, err
				}
				roots[j] = 0
			}
		}
		if next(97) == 0 {
			if next(2) == 0 {
				m.Collect()
			} else {
				m.CollectMinor()
			}
		}
		if i%64 == 63 {
			if err := w.VerifyIntegrity(); err != nil {
				return allocs, fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return allocs, nil
}

// TestConcurrentMutatorBattery runs the battery in every collector
// mode: every mode's safepoint protocol must park mutators and keep
// their caches such that no slot is ever carved twice and the central
// allocation stats stay exact. In the concurrent modes cycles trigger
// on allocation pressure and are marked by the battery's own slow
// paths' assists, each goroutine's between the others' stores through
// the insertion barrier; after the churn, one handle hides a white
// object in a black one mid-cycle (hideInCycle).
func TestConcurrentMutatorBattery(t *testing.T) {
	configs := map[string]Config{}
	// conc-lazy keeps the row name it ran under on the detached workers.
	for _, m := range named(Modes, map[string]string{"conc-lazy": "par-lazy"}) {
		configs[m.Name] = m.Apply(Config{GCDivisor: 6})
	}
	// Sixteen budgeted tenants under concurrent marking and the lazy
	// sweep: the race entry for the ownership table, the refills' carve
	// charges, the barrier reconcile, and collect-first's forced
	// collections racing the other tenants' assists. Budgets are generous
	// enough that collect-first always finds headroom, so the battery's
	// no-operation-errors invariant still holds.
	configs["tenants"] = Config{ConcurrentMark: true, GCDivisor: 6, LazySweep: true}
	ops := 400
	if testing.Short() {
		ops = 120
	}
	for name, cfg := range configs {
		nMut, tenanted := 8, name == "tenants"
		if tenanted {
			nMut = 16
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, cfg)
			if cfg.ConcurrentMark {
				installClosureOracle(t, w, nil)
			}
			const slotBytes = 16 * 4
			data := addData(t, w, "roots", 0x2000, nMut*slotBytes)
			muts := make([]*Mutator, nMut)
			tens := make([]*Tenant, nMut)
			for g := range muts {
				if tenanted {
					tens[g] = w.NewTenant(TenantConfig{BudgetBytes: 1 << 20, Policy: TenantCollectFirst})
					muts[g] = tens[g].NewMutator()
				} else {
					muts[g] = w.NewMutator()
				}
			}
			var (
				wg     sync.WaitGroup
				counts = make([]uint64, nMut)
				errs   = make([]error, nMut)
			)
			for g := 0; g < nMut; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := mem.Addr(0x2000 + g*slotBytes)
					counts[g], errs[g] = churnMutator(w, muts[g], data, base, uint32(g)*2654435761+1, ops)
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("mutator %d: %v", g, err)
				}
			}
			var world uint64 // the hide's allocations on no handle
			if cfg.ConcurrentMark {
				counts[0] += 2
				world = hideInCycle(t, w, muts[0], data, 0x2000)
			}
			w.Collect()
			w.FinishSweep()
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
			// Conservation of objects: every successful allocation — fast
			// path or slow — is visible in the central stats after the
			// final safepoint published all local counters.
			total := world
			for _, c := range counts {
				total += c
			}
			if got := w.Heap.Stats().ObjectsAllocated; got != total {
				t.Fatalf("central ObjectsAllocated = %d, mutators allocated %d", got, total)
			}
			if tenanted {
				// Per-tenant conservation and settled attribution: the
				// tenants' own counters see exactly the battery's
				// allocations, and after the final collection each
				// tenant's budget counter matches the ownership table.
				w.Collect()
				w.FinishSweep()
				var byTenants uint64
				for g, ten := range tens {
					st := ten.Stats()
					byTenants += st.AllocatedObjects
					if st.AllocatedObjects != counts[g] {
						t.Fatalf("tenant %d: AllocatedObjects = %d, mutator allocated %d",
							g, st.AllocatedObjects, counts[g])
					}
					if owned := ten.OwnedBytes(); st.LiveBytes != owned {
						t.Fatalf("tenant %d: LiveBytes %d != owned bytes %d", g, st.LiveBytes, owned)
					}
				}
				if byTenants != total-world {
					t.Fatalf("sum of tenant AllocatedObjects = %d, want %d", byTenants, total-world)
				}
			}
			// No double-carve: the goroutines' surviving roots are
			// pairwise distinct addresses.
			seen := make(map[mem.Addr]int)
			for g := 0; g < nMut; g++ {
				for j := 0; j < 16; j++ {
					v, err := w.Load(mem.Addr(0x2000 + g*slotBytes + 4*j))
					if err != nil {
						t.Fatal(err)
					}
					if v == 0 {
						continue
					}
					if prev, dup := seen[mem.Addr(v)]; dup {
						t.Fatalf("address %#x rooted by mutators %d and %d", uint32(v), prev, g)
					}
					seen[mem.Addr(v)] = g
				}
			}
		})
	}
}

// hideInCycle is the battery's hide, made through handle m, whose root
// slots are the sixteen words at base of data: mid-cycle, m.Store moves
// the only reference to a white object (born white by AllocateRooted)
// into a black one (a plain Allocate's, marked when handed out and
// never scanned, rooted in a slot the finale rescans), and the white
// object's root is then cleared. The white object is large, so its
// rooted allocation cannot take a slot the cycle has marked already.
// Only the store's insertion barrier can keep it: it must be marked at
// once, and alive and still linked after the finale. A list allocated
// on the world keeps the cycle open; hideInCycle returns its node count
// (m allocates two objects more).
func hideInCycle(t *testing.T, w *World, m *Mutator, data *mem.Segment, base mem.Addr) uint64 {
	t.Helper()
	const nodes = 4000
	w.FinishConcurrentCycle()
	concLiveList(t, w, base+4*13, nodes)
	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	black, err := m.Allocate(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store(base+4*14, mem.Word(black)); err != nil {
		t.Fatal(err)
	}
	white, err := m.AllocateRooted(data, base+4*15, alloc.MaxSmallWords+88, false)
	if err != nil {
		t.Fatal(err)
	}
	if !w.ConcurrentActive() || markedNow(w, white) || !markedNow(w, black) {
		t.Fatalf("no white object beside a black one to hide it in (cycle active %v)", w.ConcurrentActive())
	}
	if err := m.Store(black, mem.Word(white)); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(base+4*15, 0); err != nil {
		t.Fatal(err)
	}
	if !markedNow(w, white) {
		t.Fatalf("%#x is white after a handle's store hid it in black %#x", uint32(white), uint32(black))
	}
	concFinish(t, w)
	if v, err := m.Load(black); err != nil || v != mem.Word(white) || !w.Heap.IsAllocated(white) {
		t.Fatalf("after the finale: %#x holds %#x (%v), %#x allocated %v",
			uint32(black), uint32(v), err, uint32(white), w.Heap.IsAllocated(white))
	}
	return nodes
}

// TestConcurrentMutatorStress is a heavier single-config run with more
// mutators than GOMAXPROCS typically provides, forcing preemption
// inside the fast path and contention on the central lock.
func TestConcurrentMutatorStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress battery skipped in -short")
	}
	cfg := Config{Generational: true, MinorDivisor: 5, FullEvery: 4, LazySweep: true}
	w := newWorld(t, cfg)
	const nMut = 16
	const slotBytes = 16 * 4
	data := addData(t, w, "roots", 0x2000, nMut*slotBytes)
	var (
		wg     sync.WaitGroup
		counts [nMut]uint64
		errs   [nMut]error
	)
	for g := 0; g < nMut; g++ {
		m := w.NewMutator()
		wg.Add(1)
		go func(g int, m *Mutator) {
			defer wg.Done()
			base := mem.Addr(0x2000 + g*slotBytes)
			counts[g], errs[g] = churnMutator(w, m, data, base, uint32(g)*0x9e3779b9+7, 500)
		}(g, m)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("mutator %d: %v", g, err)
		}
	}
	w.Collect()
	if err := w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if got := w.Heap.Stats().ObjectsAllocated; got != total {
		t.Fatalf("central ObjectsAllocated = %d, mutators allocated %d", got, total)
	}
}

// FuzzConcurrentAlloc fuzzes interleavings of allocation sizes, atomic
// flags, frees, links and collection triggers across 2–4 concurrent
// mutators, in the collector mode the mode byte picks. Each input byte
// is one operation for one mutator (round-robin): 2 op bits, 3 slot
// bits, 3 size bits. The invariants
// are the battery's: no operation errors, the final integrity audit
// passes, and the object count is conserved.
func FuzzConcurrentAlloc(f *testing.F) {
	f.Add(uint8(2), uint8(0), []byte{0x00, 0x41, 0x9a, 0xe3, 0x07, 0xff, 0x22, 0x6d})
	f.Add(uint8(3), uint8(2), []byte{0xe0, 0xe4, 0xe8, 0x02, 0x03, 0x83, 0x43, 0x23, 0x13, 0x0b})
	f.Add(uint8(4), uint8(3), []byte{0x00, 0x01, 0x02, 0x03, 0x40, 0x41, 0x42, 0x43, 0x80, 0x81, 0x82, 0x83, 0xc0, 0xc1, 0xc2, 0xc3})
	f.Add(uint8(4), uint8(4), []byte{0x07, 0x07, 0x07, 0x07, 0x0f, 0x0f, 0x0f, 0x0f, 0xc3, 0xc7, 0xcb, 0xcf})
	f.Fuzz(func(t *testing.T, nm, mode uint8, prog []byte) {
		nMut := 2 + int(nm)%3
		if len(prog) > 512 {
			prog = prog[:512]
		}
		w := newWorld(t, Modes[int(mode)%len(Modes)].Apply(Config{GCDivisor: 4}))
		const slots = 8
		const slotBytes = slots * 4
		data := addData(t, w, "roots", 0x2000, 4*slotBytes)

		// Deal the program round-robin: byte i goes to mutator i%nMut.
		progs := make([][]byte, nMut)
		for i, b := range prog {
			progs[i%nMut] = append(progs[i%nMut], b)
		}
		sizes := []int{1, 2, 4, 8, 16, 32, 64, 600}
		var (
			wg     sync.WaitGroup
			counts = make([]uint64, nMut)
			errs   = make([]error, nMut)
		)
		for g := 0; g < nMut; g++ {
			m := w.NewMutator()
			wg.Add(1)
			go func(g int, m *Mutator, ops []byte) {
				defer wg.Done()
				base := mem.Addr(0x2000 + g*slotBytes)
				var roots [slots]mem.Addr
				var atomicRoot [slots]bool
				for _, b := range ops {
					op := b & 3
					j := uint32(b>>2) & 7
					si := int(b >> 5)
					switch op {
					case 0, 1: // rooted allocation (op 1: atomic)
						p, err := m.AllocateRooted(data, base+mem.Addr(4*j), sizes[si], op == 1)
						if err != nil {
							errs[g] = err
							return
						}
						counts[g]++
						roots[j] = p
						atomicRoot[j] = op == 1
					case 2: // free the rooted object, then clear the root
						if roots[j] == 0 {
							continue
						}
						if err := m.Free(roots[j]); err != nil {
							errs[g] = err
							return
						}
						if err := m.Store(base+mem.Addr(4*j), 0); err != nil {
							errs[g] = err
							return
						}
						roots[j] = 0
					case 3: // link, collect, or garbage, by size bits
						switch si % 4 {
						case 0:
							m.Collect()
						case 1:
							m.CollectMinor()
						case 2:
							if _, err := m.Allocate(sizes[si], false); err != nil {
								errs[g] = err
								return
							}
							counts[g]++
						case 3:
							k := (j + 1) % slots
							if roots[j] != 0 && !atomicRoot[j] && roots[k] != 0 {
								if err := m.Store(roots[j], mem.Word(roots[k])); err != nil {
									errs[g] = err
									return
								}
							}
						}
					}
				}
			}(g, m, progs[g])
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("mutator %d: %v", g, err)
			}
		}
		w.Collect()
		w.FinishSweep()
		if err := w.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, c := range counts {
			total += c
		}
		if got := w.Heap.Stats().ObjectsAllocated; got != total {
			t.Fatalf("central ObjectsAllocated = %d, mutators allocated %d", got, total)
		}
	})
}

// FuzzTenantBudget fuzzes budget enforcement: 2–4 tenants with small
// budgets run a byte-scripted mix of rooted allocations, frees and
// unroots under a fuzz-chosen collector mode and over-budget policy.
// Budget denials, cancellations and evictions are expected outcomes;
// the invariants are that no other error ever surfaces, the final
// integrity audit passes, object counts are conserved through the
// tenants' own counters, and every tenant's budget accounting matches
// the allocator's ownership table exactly after every op, not only once
// settled (evicted tenants at zero).
func FuzzTenantBudget(f *testing.F) {
	f.Add(uint8(2), uint8(0), []byte{0x00, 0x41, 0x9a, 0xe3, 0x07, 0xff, 0x22, 0x6d})
	f.Add(uint8(3), uint8(1), []byte{0xe0, 0xe4, 0xe8, 0x02, 0x03, 0x83, 0x43, 0x23, 0x13, 0x0b})
	f.Add(uint8(4), uint8(2), []byte{0x07, 0x07, 0x07, 0x07, 0x0f, 0x0f, 0x0f, 0x0f, 0xc3, 0xc7, 0xcb, 0xcf})
	f.Add(uint8(2), uint8(0x15), []byte{0x00, 0x20, 0x40, 0x60, 0x80, 0xa0, 0xc0, 0xe0, 0x01, 0x21})
	f.Add(uint8(3), uint8(0x23), []byte{0xff, 0xdf, 0xbf, 0x9f, 0x7f, 0x5f, 0x3f, 0x1f})
	f.Fuzz(func(t *testing.T, nt, mode uint8, prog []byte) {
		nTen := 2 + int(nt)%3
		if len(prog) > 512 {
			prog = prog[:512]
		}
		cfg := Modes[int(mode)%len(Modes)].Apply(Config{GCDivisor: 4})
		policy := TenantPolicy(int(mode>>4) % 3)
		w := newWorld(t, cfg)
		const slots = 8
		const slotBytes = slots * 4
		data := addData(t, w, "roots", 0x2000, 4*slotBytes)
		tens := make([]*Tenant, nTen)
		muts := make([]*Mutator, nTen)
		for g := range tens {
			tens[g] = w.NewTenant(TenantConfig{BudgetBytes: 2 << 10, Policy: policy})
			muts[g] = tens[g].NewMutator()
		}
		sizes := []int{1, 2, 4, 8, 16, 32, 64, 600}
		counts := make([]uint64, nTen)
		roots := make([][slots]mem.Addr, nTen)
		// checkBooks compares every tenant's charge with its ownership
		// records as they stand after op i-1, caches warm.
		checkBooks := func(i int) {
			for h, ten := range tens {
				if st, owned := ten.Stats(), ten.OwnedBytes(); st.LiveBytes != owned {
					t.Fatalf("after op %d: tenant %d: LiveBytes %d != owned bytes %d", i-1, h, st.LiveBytes, owned)
				}
			}
		}
		for i, b := range prog {
			checkBooks(i)
			g := i % nTen
			ten, m := tens[g], muts[g]
			base := mem.Addr(0x2000 + g*slotBytes)
			op := b & 3
			j := uint32(b>>2) & 7
			si := int(b >> 5)
			switch op {
			case 0, 1: // rooted allocation (op 1: atomic)
				p, err := m.AllocateRooted(data, base+mem.Addr(4*j), sizes[si], op == 1)
				if err != nil {
					if !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, ErrTenantCancelled) {
						t.Fatalf("tenant %d op %d: %v", g, i, err)
					}
					if ten.Evicted() {
						// Eviction freed every root; drop the dangling slots.
						for k := 0; k < slots; k++ {
							if err := w.Store(base+mem.Addr(4*k), 0); err != nil {
								t.Fatal(err)
							}
							roots[g][k] = 0
						}
					}
					continue
				}
				counts[g]++
				roots[g][j] = p
			case 2: // free the rooted object, then clear the root
				if roots[g][j] == 0 {
					continue
				}
				if err := m.Free(roots[g][j]); err != nil {
					t.Fatalf("tenant %d op %d: free: %v", g, i, err)
				}
				if err := w.Store(base+mem.Addr(4*j), 0); err != nil {
					t.Fatal(err)
				}
				roots[g][j] = 0
			case 3: // unroot (make garbage) or collect, by size bits
				if si%2 == 0 {
					if err := w.Store(base+mem.Addr(4*j), 0); err != nil {
						t.Fatal(err)
					}
					roots[g][j] = 0
				} else {
					m.Collect()
				}
			}
		}
		checkBooks(len(prog))
		w.Collect()
		w.FinishSweep()
		w.Collect()
		w.FinishSweep()
		if err := w.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for g, ten := range tens {
			st := ten.Stats()
			total += st.AllocatedObjects
			if st.AllocatedObjects != counts[g] {
				t.Fatalf("tenant %d: AllocatedObjects = %d, counted %d", g, st.AllocatedObjects, counts[g])
			}
			if st.Evicted && st.LiveBytes != 0 {
				t.Fatalf("tenant %d: evicted with LiveBytes %d", g, st.LiveBytes)
			}
			if owned := ten.OwnedBytes(); st.LiveBytes != owned {
				t.Fatalf("tenant %d: LiveBytes %d != owned bytes %d", g, st.LiveBytes, owned)
			}
		}
		if got := w.Heap.Stats().ObjectsAllocated; got != total {
			t.Fatalf("central ObjectsAllocated = %d, tenants allocated %d", got, total)
		}
	})
}

// TestCollectorStartsNoGoroutine pins that nothing runs beside the
// mutators: no non-test Go file under internal/ holds a go statement.
// Every chunk of marking and sweeping runs on a goroutine that
// allocates, steps or collects; a background driver or sweeper that
// came back would only take turns with the mutators on the world lock
// (DESIGN.md §5h prices the two that went).
func TestCollectorStartsNoGoroutine(t *testing.T) {
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		files++
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: a go statement: the collector starts no goroutine", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 40 {
		t.Fatalf("walked %d non-test files under internal/, expected the whole tree", files)
	}
}
