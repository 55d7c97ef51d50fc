// Benchmarks regenerating the paper's tables and figures as testing.B
// benchmarks, one family per artifact (see DESIGN.md's experiment
// index). Sizes are reduced where a full paper-scale run per iteration
// would be excessive; cmd/gcbench runs everything at paper scale.
package repro

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/machine"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/simrand"
	"repro/internal/workload"
)

// --- E1 / Table 1: program T retention runs ---

func benchProgramT(b *testing.B, profile Profile, blacklisting bool) {
	b.ReportAllocs()
	// Reduced program T: same structure, an eighth of the data.
	profile.NodesPerList /= 8
	profile.InitialHeap /= 4
	for i := 0; i < b.N; i++ {
		env, err := profile.Build(uint64(i)+1, blacklisting)
		if err != nil {
			b.Fatal(err)
		}
		res, err := env.RunProgramT()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.RetainedFraction(), "%retained")
	}
}

func BenchmarkTable1SPARCStaticNoBlacklist(b *testing.B) {
	benchProgramT(b, platform.SPARCStatic(false), false)
}

func BenchmarkTable1SPARCStaticBlacklist(b *testing.B) {
	benchProgramT(b, platform.SPARCStatic(false), true)
}

func BenchmarkTable1SPARCDynamicNoBlacklist(b *testing.B) {
	benchProgramT(b, platform.SPARCDynamic(false), false)
}

func BenchmarkTable1SPARCDynamicBlacklist(b *testing.B) {
	benchProgramT(b, platform.SPARCDynamic(false), true)
}

func BenchmarkTable1SGIBlacklist(b *testing.B) {
	benchProgramT(b, platform.SGI(false), true)
}

func BenchmarkTable1OS2Blacklist(b *testing.B) {
	benchProgramT(b, platform.OS2(false), true)
}

func BenchmarkTable1PCRBlacklist(b *testing.B) {
	benchProgramT(b, platform.PCR(1<<20), true)
}

// programTBench is the environment of the program-T rungs and of
// perfbench's program_t row: SPARC-static, 8 lists of 100 KB in a 1 MiB
// heap (blacklisting on, machine attached, allocator residue modelled).
func programTBench() platform.Profile {
	p := platform.SPARCStatic(false)
	p.NLists, p.InitialHeap, p.HeapReserve = 8, 1<<20, 4<<20
	return p
}

// BenchmarkProgramTDirect is the rung under perfbench's program_t row:
// one RunProgramT per iteration on the clock and the image build off
// it, reported per simulated allocation — the cost of the direct path
// inside one World.Run region (no lock per call), and how many Go-heap
// allocations each allocation makes (0: what is left per run is the
// per-run set-up, a few dozen objects).
func BenchmarkProgramTDirect(b *testing.B) {
	p := programTBench()
	simAllocs := float64(p.NLists * (p.NodesPerList + 2))
	var before, after runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env, err := p.Build(uint64(i)+1, true)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		_, err = env.RunProgramT()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*simAllocs), "ns/alloc")
	b.ReportMetric(float64(mallocs)/(float64(b.N)*simAllocs), "mallocs/alloc")
}

// BenchmarkProgramTLockPair prices the world lock pair a region saves
// per call. On BenchmarkProgramTDirect's environment it runs program
// T's allocation phase — each list allocated a node at a time, linked
// and closed into a cycle in a machine frame, its head registered
// finalizable — through World's per-call methods (calls: a lock pair
// per Allocate and per Store) and inside one World.Run (region), with
// the allocations' own collections. The two rows differ by the lock
// pairs alone; ns/alloc is per simulated allocation.
func BenchmarkProgramTLockPair(b *testing.B) {
	p := programTBench()
	simAllocs := float64(p.NLists * p.NodesPerList)
	for _, region := range []bool{false, true} {
		b.Run(map[bool]string{false: "calls", true: "region"}[region], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env, err := p.Build(uint64(i)+1, true)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if region {
					err = env.World.Run(func(r *Region) error { return programTLists(env, r) })
				} else {
					err = programTLists(env, env.World)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*simAllocs), "ns/alloc")
		})
	}
}

// programTLists is program T's allocation phase on env, through c: a
// World (call by call) or a Region.
func programTLists(env *platform.Env, c interface {
	Allocate(nwords int, atomic bool) (mem.Addr, error)
	Store(a mem.Addr, v mem.Word) error
	RegisterFinalizable(a mem.Addr)
}) error {
	p := env.Profile
	return env.Machine.WithFrame(2, func(f *machine.Frame) error {
		for i := 0; i < p.NLists; i++ {
			var head mem.Addr
			err := env.Machine.WithFrame(3, func(g *machine.Frame) error {
				var prev mem.Addr
				for j := 0; j < p.NodesPerList; j++ {
					node, err := c.Allocate(p.NodeWords, false)
					if err != nil {
						return err
					}
					if prev == 0 {
						head = node
						g.Store(0, mem.Word(head))
					} else if err := c.Store(prev, mem.Word(node)); err != nil {
						return err
					}
					prev = node
					g.Store(1, mem.Word(prev))
				}
				return c.Store(prev, mem.Word(head))
			})
			if err != nil {
				return err
			}
			c.RegisterFinalizable(head)
			f.Store(0, mem.Word(head))
		}
		return nil
	})
}

// BenchmarkMutatorAllocateChurn is the rung under perfbench's
// serve_churn row, without the harness: one handle in a 1 MiB world,
// every allocation rooted into a ring of 4096 slots (so about an eighth
// of the heap is live), sizes cycling {2,4,8,16} words, every fourth
// object linked to the one before it — and the collections the
// allocation triggers, which is what keeps the free lists the carve
// reads swept rather than fresh.
func BenchmarkMutatorAllocateChurn(b *testing.B) {
	allocateChurn(b, func(w *World) *Mutator { return w.NewMutator() })
}

// BenchmarkTenantAllocateChurn is BenchmarkMutatorAllocateChurn's tape
// on a budgeted collect-first tenant's handle, which pays for each
// carve at its refill. The budget never binds, so the difference
// between the two rungs is what the tenant's books cost an allocation.
func BenchmarkTenantAllocateChurn(b *testing.B) {
	allocateChurn(b, func(w *World) *Mutator {
		return w.NewTenant(TenantConfig{BudgetBytes: 64 << 20, Policy: TenantCollectFirst}).NewMutator()
	})
}

// BenchmarkTenantAllocateTwoWorkers is perfbench's serve_tenants shape
// without the harness: sixteen budgeted collect-first tenant handles
// in a 512 KiB lazily swept world, and two goroutines,
// each round-robining eight of the handles one 32-allocation request
// at a time — the {2,4,8,16}-word tape into the handle's ring of 256
// root slots, every fourth allocation linked to the one before. An op
// is one allocation of either goroutine, so allocs/s is both together.
// Whichever goroutine's allocation starts a collection parks the other:
// lock_waits/op and lock_wait_ns/op are how often, and how long, a
// goroutine found an allocation-path lock held, and lock_wait_sleeps/op
// how often such a wait outlasted the poll and slept.
func BenchmarkTenantAllocateTwoWorkers(b *testing.B) {
	const tenants, workers, perRequest, slots, rootsBase = 16, 2, 32, 256, Addr(0x2000)
	sizes := [4]int{2, 4, 8, 16}
	w, err := NewWorld(Config{InitialHeapBytes: 512 << 10, LazySweep: true})
	if err != nil {
		b.Fatal(err)
	}
	roots, err := w.Space.MapNew("roots", KindData, rootsBase, tenants*slots*mem.WordBytes, tenants*slots*mem.WordBytes)
	if err != nil {
		b.Fatal(err)
	}
	muts := make([]*Mutator, tenants)
	for i := range muts {
		budget := uint64(4 * slots * sizes[3] * mem.WordBytes)
		muts[i] = w.NewTenant(TenantConfig{BudgetBytes: budget, Policy: TenantCollectFirst}).NewMutator()
	}
	reg := w.Metrics()
	waits0, ns0, sleeps0 := reg.Counter("lock_waits").Load(), reg.Counter("lock_wait_ns").Load(), reg.Counter("lock_wait_sleeps").Load()
	var errs [workers]struct {
		err error
		_   [56]byte // one cache line per goroutine's error
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := muts[g*tenants/workers : (g+1)*tenants/workers]
			var cursor [tenants / workers]int
			var prev Addr
			for i := 0; i < (b.N+workers-1-g)/workers; i++ {
				h := i / perRequest % len(mine)
				slot := rootsBase + Addr(((g*len(mine)+h)*slots+cursor[h])*mem.WordBytes)
				cursor[h] = (cursor[h] + 1) % slots
				p, err := mine[h].AllocateRooted(roots, slot, sizes[i&3], false)
				if err == nil && i&3 == 3 {
					err = mine[h].Store(p, Word(prev))
				}
				if err != nil {
					errs[g].err = err
					return
				}
				prev = p
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	for _, e := range errs {
		if e.err != nil {
			b.Fatal(e.err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "allocs/s")
	b.ReportMetric(float64(reg.Counter("lock_waits").Load()-waits0)/float64(b.N), "lock_waits/op")
	b.ReportMetric(float64(reg.Counter("lock_wait_ns").Load()-ns0)/float64(b.N), "lock_wait_ns/op")
	b.ReportMetric(float64(reg.Counter("lock_wait_sleeps").Load()-sleeps0)/float64(b.N), "lock_wait_sleeps/op")
}

// allocateChurn runs the churn tape on the handle newHandle makes.
func allocateChurn(b *testing.B, newHandle func(*World) *Mutator) {
	const slots, rootsBase = 4096, Addr(0x2000)
	w, err := NewWorld(Config{InitialHeapBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	roots, err := w.Space.MapNew("roots", KindData, rootsBase, slots*mem.WordBytes, slots*mem.WordBytes)
	if err != nil {
		b.Fatal(err)
	}
	m := newHandle(w)
	sizes := [4]int{2, 4, 8, 16}
	var prev Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.AllocateRooted(roots, rootsBase+Addr(i%slots*mem.WordBytes), sizes[i&3], false)
		if err != nil {
			b.Fatal(err)
		}
		if i&3 == 3 {
			if err := m.Store(p, Word(prev)); err != nil {
				b.Fatal(err)
			}
		}
		prev = p
	}
}

// BenchmarkCollectHeldCaches is the safepoint's rung on perfbench's
// serve_tenants shape, without the harness: sixteen budgeted tenant
// handles in a 512 KiB lazily swept world, each
// holding warm bump spans of the four request sizes with a few objects
// handed out of each, and a Collect that parks them, marks the slots
// their caches hold and takes them out of the survey at the close —
// flushing nothing, so every Collect finds the same caches. ns/op is
// per Collect; ns/held-slot spreads it over the slots the caches hold
// (what a flush used to return and the handles to carve again).
func BenchmarkCollectHeldCaches(b *testing.B) {
	const tenants, perSize, rootsBase = 16, 3, Addr(0x2000)
	sizes := [4]int{2, 4, 8, 16}
	w, err := NewWorld(Config{InitialHeapBytes: 512 << 10, LazySweep: true, GCDivisor: -1})
	if err != nil {
		b.Fatal(err)
	}
	slots := tenants * len(sizes) * perSize
	roots, err := w.Space.MapNew("roots", KindData, rootsBase, slots*mem.WordBytes, slots*mem.WordBytes)
	if err != nil {
		b.Fatal(err)
	}
	muts := make([]*Mutator, tenants)
	for i := range muts {
		muts[i] = w.NewTenant(TenantConfig{BudgetBytes: 1 << 20, Policy: TenantCollectFirst}).NewMutator()
		for j := 0; j < len(sizes)*perSize; j++ {
			slot := rootsBase + Addr((i*len(sizes)*perSize+j)*mem.WordBytes)
			if _, err := muts[i].AllocateRooted(roots, slot, sizes[j%len(sizes)], false); err != nil {
				b.Fatal(err)
			}
		}
	}
	w.Collect()
	held := 0
	for _, m := range muts {
		st := m.Stats()
		held += int(st.RunSlots - st.FastAllocs - st.SlowAllocs - st.FlushedSlots)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Collect()
	}
	b.StopTimer()
	if flushed := muts[0].Stats().FlushedSlots; flushed != 0 {
		b.Fatalf("collections flushed %d slots", flushed)
	}
	b.ReportMetric(float64(held), "held-slots")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*held), "ns/held-slot")
}

// BenchmarkMutatorStore is the store rung under perfbench's
// core.store_mean_ns: handles storing pointers between their own 64
// rooted objects, with no barrier to run (no cycle, not generational).
// "one" is one handle; "two" is two handles on two goroutines, each
// issuing b.N stores. ns/store is wall time per handle's store, so two
// handles that do not serialise on a common lock read what one does.
func BenchmarkMutatorStore(b *testing.B) {
	const objs, rootsBase = 64, Addr(0x2000)
	for _, n := range []struct {
		name    string
		handles int
	}{{"one", 1}, {"two", 2}} {
		b.Run(n.name, func(b *testing.B) {
			w, err := NewWorld(Config{GCDivisor: -1})
			if err != nil {
				b.Fatal(err)
			}
			roots, err := w.Space.MapNew("roots", KindData, rootsBase, n.handles*objs*mem.WordBytes, n.handles*objs*mem.WordBytes)
			if err != nil {
				b.Fatal(err)
			}
			muts := make([]*Mutator, n.handles)
			obj := make([][objs]Addr, n.handles)
			for h := range muts {
				muts[h] = w.NewMutator()
				for j := range obj[h] {
					slot := rootsBase + Addr((h*objs+j)*mem.WordBytes)
					if obj[h][j], err = muts[h].AllocateRooted(roots, slot, 4, false); err != nil {
						b.Fatal(err)
					}
				}
			}
			errs := make([]error, n.handles)
			b.ResetTimer()
			var wg sync.WaitGroup
			for h := range muts {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					m, obj := muts[h], &obj[h]
					for i := 0; i < b.N; i++ {
						word := Addr((i/objs)&3) * mem.WordBytes
						if err := m.Store(obj[i%objs]+word, Word(obj[(i+1)%objs])); err != nil {
							errs[h] = err
							return
						}
					}
				}(h)
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/store")
		})
	}
}

// BenchmarkConcurrentLiveGraph is the rung under perfbench's
// live_graph_conc row, without the harness: the same concurrent world
// (768 KiB fixed heap, about 1.28× live; the lazy sweep, MarkQuantum
// 4096, GCDivisor 16), preloaded with the same 16 384-node graph — node
// i points at node i-1 and at a random earlier node, sizes cycling
// {4,8,16} words — and one op is the same request: 32 rooted
// allocations of {2,4,8,16} words into scratch slots, every eighth
// followed by a store repointing a random node's second word at another.
// allocs/s is what perfbench's alloc_per_sec reads, and cycles/MB how
// often the live graph is marked again per megabyte allocated — the
// number the concurrent trigger moves.
func BenchmarkConcurrentLiveGraph(b *testing.B) {
	const nodes, perRequest, rootsBase = 16_384, 32, Addr(0x2000)
	w, err := NewWorld(Config{
		InitialHeapBytes: 768 << 10, ReserveHeapBytes: 768 << 10,
		ConcurrentMark: true, LazySweep: true, MarkQuantum: 4096, GCDivisor: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	rootBytes := int(mem.AlignPageUp(Addr((2 + perRequest) * mem.WordBytes)))
	roots, err := w.Space.MapNew("roots", KindData, rootsBase, rootBytes, rootBytes)
	if err != nil {
		b.Fatal(err)
	}
	m := w.NewMutator()
	rng := simrand.New(1)
	graph := make([]Addr, nodes)
	nodeSizes := [3]int{4, 8, 16}
	for i := range graph {
		// Slots 0 and 1 alternate as the head, so the newest node is
		// rooted before the previous head is dropped.
		p, err := m.AllocateRooted(roots, rootsBase+Addr(i&1*mem.WordBytes), nodeSizes[i%3], false)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			if err := m.Store(p, Word(graph[i-1])); err != nil {
				b.Fatal(err)
			}
			if err := m.Store(p+mem.WordBytes, Word(graph[rng.Intn(i)])); err != nil {
				b.Fatal(err)
			}
		}
		graph[i] = p
	}
	if err := m.Store(rootsBase+Addr(nodes&1*mem.WordBytes), 0); err != nil {
		b.Fatal(err)
	}
	sizes := [4]int{2, 4, 8, 16}
	scratch := rootsBase + 2*mem.WordBytes
	requestBytes := 0
	for j := 0; j < perRequest; j++ {
		_, words := alloc.ClassFor(sizes[j&3])
		requestBytes += words * mem.WordBytes
	}
	cycles := w.Collections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < perRequest; j++ {
			if _, err := m.AllocateRooted(roots, scratch+Addr(j*mem.WordBytes), sizes[j&3], false); err != nil {
				b.Fatal(err)
			}
			if j&7 == 7 {
				from, to := graph[rng.Intn(nodes)], graph[rng.Intn(nodes)]
				if err := m.Store(from+mem.WordBytes, Word(to)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	cycles = w.Collections() - cycles
	w.FinishConcurrentCycle()
	b.ReportMetric(float64(b.N*perRequest)/b.Elapsed().Seconds(), "allocs/s")
	b.ReportMetric(float64(cycles)/(float64(b.N*requestBytes)/(1<<20)), "cycles/MB")
}

// --- E2 / Figure 1: candidate extraction alignment ---

func benchFigure1(b *testing.B, align AlignPolicy) {
	for i := 0; i < b.N; i++ {
		res, _, err := Figure1(Figure1Options{
			StaticWords:   8192,
			HeapFillBytes: 1 << 20,
			Seed:          uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Alignment == align && !r.SkipBoundarySlot {
				b.ReportMetric(float64(r.Misidentified), "misidentified")
			}
		}
	}
}

func BenchmarkFigure1Aligned(b *testing.B)   { benchFigure1(b, AlignedWords) }
func BenchmarkFigure1Unaligned(b *testing.B) { benchFigure1(b, AnyByteOffset) }

// --- E5 / section 3.1: stack clearing ---

func benchReversal(b *testing.B, mode ReverseMode, clear ClearPolicy) {
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{
			InitialHeapBytes: 1 << 20,
			ReserveHeapBytes: 16 << 20,
			AllocatorResidue: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewMachine(w, MachineConfig{
			StackTop: 0xF0000000, StackBytes: 1 << 20,
			FrameSlopWords: 12, RegisterWindows: true,
			Clear: clear, ClearChunkWords: 24, ClearFullEvery: 4096,
			Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := workload.RunReversal(w, m, ReverseParams{
			ListLen: 250, Iterations: 120, Mode: mode, SampleEvery: 10, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MaxLiveCells), "maxlive")
	}
}

func BenchmarkStackClearingNone(b *testing.B) {
	benchReversal(b, ReverseRecursive, ClearNone)
}

func BenchmarkStackClearingCheap(b *testing.B) {
	benchReversal(b, ReverseRecursive, ClearCheap)
}

func BenchmarkStackClearingLoop(b *testing.B) {
	benchReversal(b, ReverseLoop, ClearNone)
}

// --- E4 / figures 3 and 4: grid representations ---

func benchGrid(b *testing.B, kind GridKind) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 16 << 20, GCDivisor: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := BuildGrid(w, 60, 60, kind)
	if err != nil {
		b.Fatal(err)
	}
	rng := simrand.New(1)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		objs, _ := workload.FalseRefTrial(w, g.Objects, rng)
		total += objs
	}
	b.ReportMetric(float64(total)/float64(b.N), "retained/op")
}

func BenchmarkGridRetentionEmbedded(b *testing.B) { benchGrid(b, GridEmbedded) }
func BenchmarkGridRetentionSeparate(b *testing.B) { benchGrid(b, GridSeparate) }

// --- E6 / section 4: trees and queues ---

func BenchmarkTreeRetention(b *testing.B) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 16 << 20, GCDivisor: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	t, err := workload.BuildBalancedTree(w, 14)
	if err != nil {
		b.Fatal(err)
	}
	rng := simrand.New(1)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		objs, _ := workload.FalseRefTrial(w, t.Nodes, rng)
		total += objs
	}
	b.ReportMetric(float64(total)/float64(b.N), "retained/op")
}

func benchQueue(b *testing.B, clearLinks bool) {
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{
			InitialHeapBytes: 2 << 20, ReserveHeapBytes: 32 << 20, GCDivisor: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		root, err := w.Space.MapNew("roots", KindData, 0x2000, 4096, 4096)
		if err != nil {
			b.Fatal(err)
		}
		res, err := workload.RunQueueChurn(w, 50, 5000, clearLinks, root, 0x2000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.FinalLiveObjects), "finallive")
	}
}

func BenchmarkQueueClearingOff(b *testing.B) { benchQueue(b, false) }
func BenchmarkQueueClearingOn(b *testing.B)  { benchQueue(b, true) }

// --- E7 / footnote 3: allocation latency and blacklisting cost ---

func benchAlloc8(b *testing.B, mode BlacklistMode) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20,
		ReserveHeapBytes: 8 << 20,
		Blacklisting:     mode,
		GCDivisor:        -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Allocate(2, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlloc8BlacklistOff(b *testing.B) { benchAlloc8(b, BlacklistOff) }
func BenchmarkAlloc8BlacklistOn(b *testing.B)  { benchAlloc8(b, BlacklistDense) }

// BenchmarkBlacklistOverhead isolates the figure-2 bookkeeping: marking
// a polluted root set with and without a live blacklist.
func benchMarkRoots(b *testing.B, useBlacklist bool) {
	space := mem.NewAddressSpace()
	var bl blacklist.List = blacklist.Disabled{}
	if useBlacklist {
		bl, _ = blacklist.NewDense(0x400000, 0x400000+(16<<20), mem.PageBytes)
	}
	heap, err := alloc.New(space, alloc.Config{
		HeapBase: 0x400000, InitialBytes: 8 << 20, ReserveBytes: 16 << 20, Blacklist: bl,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := mark.New(heap, mark.Config{Blacklist: bl})
	// Roots: a mixture of valid pointers, near-heap misses, and junk.
	rng := simrand.New(9)
	roots := make([]mem.Word, 65536)
	var objs []mem.Addr
	for i := 0; i < 1000; i++ {
		p, err := heap.Alloc(2, false)
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, p)
	}
	for i := range roots {
		switch rng.Intn(3) {
		case 0:
			roots[i] = mem.Word(objs[rng.Intn(len(objs))])
		case 1:
			roots[i] = mem.Word(0x400000 + rng.Uint32n(16<<20)) // near heap
		default:
			roots[i] = mem.Word(rng.Uint32())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MarkWords(roots)
		m.Drain()
		b.StopTimer()
		heap.ClearMarks()
		m.Reset()
		b.StartTimer()
	}
}

func BenchmarkBlacklistOverheadOff(b *testing.B) { benchMarkRoots(b, false) }
func BenchmarkBlacklistOverheadOn(b *testing.B)  { benchMarkRoots(b, true) }

// --- E8 / observation 7: large objects under a polluted blacklist ---

func BenchmarkLargeObjects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := LargeObjects(LargeObjectsOptions{
			HeapBytes: 4 << 20,
			SizesKB:   []int{100},
			Seed:      uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].CapacityInterior), "interior-cap")
		b.ReportMetric(float64(res.Rows[0].CapacityBase), "base-cap")
	}
}

// --- E10 / conclusions: free-block policy fragmentation ---

func benchFragmentation(b *testing.B, policy FreeBlockPolicy) {
	for i := 0; i < b.N; i++ {
		space := mem.NewAddressSpace()
		a, err := alloc.New(space, alloc.Config{
			HeapBase: 0x400000, InitialBytes: 8 << 20, ReserveBytes: 8 << 20,
			FreeBlocks: policy,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := simrand.New(uint64(i))
		var live []mem.Addr
		for round := 0; round < 4; round++ {
			for {
				p, err := a.Alloc((1+rng.Intn(4))*mem.PageWords, false)
				if err != nil {
					break
				}
				live = append(live, p)
			}
			rng.Shuffle(len(live), func(x, y int) { live[x], live[y] = live[y], live[x] })
			keep := len(live) * 2 / 5
			for _, p := range live[keep:] {
				if err := a.Free(p); err != nil {
					b.Fatal(err)
				}
			}
			live = live[:keep]
		}
		b.ReportMetric(float64(a.LargestFreeSpan()), "largest-span")
	}
}

func BenchmarkFragmentationAddressOrdered(b *testing.B) {
	benchFragmentation(b, AddressOrdered)
}

func BenchmarkFragmentationLIFO(b *testing.B) {
	benchFragmentation(b, LIFO)
}

// --- E11 / footnote 4: dual-run certification ---

func BenchmarkDualRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := DualRun(DualRunOptions{
			Lists: 30, NodesPerList: 500, FalseRoots: 200, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].ListsRetained), "single-retained")
		b.ReportMetric(float64(res.Rows[1].ListsRetained), "dual-retained")
	}
}

// --- Collector throughput: a full collection over a live list heap ---

func BenchmarkCollectLiveList(b *testing.B) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 16 << 20, GCDivisor: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
	if err != nil {
		b.Fatal(err)
	}
	head, err := MakeList(w, 200000)
	if err != nil {
		b.Fatal(err)
	}
	data.Store(0x2000, Word(head))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := w.Collect()
		if st.Sweep.ObjectsLive != 200000 {
			b.Fatalf("live = %d", st.Sweep.ObjectsLive)
		}
	}
	b.SetBytes(200000 * 8)
}

// BenchmarkFindObjectMiss measures the candidate-rejection fast path:
// root words that are NOT heap pointers, the overwhelmingly common case
// in real root scans. Half the words fall outside the reserved hull
// (rejected by two compares), half inside but invalid (full lookup).
func BenchmarkFindObjectMiss(b *testing.B) {
	space := mem.NewAddressSpace()
	heap, err := alloc.New(space, alloc.Config{
		HeapBase: 0x400000, InitialBytes: 8 << 20, ReserveBytes: 16 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := mark.New(heap, mark.Config{})
	rng := simrand.New(3)
	roots := make([]mem.Word, 65536)
	for i := range roots {
		if i%2 == 0 {
			roots[i] = mem.Word(rng.Uint32() | 0x80000000) // far outside
		} else {
			roots[i] = mem.Word(0x400000 + (8 << 20) + rng.Uint32n(8<<20)) // vicinity
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MarkWords(roots)
	}
	b.SetBytes(int64(len(roots) * 4))
}

// hitHeap builds a heap of 4-, 8- and 16-word objects and returns it
// with 65536 candidates that all resolve, half of them interior.
func hitHeap(b *testing.B) (*alloc.Allocator, []mem.Addr) {
	heap, err := alloc.New(mem.NewAddressSpace(), alloc.Config{
		HeapBase: 0x400000, InitialBytes: 1 << 20, ReserveBytes: 16 << 20,
		InteriorPointers: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	sizes := [3]int{4, 8, 16}
	objs := make([]mem.Addr, 16384)
	for i := range objs {
		if objs[i], err = heap.Alloc(sizes[i%len(sizes)], false); err != nil {
			b.Fatal(err)
		}
	}
	rng := simrand.New(5)
	cands := make([]mem.Addr, 65536)
	for i := range cands {
		cands[i] = objs[rng.Intn(len(objs))] + mem.Addr(i&1)*mem.WordBytes
	}
	return heap, cands
}

// BenchmarkFindObjectHit measures the validity check on candidates that
// do resolve — the case a heap scan meets, where BenchmarkFindObjectMiss
// covers the root scan's.
func BenchmarkFindObjectHit(b *testing.B) {
	heap, cands := hitHeap(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range cands {
			if _, ok := heap.FindObject(p, true); !ok {
				b.Fatalf("candidate %#x did not resolve", uint32(p))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/candidate")
}

// BenchmarkMarkCandidate measures the fused per-candidate step of the
// mark loop (validity check, mark bit, object span) on the same
// candidates; most calls find the object already marked, as most heap
// edges do.
func BenchmarkMarkCandidate(b *testing.B) {
	heap, cands := hitHeap(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range cands {
			if _, out := heap.MarkCandidate(p, true); out == alloc.NotObject {
				b.Fatalf("candidate %#x did not resolve", uint32(p))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/candidate")
}

// BenchmarkStoreBarrier prices World.Store, write barrier included, in
// the three states a store can find the collector in: no cycle active
// ("idle": one branch), a concurrent cycle marking and the stored value
// the address of an object that is marked already ("marked": the
// barrier's validity check finds the bit set — what most stores of a
// long cycle see), and the stored value the address of an object no
// marker has reached ("unmarked": the barrier marks it and pushes it).
// Nothing marks beside the stores: the cycle is opened explicitly and
// the benchmark neither allocates nor steps it. The targets of "unmarked" are a chain hanging off one
// root, of which the snapshot marks only the head.
func BenchmarkStoreBarrier(b *testing.B) {
	const chain = 1 << 14
	for _, state := range []string{"idle", "marked", "unmarked"} {
		b.Run(state, func(b *testing.B) {
			w, err := NewWorld(Config{
				ConcurrentMark: true, GCDivisor: -1, InitialHeapBytes: 1 << 20,
			})
			if err != nil {
				b.Fatal(err)
			}
			data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
			if err != nil {
				b.Fatal(err)
			}
			alloc2 := func() Addr {
				p, err := w.Allocate(2, false)
				if err != nil {
					b.Fatal(err)
				}
				return p
			}
			holder := alloc2()
			data.Store(0x2000, Word(holder))
			targets := make([]Addr, chain)
			for i := range targets {
				targets[i] = alloc2()
				if i > 0 {
					w.Store(targets[i-1], Word(targets[i]))
				}
			}
			data.Store(0x2004, Word(targets[0]))
			open := func() {
				if state == "idle" {
					return
				}
				if err := w.StartConcurrentCycle(); err != nil {
					b.Fatal(err)
				}
				if state == "marked" {
					// One pass of stores marks every target; the timed
					// passes then find them all marked.
					for _, p := range targets {
						w.Store(holder, Word(p))
					}
				}
			}
			open()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Store(holder, Word(targets[i%chain])); err != nil {
					b.Fatal(err)
				}
				if state == "unmarked" && i%chain == chain-1 {
					// Every target is marked now: start over on a fresh
					// cycle, off the clock.
					b.StopTimer()
					w.FinishConcurrentCycle()
					open()
					b.StartTimer()
				}
			}
			b.StopTimer()
			w.FinishConcurrentCycle()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/store")
		})
	}
}

// ownerHeap builds the heap the two ownership benchmarks share: 8-word
// objects, room for 16384 of them.
func ownerHeap(b *testing.B) *alloc.Allocator {
	heap, err := alloc.New(mem.NewAddressSpace(), alloc.Config{
		HeapBase: 0x400000, InitialBytes: 1 << 20, ReserveBytes: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	heap.SetOwnerCredit(func(int32, uint64, uint64) {})
	return heap
}

// carveSpans carves n slots as a cache refill does, a whole hole at a
// time.
func carveSpans(b *testing.B, heap *alloc.Allocator, n int) []alloc.Span {
	var spans []alloc.Span
	for got := 0; got < n; {
		s, err := heap.AllocSpan(8, false)
		if err != nil {
			b.Fatal(err)
		}
		spans = append(spans, s)
		got += int(s.Limit-s.Cursor) / (8 * mem.WordBytes)
	}
	return spans
}

// BenchmarkOwnerTagRun measures tenant ownership tagging at the carve's
// granularity: per slot, one tag when a cache refill carves it and one
// untag when a safepoint flushes it unconsumed. Each span's first slot
// stays tagged, as the slot a refill hands out does.
func BenchmarkOwnerTagRun(b *testing.B) {
	const stride = 8 * mem.WordBytes
	heap := ownerHeap(b)
	spans := carveSpans(b, heap, 16384)
	slots := 0
	for _, s := range spans {
		heap.TagOwner(s.Cursor, 1)
		slots += int(s.Limit-s.Cursor)/stride - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range spans {
			heap.TagOwnerSpan(s.Cursor+stride, s.Limit, int32(1+j%16))
		}
		for _, s := range spans {
			heap.UntagOwnerSpan(s.Cursor+stride, s.Limit)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
}

// BenchmarkReconcileOwners measures the collection barrier's ownership
// reconcile over 16384 records of which every other one just died. Only
// the reconcile is in ns/record; ns/op also covers each round's set-up
// (mark, sweep, reallocate the dead half).
func BenchmarkReconcileOwners(b *testing.B) {
	heap := ownerHeap(b)
	var objs []mem.Addr
	for j, s := range carveSpans(b, heap, 16384) {
		heap.TagOwnerSpan(s.Cursor, s.Limit, int32(1+j%16))
		for p := s.Cursor; p < s.Limit; p += 8 * mem.WordBytes {
			objs = append(objs, p)
		}
	}
	var reconcile time.Duration
	for i := 0; i < b.N; i++ {
		for k := 0; k < len(objs); k += 2 {
			heap.Mark(objs[k])
		}
		heap.Sweep()
		start := time.Now()
		dead, _ := heap.ReconcileOwners()
		reconcile += time.Since(start)
		if dead != uint64(len(objs)/2) {
			b.Fatalf("reconcile credited %d objects, want %d", dead, len(objs)/2)
		}
		// Reallocate the dead half in place for the next round.
		for j, s := range carveSpans(b, heap, len(objs)/2) {
			heap.TagOwnerSpan(s.Cursor, s.Limit, int32(1+j%16))
		}
	}
	b.ReportMetric(float64(reconcile.Nanoseconds())/float64(b.N*len(objs)), "ns/record")
}

// --- E12 / section 3.1 end: generational ceiling ---

func benchGenerational(b *testing.B, clear ClearPolicy) {
	for i := 0; i < b.N; i++ {
		res, _, err := GenerationalCeiling(GenerationalOptions{
			Iterations: 100, BatchCells: 100, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Clear == clear {
				b.ReportMetric(float64(r.GarbageTenured), "garbage-tenured")
			}
		}
	}
}

func BenchmarkGenerationalCeilingNoClear(b *testing.B) { benchGenerational(b, ClearNone) }
func BenchmarkGenerationalCeilingEager(b *testing.B)   { benchGenerational(b, ClearEager) }

// BenchmarkMinorVsFullCollection compares the per-cycle cost of minor
// and full collections over a mostly-old heap, the payoff generational
// collection exists for.
func BenchmarkMinorCollection(b *testing.B) { benchMinorFull(b, true) }
func BenchmarkFullCollection(b *testing.B)  { benchMinorFull(b, false) }

func benchMinorFull(b *testing.B, minor bool) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 16 << 20,
		Generational: true, GCDivisor: -1, MinorDivisor: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
	if err != nil {
		b.Fatal(err)
	}
	head, err := workload.MakeListRooted(w, 100000, data, 0x2000)
	if err != nil {
		b.Fatal(err)
	}
	data.Store(0x2000, Word(head))
	w.Collect() // tenure the list
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if minor {
			w.CollectMinor()
		} else {
			w.Collect()
		}
	}
}
