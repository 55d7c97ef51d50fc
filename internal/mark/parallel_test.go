package mark

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// parallelFixture builds a heap with a deterministic object graph plus
// a root word area, so serial and sharded marks can be compared. The
// graph mixes: linked chains, a wide fan-out object big enough to
// trigger stack spilling, atomic objects, dead objects, interior
// references, and near-heap junk that must be blacklisted.
type parallelFixture struct {
	heap  *alloc.Allocator
	bl    *blacklist.Dense
	roots []mem.Word
	objs  []mem.Addr // every allocated object, live or dead
}

func newParallelFixture(t *testing.T, interior bool) *parallelFixture {
	t.Helper()
	space := mem.NewAddressSpace()
	reserve := 4096 * mem.PageBytes
	bl, err := blacklist.NewDense(heapBase, heapBase+mem.Addr(reserve), mem.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := alloc.New(space, alloc.Config{
		HeapBase:         heapBase,
		InitialBytes:     1024 * mem.PageBytes,
		ReserveBytes:     reserve,
		Blacklist:        bl,
		InteriorPointers: interior,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &parallelFixture{heap: heap, bl: bl}
	allocObj := func(words int, atomic bool) mem.Addr {
		p, err := heap.Alloc(words, atomic)
		if err != nil {
			t.Fatal(err)
		}
		f.objs = append(f.objs, p)
		return p
	}
	store := func(a mem.Addr, v mem.Word) {
		if err := heap.Seg().Store(a, v); err != nil {
			t.Fatal(err)
		}
	}
	rng := simrand.New(0xD1FF)
	// 32 chains of 100 nodes, interleaved with dead objects.
	for c := 0; c < 32; c++ {
		var head mem.Addr
		for i := 0; i < 100; i++ {
			n := allocObj(4, false)
			store(n, mem.Word(head))
			head = n
			if rng.Uint32()%3 == 0 {
				allocObj(2+int(rng.Uint32()%8), false) // dead
			}
		}
		f.roots = append(f.roots, mem.Word(head))
	}
	// A wide fan-out: one large object pointing at 10000 leaves, so a
	// single worker's stack exceeds spillThreshold and sheds work.
	fan := allocObj(10000, false)
	for i := 0; i < 10000; i++ {
		leaf := allocObj(2, false)
		store(fan+mem.Addr(i*mem.WordBytes), mem.Word(leaf))
	}
	f.roots = append(f.roots, mem.Word(fan))
	// Atomic objects: marked, never scanned.
	for i := 0; i < 8; i++ {
		f.roots = append(f.roots, mem.Word(allocObj(16, true)))
	}
	// Interior references (resolve only under PointerInterior).
	inner := allocObj(32, false)
	f.roots = append(f.roots, mem.Word(inner+20))
	// Near-heap junk: committed-but-free and reserved-but-uncommitted
	// addresses, which blacklist their pages.
	f.roots = append(f.roots, mem.Word(heap.Limit()-2), mem.Word(heap.Limit()+0x100))
	// Non-pointer noise, as root areas mostly hold.
	for len(f.roots) < 4096 {
		f.roots = append(f.roots, mem.Word(rng.Uint32()))
	}
	return f
}

// markedSet returns the marked subset of the fixture's objects.
func (f *parallelFixture) markedSet() map[mem.Addr]bool {
	set := map[mem.Addr]bool{}
	for _, p := range f.objs {
		if f.heap.Marked(p) {
			set[p] = true
		}
	}
	return set
}

// runSerial marks the fixture's roots with a plain Marker.
func (f *parallelFixture) runSerial(cfg Config) Stats {
	cfg.Blacklist = f.bl
	m := New(f.heap, cfg)
	m.MarkWords(f.roots)
	m.Drain()
	return m.Stats()
}

// runParallel marks the fixture's roots as a detached cycle does (see
// detachedMark) on n workers, and reports the shards' spills.
func (f *parallelFixture) runParallel(cfg Config, n int) (Stats, int) {
	cfg.Blacklist = f.bl
	p := NewParallel(f.heap, cfg, n)
	rec := trace.New(0)
	p.SetTracer(rec)
	got := detachedMark(f.heap, cfg, p, f.roots)
	spills := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvMarkSpill {
			spills++
		}
	}
	return got, spills
}

// detachedMark is one detached cycle's marking without core around it:
// the snapshot's serial root scan, its gray set handed to p, the workers
// racing for it on goroutines of their own (runWorkers), and the finale.
// It returns the cycle's counters, the root scan's included.
func detachedMark(heap *alloc.Allocator, cfg Config, p *Parallel, roots []mem.Word) Stats {
	m := New(heap, cfg)
	m.MarkWords(roots)
	p.ResetCycle()
	p.AddGrays(m.TakePending())
	p.FlushStaged()
	runWorkers(p)
	s := m.Stats()
	s.Add(p.AggStats())
	return s
}

// runWorkers drives p's workers as core's detached workers run: every
// worker index on a goroutine of its own, pulling bounded chunks until
// one finds nothing to do, then the finale's DrainKept on the caller
// for whatever a late spill left on the queue or a stack.
func runWorkers(p *Parallel) {
	var wg sync.WaitGroup
	for i := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if work, _ := p.DetachedChunk(i, 64, nil); work == 0 {
					return
				}
			}
		}()
	}
	wg.Wait()
	p.DrainKept()
}

func granules(d *blacklist.Dense) []mem.Addr { return d.Granules() }

// TestParallelMatchesSerial is the shard engine's differential: the
// fixture marked as a detached cycle marks it — a serial root scan
// handed to 2, 4 or 8 workers racing on goroutines, whose fan-out
// crosses spillThreshold so gray chunks change hands through the queue —
// yields the serial Marker's statistics, marked set and blacklist
// exactly.
func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interior bool
		cfg      Config
	}{
		{"base-aligned", false, Config{Policy: PointerBase, Alignment: AlignedWords}},
		{"interior-aligned", true, Config{Policy: PointerInterior, Alignment: AlignedWords}},
		{"base-unaligned", false, Config{Policy: PointerBase, Alignment: AnyByteOffset}},
		{"interior-unaligned", true, Config{Policy: PointerInterior, Alignment: AnyByteOffset}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newParallelFixture(t, tc.interior)
			want := ref.runSerial(tc.cfg)
			wantSet := ref.markedSet()
			wantBL := granules(ref.bl)
			if want.ObjectsMarked == 0 || want.FalseNearHeap == 0 || want.AtomicSkipped == 0 {
				t.Fatalf("fixture not exercising enough: %+v", want)
			}
			for _, n := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
					f := newParallelFixture(t, tc.interior)
					got, spills := f.runParallel(tc.cfg, n)
					if spills == 0 {
						t.Error("the fan-out never spilled: no gray chunk changed hands")
					}
					if got != want {
						t.Errorf("stats diverge:\nserial   %+v\nparallel %+v", want, got)
					}
					gotSet := f.markedSet()
					if len(gotSet) != len(wantSet) {
						t.Fatalf("marked %d objects, serial marked %d", len(gotSet), len(wantSet))
					}
					for i, p := range f.objs {
						if gotSet[p] != wantSet[ref.objs[i]] {
							t.Fatalf("object %d (%#x) marked=%v, serial %v",
								i, uint32(p), gotSet[p], wantSet[ref.objs[i]])
						}
					}
					gotBL := granules(f.bl)
					if len(gotBL) != len(wantBL) {
						t.Fatalf("blacklist granules %d, serial %d", len(gotBL), len(wantBL))
					}
					for i := range gotBL {
						if gotBL[i] != wantBL[i] {
							t.Fatalf("blacklist granule %d = %#x, serial %#x",
								i, uint32(gotBL[i]), uint32(wantBL[i]))
						}
					}
				})
			}
		})
	}
}

// TestParallelReusableAcrossCycles: ResetCycle readies the same shards
// for the next detached cycle, so two cycles over the same heap count
// the same.
func TestParallelReusableAcrossCycles(t *testing.T) {
	f := newParallelFixture(t, false)
	cfg := Config{Policy: PointerBase, Alignment: AlignedWords, Blacklist: f.bl}
	p := NewParallel(f.heap, cfg, 4)
	first := detachedMark(f.heap, cfg, p, f.roots)
	f.heap.ClearMarks()
	second := detachedMark(f.heap, cfg, p, f.roots)
	if first != second {
		t.Fatalf("cycles diverge:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestParallelSparseRoots feeds a register file's worth of single
// values through the insertion barrier's step on the assist shard
// (Shade), publishes what it shaded and lets the workers drain it: the
// same counters as a serial Marker given the nonzero values one by one.
func TestParallelSparseRoots(t *testing.T) {
	f := newParallelFixture(t, false)
	cfg := Config{Policy: PointerBase, Alignment: AlignedWords, Blacklist: f.bl}

	serial := New(f.heap, cfg)
	for _, v := range f.roots {
		if v != 0 {
			serial.MarkValue(v)
		}
	}
	serial.Drain()
	want := serial.Stats()
	f.heap.ClearMarks()

	p := NewParallel(f.heap, cfg, 4)
	p.ResetCycle()
	for i, v := range f.roots {
		p.Shade(RootOrigin{Kind: RootRegister}, int32(i), v)
	}
	p.PublishAssist()
	runWorkers(p)
	if got := p.AggStats(); got != want {
		t.Fatalf("stats diverge:\nserial   %+v\nparallel %+v", want, got)
	}
}
