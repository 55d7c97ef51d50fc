package mark

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// parallelFixture builds a heap with a deterministic object graph plus
// a root word area, so one marker's mark and several markers' can be
// compared. The graph mixes: linked chains, a wide fan-out object,
// atomic objects, dead objects, interior references, and near-heap
// junk that must be blacklisted.
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
	// A wide fan-out: one large object pointing at 10000 leaves, so the
	// gray set outgrows many chunks.
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

// runParallel marks the fixture's roots with n markers over the one
// heap (see markInTurns) and returns their summed counters and how
// many of them scanned anything.
func (f *parallelFixture) runParallel(cfg Config, n int) (Stats, int) {
	cfg.Blacklist = f.bl
	markers := make([]*Marker, n)
	for i := range markers {
		markers[i] = New(f.heap, cfg)
	}
	return markInTurns(markers, f.roots)
}

// markInTurns is marking by several markers that share nothing but the
// heap's mark bits: the first scans the roots, its gray set is dealt
// out among all of them, and they take turns draining a chunk of 64
// objects each until every stack is empty. It returns the markers'
// summed counters, the root scan's included, and how many of them
// scanned any field.
func markInTurns(markers []*Marker, roots []mem.Word) (Stats, int) {
	for _, m := range markers {
		m.Reset()
	}
	markers[0].MarkWords(roots)
	grays := append([]alloc.Gray(nil), markers[0].stack...)
	markers[0].stack = markers[0].stack[:0]
	for i, g := range grays {
		m := markers[i%len(markers)]
		m.stack = append(m.stack, g)
	}
	for busy := true; busy; {
		busy = false
		for _, m := range markers {
			if !m.DrainN(64) {
				busy = true
			}
		}
	}
	var sum Stats
	scanned := 0
	for _, m := range markers {
		sum = addStats(sum, m.Stats())
		if m.Stats().FieldsScanned > 0 {
			scanned++
		}
	}
	return sum, scanned
}

// addStats sums two markers' counters field by field.
func addStats(a, b Stats) Stats {
	a.WordsScanned += b.WordsScanned
	a.Candidates += b.Candidates
	a.ObjectsMarked += b.ObjectsMarked
	a.BytesMarked += b.BytesMarked
	a.FieldsScanned += b.FieldsScanned
	a.FalseNearHeap += b.FalseNearHeap
	a.AtomicSkipped += b.AtomicSkipped
	a.InteriorResolved += b.InteriorResolved
	return a
}

func granules(d *blacklist.Dense) []mem.Addr { return d.Granules() }

// TestParallelMatchesSerial: marking is a monotone closure, so markers
// that share the heap's mark bits and nothing else — a root scan's gray
// set dealt out to 2, 4 or 8 plain markers that drain it in turns —
// yield the one Marker's statistics, marked set and blacklist exactly.
// The marks being the only shared state is what the mark loop's
// "halves2" benchmark rung leans on.
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
					got, scanned := f.runParallel(tc.cfg, n)
					if scanned != n {
						t.Errorf("%d of %d markers scanned anything", scanned, n)
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

// TestParallelReusableAcrossCycles: Reset readies the same markers for
// the next cycle, so two cycles over the same heap count the same.
func TestParallelReusableAcrossCycles(t *testing.T) {
	f := newParallelFixture(t, false)
	cfg := Config{Policy: PointerBase, Alignment: AlignedWords, Blacklist: f.bl}
	markers := []*Marker{New(f.heap, cfg), New(f.heap, cfg), New(f.heap, cfg), New(f.heap, cfg)}
	first, _ := markInTurns(markers, f.roots)
	f.heap.ClearMarks()
	second, _ := markInTurns(markers, f.roots)
	if first != second {
		t.Fatalf("cycles diverge:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestParallelSparseRoots feeds a register file's worth of single
// values through the insertion barrier's step (Shade) and drains what
// it shaded: the same counters as a Marker given the nonzero values one
// by one.
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

	m := New(f.heap, cfg)
	for i, v := range f.roots {
		m.Shade(RootOrigin{Kind: RootRegister}, int32(i), v)
	}
	m.Drain()
	if got := m.Stats(); got != want {
		t.Fatalf("stats diverge:\nMarkValue %+v\nShade     %+v", want, got)
	}
}
