package mark

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// Equivalence tests for the mark loop (Marker.scan): seeded heaps that
// hold every block state the loop can meet are marked by the loop and by
// an unfused word-at-a-time reference, through popped gray entries and
// through ScanObject's by-base entries, and by every driver; the counts,
// the marked set, the order of blacklist additions and the provenance
// records must not depend on the way in.

// addLog is a blacklist that only remembers what was added, in order.
type addLog struct {
	blacklist.Disabled
	adds []mem.Addr
}

func (l *addLog) Add(a mem.Addr) { l.adds = append(l.adds, a) }

// mixedHeap is a seeded heap of small conservative, atomic and typed
// objects, large objects and ignore-off-page large objects, some freed
// again, every word of every survivor filled with a mix of base and
// interior pointers, near-heap misses, junk and zeros.
type mixedHeap struct {
	space *mem.AddressSpace
	heap  *alloc.Allocator
	bl    *addLog
	objs  []mem.Addr
	masks map[mem.Addr][]bool // typed objects' pointer masks
	roots []mem.Word
}

func newMixedHeap(t testing.TB, seed uint64, extents int, interior bool) *mixedHeap {
	t.Helper()
	h := &mixedHeap{space: mem.NewAddressSpace(), bl: &addLog{}, masks: map[mem.Addr][]bool{}}
	cfg := alloc.Config{
		HeapBase:         heapBase,
		InitialBytes:     32 * mem.PageBytes,
		ReserveBytes:     512 * mem.PageBytes,
		ExpandIncrement:  mem.PageBytes,
		Blacklist:        h.bl,
		InteriorPointers: interior,
	}
	if extents > 1 {
		cfg.ReserveBytes = cfg.InitialBytes
		cfg.DiscontiguousGrowth = true
		cfg.ExtentGapBytes = 1 << 20
		cfg.ExtentReserveBytes = 256 * mem.PageBytes
	}
	var err error
	if h.heap, err = alloc.New(h.space, cfg); err != nil {
		t.Fatal(err)
	}
	narrow := []bool{true, false, true}
	wide := make([]bool, 70) // crosses a 64-bit mask word
	for _, i := range []int{0, 1, 63, 64, 69} {
		wide[i] = true
	}
	var ids [2]alloc.DescID
	for i, mask := range [][]bool{narrow, wide} {
		if ids[i], err = h.heap.RegisterDescriptor(mask); err != nil {
			t.Fatal(err)
		}
	}
	rng := simrand.New(seed)
	grow := func(f func() (mem.Addr, error)) mem.Addr {
		p, err := f()
		for err == alloc.ErrNeedMemory {
			if err := h.heap.Expand(mem.PageBytes); err != nil {
				t.Fatalf("expand: %v", err)
			}
			p, err = f()
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	smallSizes := []int{1, 2, 3, 4, 8, 16, 40, 170}
	var all []mem.Addr
	for i := 0; i < 700 || h.heap.Extents() < extents; i++ {
		var p mem.Addr
		switch k := rng.Intn(20); {
		case k < 10:
			p = grow(func() (mem.Addr, error) { return h.heap.Alloc(smallSizes[rng.Intn(len(smallSizes))], false) })
		case k < 13:
			p = grow(func() (mem.Addr, error) { return h.heap.Alloc(smallSizes[rng.Intn(len(smallSizes))], true) })
		case k < 16:
			j := rng.Intn(2)
			p = grow(func() (mem.Addr, error) { return h.heap.AllocTyped(ids[j]) })
			h.masks[p] = [][]bool{narrow, wide}[j]
		case k < 18:
			p = grow(func() (mem.Addr, error) { return h.heap.Alloc(mem.PageWords+1+rng.Intn(600), k == 17) })
		default:
			p = grow(func() (mem.Addr, error) { return h.heap.AllocIgnoreOffPage(2*mem.PageWords+rng.Intn(300), false) })
		}
		all = append(all, p)
	}
	// Free every seventh object: free slots inside live blocks and free
	// blocks mid-heap, all of them near-heap misses from now on.
	var freed []mem.Addr
	for i, p := range all {
		if i%7 == 3 {
			if err := h.heap.Free(p); err != nil {
				t.Fatal(err)
			}
			delete(h.masks, p)
			freed = append(freed, p)
		} else {
			h.objs = append(h.objs, p)
		}
	}
	_, hullHi := h.heap.Hull()
	word := func() mem.Word {
		switch k := rng.Intn(20); {
		case k < 6:
			return 0
		case k < 12:
			return mem.Word(h.objs[rng.Intn(len(h.objs))])
		case k < 15: // any byte inside an object: first page, deep page, unaligned
			p := h.objs[rng.Intn(len(h.objs))]
			words, _ := h.heap.ObjectSpan(p)
			return mem.Word(p + mem.Addr(rng.Intn(words*mem.WordBytes)))
		case k < 16:
			return mem.Word(freed[rng.Intn(len(freed))])
		case k < 17: // reserved but not committed, or the gap between extents
			return mem.Word(hullHi - 8 - mem.Addr(rng.Intn(1<<16)))
		default:
			return mem.Word(rng.Uint32())
		}
	}
	for _, p := range h.objs {
		words, _ := h.heap.ObjectSpan(p)
		for i := 0; i < words; i++ {
			if err := h.space.Store(p+mem.Addr(i*mem.WordBytes), word()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 96; i++ {
		h.roots = append(h.roots, word())
	}
	return h
}

// markedSet returns the marked survivors.
func (h *mixedHeap) markedSet() map[mem.Addr]bool {
	set := map[mem.Addr]bool{}
	for _, p := range h.objs {
		if h.heap.Marked(p) {
			set[p] = true
		}
	}
	return set
}

// refMarker is figure 2 the unfused way: FindObject, Marked, Mark and
// ObjectSpan per candidate, one address-space load per word, descriptor
// masks consulted word by word, a stack of base addresses.
type refMarker struct {
	h        *mixedHeap
	interior bool
	stack    []mem.Addr
	stats    Stats
}

func (r *refMarker) markValue(v mem.Word) {
	r.stats.Candidates++
	heap, p := r.h.heap, mem.Addr(v)
	base, ok := heap.FindObject(p, r.interior)
	if !ok {
		if heap.InVicinity(p) {
			r.stats.FalseNearHeap++
			r.h.bl.Add(p)
		}
		return
	}
	if p != base {
		r.stats.InteriorResolved++
	}
	if heap.Marked(base) {
		return
	}
	heap.Mark(base)
	words, atomic := heap.ObjectSpan(base)
	r.stats.ObjectsMarked++
	r.stats.BytesMarked += uint64(words * mem.WordBytes)
	if atomic {
		r.stats.AtomicSkipped++
		return
	}
	r.stack = append(r.stack, base)
}

func (r *refMarker) markWords(words []mem.Word, unaligned bool) {
	r.stats.WordsScanned += uint64(len(words))
	for _, w := range words {
		r.markValue(w)
	}
	if !unaligned {
		return
	}
	for i := 0; i+1 < len(words); i++ {
		hi, lo := uint32(words[i]), uint32(words[i+1])
		r.markValue(mem.Word(hi<<8 | lo>>24))
		r.markValue(mem.Word(hi<<16 | lo>>16))
		r.markValue(mem.Word(hi<<24 | lo>>8))
	}
}

func (r *refMarker) drain(t testing.TB) {
	for len(r.stack) > 0 {
		base := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		words, _ := r.h.heap.ObjectSpan(base)
		mask, typed := r.h.masks[base]
		for i := 0; i < words; i++ {
			if typed && (i >= len(mask) || !mask[i]) {
				continue
			}
			r.stats.FieldsScanned++
			w, err := r.h.space.Load(base + mem.Addr(i*mem.WordBytes))
			if err != nil {
				t.Fatal(err)
			}
			if w != 0 {
				r.markValue(w)
			}
		}
	}
}

var loopShapes = []struct {
	name      string
	extents   int
	policy    PointerPolicy
	alignment AlignPolicy
}{
	{"base", 1, PointerBase, AlignedWords},
	{"interior", 1, PointerInterior, AlignedWords},
	{"interior-unaligned-roots", 1, PointerInterior, AnyByteOffset},
	{"two-extents-base", 2, PointerBase, AlignedWords},
	{"two-extents-interior", 2, PointerInterior, AnyByteOffset},
}

// requireZoo fails unless the marked heap exercised every path the
// equivalence is meant to cover.
func requireZoo(t *testing.T, h *mixedHeap, s Stats, interior bool) {
	t.Helper()
	if s.ObjectsMarked < 100 || s.AtomicSkipped == 0 || s.FalseNearHeap == 0 || len(h.bl.adds) == 0 {
		t.Fatalf("heap too tame: %+v, %d blacklist adds", s, len(h.bl.adds))
	}
	if interior && s.InteriorResolved == 0 {
		t.Fatalf("no interior candidate resolved: %+v", s)
	}
	typed, large := 0, 0
	for p := range h.markedSet() {
		if _, ok := h.masks[p]; ok {
			typed++
		}
		if words, _ := h.heap.ObjectSpan(p); words > alloc.MaxSmallWords {
			large++
		}
	}
	if typed == 0 || large == 0 {
		t.Fatalf("marked %d typed and %d large objects, want both kinds", typed, large)
	}
}

// TestScanLoopMatchesUnfusedReference marks twin heaps with the loop and
// with the reference: all eight counters, the marked set and the
// blacklist's add sequence must be equal. The "cas=true" rows — named
// for the compare-and-swap marking they once ran — start with every
// fifth object marked on both heaps, as a concurrent cycle's chunks meet
// objects born black: marked, and never scanned.
func TestScanLoopMatchesUnfusedReference(t *testing.T) {
	for _, sh := range loopShapes {
		for _, premarked := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/cas=%v/seed=%d", sh.name, premarked, seed), func(t *testing.T) {
					interior := sh.policy == PointerInterior
					got, want := newMixedHeap(t, seed, sh.extents, interior), newMixedHeap(t, seed, sh.extents, interior)
					if got.heap.Extents() < sh.extents {
						t.Fatalf("%d extents, want %d", got.heap.Extents(), sh.extents)
					}
					for i := 0; premarked && i < len(got.objs); i += 5 {
						got.heap.Mark(got.objs[i])
						want.heap.Mark(want.objs[i])
					}
					m := New(got.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: got.bl})
					m.MarkWords(got.roots)
					m.Drain()

					r := &refMarker{h: want, interior: interior}
					r.markWords(want.roots, sh.alignment == AnyByteOffset)
					r.drain(t)

					if m.Stats() != r.stats {
						t.Errorf("stats\n loop %+v\n ref  %+v", m.Stats(), r.stats)
					}
					if !reflect.DeepEqual(got.markedSet(), want.markedSet()) {
						t.Errorf("marked sets differ: loop %d objects, reference %d", len(got.markedSet()), len(want.markedSet()))
					}
					if !reflect.DeepEqual(got.bl.adds, want.bl.adds) {
						t.Errorf("blacklist add sequences differ: loop %d adds, reference %d", len(got.bl.adds), len(want.bl.adds))
					}
					requireZoo(t, got, m.Stats(), interior)
					if err := got.heap.CheckIntegrity(nil); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestScanObjectMatchesDrain drives one heap by Drain (popped gray
// entries) and its twin by ScanObject alone (entries rebuilt from base
// addresses, the stack emptied after every object), recording
// provenance: same counters, same marks, same blacklist adds and the
// same parent records in the same order.
func TestScanObjectMatchesDrain(t *testing.T) {
	for _, sh := range loopShapes {
		t.Run(sh.name, func(t *testing.T) {
			interior := sh.policy == PointerInterior
			popped, byBase := newMixedHeap(t, 7, sh.extents, interior), newMixedHeap(t, 7, sh.extents, interior)
			org := RootOrigin{Kind: RootSegment, Src: 3, Base: 0x2000}

			pm := New(popped.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: popped.bl})
			pm.StartRecording()
			pm.MarkRootArea(org, popped.roots)
			pm.Drain()

			bm := New(byBase.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: byBase.bl})
			bm.StartRecording()
			bm.MarkRootArea(org, byBase.roots)
			var stack []mem.Addr
			take := func() {
				for _, g := range bm.stack {
					stack = append(stack, g.Base())
				}
				bm.stack = bm.stack[:0]
			}
			for take(); len(stack) > 0; take() {
				base := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				bm.ScanObject(base)
			}

			if pm.Stats() != bm.Stats() {
				t.Errorf("stats\n popped  %+v\n by base %+v", pm.Stats(), bm.Stats())
			}
			if !reflect.DeepEqual(popped.markedSet(), byBase.markedSet()) {
				t.Error("marked sets differ")
			}
			if !reflect.DeepEqual(popped.bl.adds, byBase.bl.adds) {
				t.Error("blacklist add sequences differ")
			}
			precs, brecs := pm.StopRecording(), bm.StopRecording()
			if uint64(len(precs)) != pm.Stats().ObjectsMarked {
				t.Errorf("%d records for %d marked objects", len(precs), pm.Stats().ObjectsMarked)
			}
			if !reflect.DeepEqual(precs, brecs) {
				t.Errorf("provenance records differ (%d vs %d)", len(precs), len(brecs))
			}
			requireZoo(t, popped, pm.Stats(), interior)
		})
	}
}

// TestDriversShareTheLoop marks twin heaps with one uninterrupted
// Drain and through each way a concurrent cycle drives the one marker:
// "run", bounded chunks until the stack is empty (ConcurrentStep, an
// allocation's assist); "finale", a few
// chunks, then a forced finale's root rescan and Drain. The order
// objects are reached in
// differs, so what must be equal is what does not depend on order: the
// marked set and the counters of first-marks and fields.
func TestDriversShareTheLoop(t *testing.T) {
	drivers := []struct {
		name string
		run  func(h *mixedHeap, cfg Config) Stats
	}{
		{"run", func(h *mixedHeap, cfg Config) Stats {
			m := New(h.heap, cfg)
			m.MarkWords(h.roots)
			for !m.DrainN(64) {
			}
			return m.Stats()
		}},
		{"finale", func(h *mixedHeap, cfg Config) Stats {
			m := New(h.heap, cfg)
			m.MarkWords(h.roots)
			for i := 0; i < 5; i++ {
				m.DrainN(23)
			}
			if len(m.stack) == 0 {
				t.Fatal("five chunks drained the whole gray set: the finale finds nothing")
			}
			m.MarkWords(h.roots)
			m.Drain()
			return m.Stats()
		}},
	}
	for _, sh := range loopShapes {
		for _, d := range drivers {
			t.Run(sh.name+"/"+d.name, func(t *testing.T) {
				interior := sh.policy == PointerInterior
				serial, driven := newMixedHeap(t, 11, sh.extents, interior), newMixedHeap(t, 11, sh.extents, interior)
				sm := New(serial.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: serial.bl})
				sm.MarkWords(serial.roots)
				sm.Drain()
				want := sm.Stats()

				got := d.run(driven, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: driven.bl})
				if !reflect.DeepEqual(serial.markedSet(), driven.markedSet()) {
					t.Errorf("marked sets differ: serial %d, %s %d", len(serial.markedSet()), d.name, len(driven.markedSet()))
				}
				if got.ObjectsMarked != want.ObjectsMarked || got.BytesMarked != want.BytesMarked ||
					got.AtomicSkipped != want.AtomicSkipped || got.FieldsScanned != want.FieldsScanned {
					t.Errorf("stats\n serial %+v\n %s %+v", want, d.name, got)
				}
				if err := driven.heap.CheckIntegrity(nil); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestDrainKeptDifferential is the forced finale's drain of a gray set
// the chunks kept: the root scan's gray set, reordered (every third
// entry first) and drained part-way in chunks, then drained to the
// fixpoint. The finale must mark exactly the set one uninterrupted
// Drain marks on a twin heap, with the same counters and the same
// blacklist additions, and leave no gray behind.
func TestDrainKeptDifferential(t *testing.T) {
	for _, sh := range loopShapes {
		t.Run(sh.name, func(t *testing.T) {
			interior := sh.policy == PointerInterior
			serial, driven := newMixedHeap(t, 13, sh.extents, interior), newMixedHeap(t, 13, sh.extents, interior)
			sm := New(serial.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: serial.bl})
			sm.MarkWords(serial.roots)
			sm.Drain()
			want := sm.Stats()

			m := New(driven.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: driven.bl})
			m.MarkWords(driven.roots)
			var kept []alloc.Gray
			for r := 0; r < 3; r++ {
				for i := r; i < len(m.stack); i += 3 {
					kept = append(kept, m.stack[i])
				}
			}
			m.stack = append(m.stack[:0], kept...)
			for i := 0; i < 4; i++ {
				m.DrainN(17)
			}
			m.Drain()
			got := m.Stats()
			if got != want {
				t.Errorf("stats\n serial %+v\n finale %+v", want, got)
			}
			if !reflect.DeepEqual(serial.markedSet(), driven.markedSet()) {
				t.Errorf("marked sets differ: serial %d, finale %d", len(serial.markedSet()), len(driven.markedSet()))
			}
			if len(m.stack) != 0 {
				t.Errorf("the finale left %d gray objects behind", len(m.stack))
			}
			sa, da := slices.Clone(serial.bl.adds), slices.Clone(driven.bl.adds)
			slices.Sort(sa)
			slices.Sort(da)
			if !slices.Equal(sa, da) {
				t.Errorf("blacklist additions differ: serial %d, finale %d", len(sa), len(da))
			}
			requireZoo(t, driven, got, interior)
			if err := driven.heap.CheckIntegrity(nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTypedWideDescriptor scans an object whose descriptor spans two
// mask words: exactly the declared words are candidates, in ascending
// order, and FieldsScanned counts them.
func TestTypedWideDescriptor(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	ptrs := []int{0, 5, 6, 7, 63, 64, 65, 129}
	mask := make([]bool, 130)
	for _, i := range ptrs {
		mask[i] = true
	}
	id, err := f.heap.RegisterDescriptor(mask)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := f.heap.AllocTyped(id)
	if err != nil {
		t.Fatal(err)
	}
	words, _ := f.heap.ObjectSpan(obj)
	followed := map[int]mem.Addr{}
	for i := 0; i < words; i++ {
		child := f.alloc(t, 2, false)
		followed[i] = child
		f.store(t, obj+mem.Addr(i*mem.WordBytes), mem.Word(child))
	}
	f.m.StartRecording()
	f.m.MarkValue(mem.Word(obj))
	f.m.Drain()
	declared := map[int]bool{}
	for _, i := range ptrs {
		declared[i] = true
	}
	for i, child := range followed {
		if f.heap.Marked(child) != declared[i] {
			t.Errorf("word %d: child marked = %v, declared pointer = %v", i, f.heap.Marked(child), declared[i])
		}
	}
	if got, want := f.m.Stats().FieldsScanned, uint64(len(ptrs)+2*len(ptrs)); got != want {
		t.Errorf("FieldsScanned = %d, want %d (the declared words, then two per child)", got, want)
	}
	var order []int
	for _, r := range f.m.StopRecording() {
		if r.Parent == obj {
			if !r.Declared {
				t.Errorf("record for word %d is not flagged declared", r.Index)
			}
			order = append(order, int(r.Index))
		}
	}
	if !reflect.DeepEqual(order, ptrs) {
		t.Errorf("children first-marked from words %v, want %v", order, ptrs)
	}
}

// TestMarkLoopDoesNotAllocate pins the warm loop at zero allocations: a
// candidate, a push and a drain touch only the marker's own stack.
func TestMarkLoopDoesNotAllocate(t *testing.T) {
	h := newMixedHeap(t, 5, 1, true)
	m := New(h.heap, Config{Policy: PointerInterior, Blacklist: h.bl})
	mark := func() {
		h.heap.ClearMarks()
		m.Reset()
		h.bl.adds = h.bl.adds[:0]
		for _, w := range h.roots {
			m.MarkValue(w)
		}
		m.Drain()
	}
	mark() // warm: the stack and the add log reach their sizes
	if m.Stats().ObjectsMarked < 100 {
		t.Fatalf("marked only %d objects", m.Stats().ObjectsMarked)
	}
	if n := testing.AllocsPerRun(5, mark); n != 0 {
		t.Errorf("a warm MarkValue+Drain allocates %v times, want 0", n)
	}
}

// TestParallelSparseRoots feeds the roots, one value at a time,
// through the insertion barrier's step (Shade) and drains what it
// shaded: the same marked set, counters and blacklist additions as a
// Marker given the nonzero values through MarkValue.
func TestParallelSparseRoots(t *testing.T) {
	for _, sh := range loopShapes {
		t.Run(sh.name, func(t *testing.T) {
			interior := sh.policy == PointerInterior
			plain, shaded := newMixedHeap(t, 11, sh.extents, interior), newMixedHeap(t, 11, sh.extents, interior)
			pm := New(plain.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: plain.bl})
			for _, v := range plain.roots {
				if v != 0 {
					pm.MarkValue(v)
				}
			}
			pm.Drain()
			sm := New(shaded.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: shaded.bl})
			for i, v := range shaded.roots {
				sm.Shade(RootOrigin{Kind: RootRegister}, int32(i), v)
			}
			sm.Drain()
			if pm.Stats() != sm.Stats() {
				t.Errorf("stats diverge:\nMarkValue %+v\nShade     %+v", pm.Stats(), sm.Stats())
			}
			if !reflect.DeepEqual(plain.markedSet(), shaded.markedSet()) || !slices.Equal(plain.bl.adds, shaded.bl.adds) {
				t.Error("marked sets or blacklist additions diverge")
			}
		})
	}
}

// TestStraddleProvenance records a root area scanned at every byte
// offset, long enough that its straddling candidates are classified in
// several chunks: each first-mark through a straddling candidate must
// name the root word it starts in and its byte offset, on both sides of
// a chunk boundary, and an aligned one must name its word.
func TestStraddleProvenance(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase, Alignment: AnyByteOffset})
	words := make([]mem.Word, 150)
	type want struct {
		index int32
		off   uint8
	}
	wants := map[mem.Addr]want{}
	for _, w := range []want{{3, 0}, {10, 1}, {63, 3}, {65, 2}, {128, 1}} {
		p := f.alloc(t, 2, false)
		wants[p] = w
		if w.off == 0 {
			words[w.index] = mem.Word(p)
			continue
		}
		// Word index holds the candidate's first 4-off bytes, big-endian,
		// and the next word the rest.
		sh := 8 * uint(w.off)
		words[w.index] |= mem.Word(uint32(p) >> sh)
		words[w.index+1] |= mem.Word(uint32(p) << (32 - sh))
	}
	const area = mem.Addr(0x2000)
	f.m.StartRecording()
	f.m.MarkRootArea(RootOrigin{Kind: RootSegment, Src: 1, Base: area}, words)
	recs := f.m.StopRecording()
	if len(recs) != len(wants) {
		t.Fatalf("%d records, want %d", len(recs), len(wants))
	}
	for _, r := range recs {
		w, ok := wants[r.Obj]
		if !ok {
			t.Fatalf("record for unexpected object %#x", uint32(r.Obj))
		}
		ref := RefExact
		if w.off != 0 {
			ref = RefUnaligned
		}
		if r.Index != w.index || r.Off != w.off || r.Ref != ref || r.Parent != area+mem.Addr(w.index)*mem.WordBytes {
			t.Errorf("object %#x: index %d off %d ref %v parent %#x, want index %d off %d ref %v parent %#x",
				uint32(r.Obj), r.Index, r.Off, r.Ref, uint32(r.Parent), w.index, w.off, ref, uint32(area+mem.Addr(w.index)*mem.WordBytes))
		}
	}
}
