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
// blacklist's add sequence must be equal, whether the loop sets mark
// bits plainly or by compare-and-swap.
func TestScanLoopMatchesUnfusedReference(t *testing.T) {
	for _, sh := range loopShapes {
		for _, cas := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/cas=%v/seed=%d", sh.name, cas, seed), func(t *testing.T) {
					interior := sh.policy == PointerInterior
					got, want := newMixedHeap(t, seed, sh.extents, interior), newMixedHeap(t, seed, sh.extents, interior)
					if got.heap.Extents() < sh.extents {
						t.Fatalf("%d extents, want %d", got.heap.Extents(), sh.extents)
					}
					m := New(got.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: got.bl})
					m.atomicMark = cas
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
				for _, g := range bm.TakePending() {
					stack = append(stack, g.Base())
				}
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

// TestDriversShareTheLoop marks twin heaps serially and through each
// driver — Parallel.Run, a forced finale's DrainKept, DetachedChunk and
// AssistChunk — the last three fed by the snapshot hand-off (serial root
// scan, TakePending into AddGrays). Which worker wins an object varies,
// so what must be equal is what does not depend on order: the marked
// set and the counters of first-marks.
func TestDriversShareTheLoop(t *testing.T) {
	// handOff scans the roots serially and stages the gray set it built
	// for p's workers; roots are the counters the serial scan ran up.
	handOff := func(h *mixedHeap, cfg Config) (p *Parallel, roots Stats) {
		m := New(h.heap, cfg)
		m.atomicMark = true
		m.MarkWords(h.roots)
		p = NewParallel(h.heap, cfg, 2)
		p.ResetCycle()
		grays := m.TakePending()
		p.AddGrays(grays)
		if len(m.stack) != 0 || len(grays) == 0 {
			t.Fatalf("TakePending handed over %d entries and left %d", len(grays), len(m.stack))
		}
		// The marker reuses the slice it handed over: AddGrays must have
		// copied out of it.
		for i := range grays {
			grays[i] = 0
		}
		return p, m.Stats()
	}
	drivers := []struct {
		name string
		run  func(h *mixedHeap, cfg Config) Stats
	}{
		{"run", func(h *mixedHeap, cfg Config) Stats {
			p := NewParallel(h.heap, cfg, 2)
			p.AddRoots(h.roots)
			return p.Run()
		}},
		{"finale", func(h *mixedHeap, cfg Config) Stats {
			// A forced finale: a few chunks leave grays on a worker's kept
			// stack, on the assist shard and in the queue; DrainKept must
			// start from all three.
			p, agg := handOff(h, cfg)
			p.FlushStaged()
			p.DetachedChunk(0, 23, nil)
			p.chunkWorker(p.assist, 5, nil)
			p.DrainKept()
			if !p.Quiescent() {
				t.Error("DrainKept left gray objects behind")
			}
			agg.Add(p.AggStats())
			return agg
		}},
		{"detached", func(h *mixedHeap, cfg Config) Stats {
			p, agg := handOff(h, cfg)
			p.FlushStaged()
			// Workers keep their stacks between chunks, so "done" is the
			// certificate, not an empty queue.
			for i := 0; !p.Quiescent(); i++ {
				if i%3 == 2 {
					p.AssistChunk(5)
				} else {
					p.DetachedChunk(i%2, 23, nil)
				}
			}
			agg.Add(p.AggStats())
			return agg
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

// TestDrainKeptDifferential plants a detached cycle's gray set — the
// snapshot hand-off of a serial root scan — in all four places it
// lives: staged, the shared queue, each worker's kept stack and the
// assist shard's stack. DrainKept, which drains them on the caller,
// must mark exactly the set a serial Marker.Drain marks on a twin heap,
// with the same counters, leave no gray anywhere and no blacklist
// addition buffered.
func TestDrainKeptDifferential(t *testing.T) {
	for _, sh := range loopShapes {
		t.Run(sh.name, func(t *testing.T) {
			interior := sh.policy == PointerInterior
			serial, driven := newMixedHeap(t, 13, sh.extents, interior), newMixedHeap(t, 13, sh.extents, interior)
			sm := New(serial.heap, Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: serial.bl})
			sm.MarkWords(serial.roots)
			sm.Drain()
			want := sm.Stats()

			cfg := Config{Policy: sh.policy, Alignment: sh.alignment, Blacklist: driven.bl}
			rm := New(driven.heap, cfg)
			rm.atomicMark = true
			rm.MarkWords(driven.roots)
			p := NewParallel(driven.heap, cfg, 3)
			p.ResetCycle()
			places := make([][]alloc.Gray, 3+len(p.workers))
			for i, g := range rm.TakePending() {
				places[i%len(places)] = append(places[i%len(places)], g)
			}
			for i, gs := range places {
				if len(gs) == 0 {
					t.Fatalf("place %d got no gray object to plant", i)
				}
			}
			p.AddGrays(places[0])
			grayTasks(places[1], p.queue.push)
			p.assist.m.stack = append(p.assist.m.stack, places[2]...)
			for i, w := range p.workers {
				w.m.stack = append(w.m.stack, places[3+i]...)
				w.holds.Store(true)
			}

			p.DrainKept()
			got := rm.Stats()
			got.Add(p.AggStats())
			if got != want {
				t.Errorf("stats\n serial    %+v\n DrainKept %+v", want, got)
			}
			if !reflect.DeepEqual(serial.markedSet(), driven.markedSet()) {
				t.Errorf("marked sets differ: serial %d, DrainKept %d", len(serial.markedSet()), len(driven.markedSet()))
			}
			if !p.Quiescent() || p.WorkOutstanding() {
				t.Error("DrainKept left gray objects behind")
			}
			for i, w := range append(p.workers, p.assist) {
				if len(w.pending.addrs) != 0 {
					t.Errorf("shard %d still buffers %d blacklist additions", i, len(w.pending.addrs))
				}
			}
			sa, da := slices.Clone(serial.bl.adds), slices.Clone(driven.bl.adds)
			slices.Sort(sa)
			slices.Sort(da)
			if !slices.Equal(sa, da) {
				t.Errorf("blacklist additions differ: serial %d, DrainKept %d", len(sa), len(da))
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
