package mark

import (
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/simrand"
)

const heapBase = 0x400000

type fixture struct {
	space *mem.AddressSpace
	heap  *alloc.Allocator
	bl    *blacklist.Dense
	m     *Marker
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	space := mem.NewAddressSpace()
	reserve := 1024 * mem.PageBytes
	bl, err := blacklist.NewDense(heapBase, heapBase+mem.Addr(reserve), mem.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Blacklist == nil {
		cfg.Blacklist = bl
	}
	heap, err := alloc.New(space, alloc.Config{
		HeapBase:         heapBase,
		InitialBytes:     64 * mem.PageBytes,
		ReserveBytes:     reserve,
		Blacklist:        cfg.Blacklist,
		InteriorPointers: cfg.Policy == PointerInterior,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{space: space, heap: heap, bl: bl, m: New(heap, cfg)}
}

func (f *fixture) alloc(t *testing.T, words int, atomic bool) mem.Addr {
	t.Helper()
	p, err := f.heap.Alloc(words, atomic)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (f *fixture) store(t *testing.T, a mem.Addr, v mem.Word) {
	t.Helper()
	if err := f.heap.Seg().Store(a, v); err != nil {
		t.Fatal(err)
	}
}

func TestMarkValueValidPointer(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	p := f.alloc(t, 2, false)
	f.m.MarkValue(mem.Word(p))
	f.m.Drain()
	if !f.heap.Marked(p) {
		t.Fatal("object not marked")
	}
	st := f.m.Stats()
	if st.ObjectsMarked != 1 || st.BytesMarked != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMarkTransitive(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	// Chain a -> b -> c.
	a := f.alloc(t, 2, false)
	b := f.alloc(t, 2, false)
	c := f.alloc(t, 2, false)
	d := f.alloc(t, 2, false) // unreachable
	f.store(t, a, mem.Word(b))
	f.store(t, b+4, mem.Word(c))
	f.m.MarkValue(mem.Word(a))
	f.m.Drain()
	for _, obj := range []mem.Addr{a, b, c} {
		if !f.heap.Marked(obj) {
			t.Fatalf("object %#x not marked", uint32(obj))
		}
	}
	if f.heap.Marked(d) {
		t.Fatal("unreachable object marked")
	}
}

func TestMarkCycleTerminates(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	a := f.alloc(t, 1, false)
	b := f.alloc(t, 1, false)
	f.store(t, a, mem.Word(b))
	f.store(t, b, mem.Word(a))
	f.m.MarkValue(mem.Word(a))
	f.m.Drain() // must terminate
	if !f.heap.Marked(a) || !f.heap.Marked(b) {
		t.Fatal("cycle not fully marked")
	}
	if f.m.Stats().ObjectsMarked != 2 {
		t.Fatalf("ObjectsMarked = %d", f.m.Stats().ObjectsMarked)
	}
}

func TestAtomicObjectsNotScanned(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	// An atomic object whose contents point at another object: the
	// pointee must NOT be retained through it.
	atom := f.alloc(t, 2, true)
	victim := f.alloc(t, 2, false)
	f.store(t, atom, mem.Word(victim))
	f.m.MarkValue(mem.Word(atom))
	f.m.Drain()
	if !f.heap.Marked(atom) {
		t.Fatal("atomic object itself not marked")
	}
	if f.heap.Marked(victim) {
		t.Fatal("atomic object's contents were scanned")
	}
	if f.m.Stats().AtomicSkipped != 1 {
		t.Fatalf("AtomicSkipped = %d", f.m.Stats().AtomicSkipped)
	}
}

func TestInteriorPolicy(t *testing.T) {
	// Base-only: interior pointer does not retain, and — critically for
	// the paper — it gets blacklisted as a near-heap false reference.
	f := newFixture(t, Config{Policy: PointerBase})
	p := f.alloc(t, 4, false)
	f.m.MarkValue(mem.Word(p + 8))
	f.m.Drain()
	if f.heap.Marked(p) {
		t.Fatal("interior pointer retained object in base-only mode")
	}
	if !f.bl.Contains(p + 8) {
		t.Fatal("invalid interior candidate not blacklisted")
	}

	// Interior: the same candidate retains the object.
	f2 := newFixture(t, Config{Policy: PointerInterior})
	q := f2.alloc(t, 4, false)
	f2.m.MarkValue(mem.Word(q + 8))
	f2.m.Drain()
	if !f2.heap.Marked(q) {
		t.Fatal("interior pointer ignored in interior mode")
	}
	if f2.m.Stats().InteriorResolved != 1 {
		t.Fatalf("InteriorResolved = %d", f2.m.Stats().InteriorResolved)
	}
}

func TestVicinityBlacklisting(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	limit := f.heap.Limit()
	// A value pointing past the committed heap but inside the
	// reservation: exactly the "could become valid later" case.
	f.m.MarkValue(mem.Word(limit + 0x100))
	if !f.bl.Contains(limit + 0x100) {
		t.Fatal("reserved-region candidate not blacklisted")
	}
	// A value far outside the heap is ignored.
	f.m.MarkValue(0x10)
	if f.bl.Contains(0x10) {
		t.Fatal("distant value blacklisted")
	}
	if f.m.Stats().FalseNearHeap != 1 {
		t.Fatalf("FalseNearHeap = %d", f.m.Stats().FalseNearHeap)
	}
}

func TestFreeSlotCandidateBlacklisted(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	p := f.alloc(t, 2, false)
	q := f.alloc(t, 2, false)
	if err := f.heap.Free(q); err != nil {
		t.Fatal(err)
	}
	f.m.MarkValue(mem.Word(q))
	if f.heap.Marked(p) {
		t.Fatal("unrelated object marked")
	}
	if !f.bl.Contains(q) {
		t.Fatal("pointer to free slot not blacklisted")
	}
}

func TestNilBlacklistDisables(t *testing.T) {
	space := mem.NewAddressSpace()
	heap, err := alloc.New(space, alloc.Config{
		HeapBase:     heapBase,
		InitialBytes: 8 * mem.PageBytes,
		ReserveBytes: 8 * mem.PageBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(heap, Config{})
	m.MarkValue(mem.Word(heapBase + 100)) // invalid, in vicinity
	if m.Stats().FalseNearHeap != 1 {
		t.Fatal("near-heap miss not counted")
	}
	// No panic, nothing marked: Disabled blacklist absorbed it.
}

func TestMarkWordsAligned(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase, Alignment: AlignedWords})
	p := f.alloc(t, 2, false)
	words := []mem.Word{0, 12345, mem.Word(p), 0xFFFFFFFF}
	f.m.MarkWords(words)
	f.m.Drain()
	if !f.heap.Marked(p) {
		t.Fatal("aligned candidate missed")
	}
	st := f.m.Stats()
	if st.WordsScanned != 4 || st.Candidates != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMarkWordsUnalignedFindsStraddlingPointer(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase, Alignment: AnyByteOffset})
	p := f.alloc(t, 2, false)
	v := uint32(p)
	// Figure 1: split the pointer across two words at byte offset 2 —
	// low half of word i, high half of word i+1.
	words := []mem.Word{mem.Word(v >> 16), mem.Word(v << 16)}
	f.m.MarkWords(words)
	f.m.Drain()
	if !f.heap.Marked(p) {
		t.Fatal("straddling candidate missed under AnyByteOffset")
	}

	// The aligned marker does not see it.
	f2 := newFixture(t, Config{Policy: PointerBase, Alignment: AlignedWords})
	q := f2.alloc(t, 2, false)
	w := uint32(q)
	f2.m.MarkWords([]mem.Word{mem.Word(w >> 16), mem.Word(w << 16)})
	f2.m.Drain()
	if f2.heap.Marked(q) {
		t.Fatal("aligned marker found straddling candidate")
	}
}

func TestUnalignedCandidateCount(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase, Alignment: AnyByteOffset})
	f.m.MarkWords(make([]mem.Word, 10))
	// 10 aligned + 9*3 straddling.
	if got := f.m.Stats().Candidates; got != 37 {
		t.Fatalf("Candidates = %d, want 37", got)
	}
}

func TestMarkSegmentAndRoots(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	p := f.alloc(t, 2, false)
	data, err := f.space.MapNew("data", mem.KindData, 0x2000, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.Store(0x2004, mem.Word(p)); err != nil {
		t.Fatal(err)
	}
	f.m.MarkRootSegments(f.space)
	f.m.Drain()
	if !f.heap.Marked(p) {
		t.Fatal("root segment pointer missed")
	}

	// Non-root segments are not scanned.
	f2 := newFixture(t, Config{Policy: PointerBase})
	q := f2.alloc(t, 2, false)
	seg2, _ := f2.space.MapNew("buffers", mem.KindOther, 0x2000, 64, 64)
	seg2.Store(0x2004, mem.Word(q))
	f2.m.MarkRootSegments(f2.space)
	f2.m.Drain()
	if f2.heap.Marked(q) {
		t.Fatal("non-root segment was scanned")
	}
}

func TestResetClearsStats(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	p := f.alloc(t, 2, false)
	f.m.MarkValue(mem.Word(p))
	f.m.Reset()
	if f.m.Stats() != (Stats{}) {
		t.Fatal("Reset did not clear stats")
	}
}

func TestMarkSweepIntegration(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	rng := simrand.New(4)
	// Build 50 random singly linked lists; remember the heads of the
	// first 25 in a root segment, drop the rest.
	data, _ := f.space.MapNew("data", mem.KindData, 0x2000, 4096, 4096)
	var all [][]mem.Addr
	for i := 0; i < 50; i++ {
		n := 5 + rng.Intn(20)
		var nodes []mem.Addr
		var prev mem.Addr
		for j := 0; j < n; j++ {
			node := f.alloc(t, 2, false)
			if prev != 0 {
				f.store(t, prev, mem.Word(node))
			}
			nodes = append(nodes, node)
			prev = node
		}
		all = append(all, nodes)
		if i < 25 {
			data.Store(0x2000+mem.Addr(4*i), mem.Word(nodes[0]))
		}
	}
	f.m.MarkRootSegments(f.space)
	f.m.Drain()
	f.heap.Sweep()
	for i, nodes := range all {
		for _, node := range nodes {
			alive := f.heap.IsAllocated(node)
			if i < 25 && !alive {
				t.Fatalf("list %d node %#x wrongly collected", i, uint32(node))
			}
			if i >= 25 && alive {
				t.Fatalf("list %d node %#x wrongly retained", i, uint32(node))
			}
		}
	}
}

func TestEverythingReachableIsMarkedProperty(t *testing.T) {
	// Build a random object graph, mark from a root set, and verify
	// via an exact reachability computation that the conservative
	// marker marks a superset.
	f := newFixture(t, Config{Policy: PointerBase})
	rng := simrand.New(77)
	var objs []mem.Addr
	for i := 0; i < 300; i++ {
		objs = append(objs, f.alloc(t, 4, false))
	}
	edges := map[mem.Addr][]mem.Addr{}
	for _, o := range objs {
		for s := 0; s < 3; s++ {
			if rng.Bool(0.5) {
				target := objs[rng.Intn(len(objs))]
				f.store(t, o+mem.Addr(4*s), mem.Word(target))
				edges[o] = append(edges[o], target)
			}
		}
	}
	var roots []mem.Addr
	for i := 0; i < 10; i++ {
		roots = append(roots, objs[rng.Intn(len(objs))])
	}
	// Exact reachability.
	reach := map[mem.Addr]bool{}
	var stack []mem.Addr
	for _, r := range roots {
		if !reach[r] {
			reach[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, tgt := range edges[o] {
			if !reach[tgt] {
				reach[tgt] = true
				stack = append(stack, tgt)
			}
		}
	}
	// Conservative marking.
	for _, r := range roots {
		f.m.MarkValue(mem.Word(r))
	}
	f.m.Drain()
	for _, o := range objs {
		if reach[o] && !f.heap.Marked(o) {
			t.Fatalf("reachable object %#x not marked", uint32(o))
		}
		// With no non-pointer noise in fields, marking is exact here.
		if !reach[o] && f.heap.Marked(o) {
			t.Fatalf("unreachable object %#x marked without false roots", uint32(o))
		}
	}
}

func BenchmarkMarkListBlacklistOn(b *testing.B)  { benchMarkList(b, true) }
func BenchmarkMarkListBlacklistOff(b *testing.B) { benchMarkList(b, false) }

func benchMarkList(b *testing.B, blacklisting bool) {
	space := mem.NewAddressSpace()
	var bl blacklist.List = blacklist.Disabled{}
	if blacklisting {
		bl, _ = blacklist.NewDense(heapBase, heapBase+64<<20, mem.PageBytes)
	}
	heap, err := alloc.New(space, alloc.Config{
		HeapBase:     heapBase,
		InitialBytes: 16 << 20,
		ReserveBytes: 64 << 20,
		Blacklist:    bl,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := New(heap, Config{Policy: PointerBase, Blacklist: bl})
	// 100k-node list.
	var head, prev mem.Addr
	for i := 0; i < 100000; i++ {
		node, err := heap.Alloc(2, false)
		if err != nil {
			b.Fatal(err)
		}
		if prev != 0 {
			heap.Seg().Store(prev, mem.Word(node))
		} else {
			head = node
		}
		prev = node
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MarkValue(mem.Word(head))
		m.Drain()
		b.StopTimer()
		heap.ClearMarks()
		m.Reset()
		b.StartTimer()
	}
}

// BenchmarkMarkLiveGraph times one mark phase over the live graph of
// perfbench's live_graph_stw workload — 16384 nodes of 4, 8 and 16
// words, node i pointing at node i-1 and at a random earlier node, the
// last node rooted — so the per-object cost of the mark loop can be
// read without the ten-second harness. Only MarkValue+Drain is on the
// clock; the mark-bit reset between iterations is not, and neither is
// the perturbation: word 1 of 660 random nodes is repointed at another
// random node before every iteration, as graphRequest does between two
// collections (one store per 8 allocations). Without it every iteration
// marks an identical graph in identical order, the branch predictor
// learns the traversal, and the benchmark flatters any change to the
// loop ("unperturbed" keeps that reading for comparison: 32 against 53
// ns/obj on the same code).
//
// The variants price the loop's other paths against "conservative":
// typed nodes (descriptor bitmaps walked by set bit), PointerInterior,
// "rescan" (the by-base entry: every marked object of every block
// through ScanObject with all its targets marked already, which is what
// a minor cycle does to its remembered set), "halves2" and a
// push/pop-only rung — the mark stack's share of the per-object cost.
//
// "chain" is program T's shape instead: one circular list of 25 000
// one-word nodes allocated in order, each pointing at the next, marked
// from the first. Every edge but the last wins a fresh object, so there
// is no coin toss for the predictor to learn and nothing to perturb.
//
// "halves2" is the best case any parallel mark could have: the graph is
// built as two disjoint halves of 8192 nodes on blocks of their own (no
// shared object, no shared block), and two plain markers, one per half,
// mark them at once on two goroutines; ns/obj is wall time over all
// 16384 objects. On the reference box (two vCPUs) it reads the same as
// one marker marking the whole graph (26.5–26.9 against 26.2–26.8
// ns/obj), so no proposal to mark in parallel can show a gain on this
// graph.
func BenchmarkMarkLiveGraph(b *testing.B) {
	for _, v := range []liveGraphVariant{
		{name: "conservative"},
		{name: "unperturbed", still: true},
		{name: "typed", typed: true},
		{name: "interior", policy: PointerInterior},
		{name: "rescan", still: true, rescan: true},
		{name: "halves2", halves: true},
	} {
		b.Run(v.name, func(b *testing.B) { benchLiveGraph(b, v) })
	}
	b.Run("chain", benchChain)
	b.Run("pushpop", func(b *testing.B) {
		// Four pushes, four pops: the stack depth the graph's traversal
		// hovers at, with no scan in between.
		m := &Marker{stack: make([]alloc.Gray, 0, 1024)}
		var sink alloc.Gray
		for i := 0; i < b.N; i++ {
			for j := 0; j < liveGraphNodes; j++ {
				m.stack = append(m.stack, alloc.Gray(j))
				if j&3 == 3 {
					for k := 0; k < 4; k++ {
						sink += m.pop()
					}
				}
			}
		}
		if sink == 0 {
			b.Fatal("nothing popped")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*liveGraphNodes), "ns/obj")
	})
}

const liveGraphNodes = 16384

// pop removes and returns the newest gray entry, as the mark loop does.
func (m *Marker) pop() alloc.Gray {
	g := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return g
}

const chainNodes = 25000

func benchChain(b *testing.B) {
	heap, err := alloc.New(mem.NewAddressSpace(), alloc.Config{HeapBase: heapBase, InitialBytes: 1 << 20, ReserveBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]mem.Addr, chainNodes)
	for i := range nodes {
		if nodes[i], err = heap.Alloc(1, false); err != nil {
			b.Fatal(err)
		}
	}
	for i, p := range nodes {
		heap.Seg().Store(p, mem.Word(nodes[(i+1)%len(nodes)]))
	}
	m := New(heap, Config{})
	var onClock time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		m.MarkValue(mem.Word(nodes[0]))
		m.Drain()
		onClock += time.Since(start)
		if got := m.Stats().ObjectsMarked; got != chainNodes {
			b.Fatalf("marked %d objects, want %d", got, chainNodes)
		}
		heap.ClearMarks()
		m.Reset()
	}
	b.ReportMetric(float64(onClock.Nanoseconds())/float64(b.N*chainNodes), "ns/obj")
}

type liveGraphVariant struct {
	name   string
	still  bool // no perturbation between iterations
	typed  bool // nodes allocated against a descriptor naming words 0 and 1
	halves bool // two disjoint halves on blocks of their own, one marker each
	rescan bool // time ScanObject over the marked graph, not the mark
	policy PointerPolicy
}

func benchLiveGraph(b *testing.B, v liveGraphVariant) {
	space := mem.NewAddressSpace()
	heap, err := alloc.New(space, alloc.Config{
		HeapBase:         heapBase,
		InitialBytes:     1 << 20,
		ReserveBytes:     16 << 20,
		InteriorPointers: v.policy == PointerInterior,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := simrand.New(1)
	sizes := [3]int{4, 8, 16}
	var ids [3]alloc.DescID
	for i, w := range sizes {
		mask := make([]bool, w)
		mask[0], mask[1] = true, true
		if ids[i], err = heap.RegisterDescriptor(mask); err != nil {
			b.Fatal(err)
		}
	}
	allocNode := func(i int) mem.Addr {
		var p mem.Addr
		if v.typed {
			p, err = heap.AllocTyped(ids[i%len(sizes)])
		} else {
			p, err = heap.Alloc(sizes[i%len(sizes)], false)
		}
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	// One chain of all the nodes, or two chains of half of them each, the
	// second starting on fresh blocks: every size class's last block of
	// the first chain is filled up with unreachable objects first.
	parts := 1
	if v.halves {
		parts = 2
	}
	chains := make([][]mem.Addr, parts)
	pages := map[mem.Addr]bool{}
	for c := range chains {
		for k := 0; c > 0 && k < len(sizes); k++ {
			for pages[mem.AlignPageDown(allocNode(k))] {
			}
		}
		addrs := make([]mem.Addr, liveGraphNodes/parts)
		for i := range addrs {
			p := allocNode(i)
			if i > 0 {
				heap.Seg().Store(p, mem.Word(addrs[i-1]))
				heap.Seg().Store(p+mem.WordBytes, mem.Word(addrs[rng.Intn(i)]))
			}
			addrs[i] = p
			pages[mem.AlignPageDown(p)] = true
		}
		chains[c] = addrs
	}
	markers := make([]*Marker, parts)
	for c := range markers {
		markers[c] = New(heap, Config{Policy: v.policy})
	}
	var onClock time.Duration
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for c := 1; c < parts; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				markers[c].MarkValue(mem.Word(chains[c][len(chains[c])-1]))
				markers[c].Drain()
			}()
		}
		markers[0].MarkValue(mem.Word(chains[0][len(chains[0])-1]))
		markers[0].Drain()
		wg.Wait()
		var marked uint64
		for _, m := range markers {
			marked += m.Stats().ObjectsMarked
		}
		if v.rescan {
			start = time.Now()
			for bi := 0; bi < heap.NumBlocks(); bi++ {
				heap.ForEachMarkedObject(bi, markers[0].ScanObject)
			}
		}
		onClock += time.Since(start)
		if marked != liveGraphNodes {
			b.Fatalf("marked %d objects, want %d", marked, liveGraphNodes)
		}
		heap.ClearMarks()
		for _, m := range markers {
			m.Reset()
		}
		if !v.still {
			for k := 0; k < 660; k++ {
				addrs := chains[0]
				if parts > 1 {
					addrs = chains[rng.Intn(parts)]
				}
				heap.Seg().Store(addrs[rng.Intn(len(addrs))]+mem.WordBytes, mem.Word(addrs[rng.Intn(len(addrs))]))
			}
		}
	}
	b.ReportMetric(float64(onClock.Nanoseconds())/float64(b.N*liveGraphNodes), "ns/obj")
}

func TestTypedObjectScanning(t *testing.T) {
	f := newFixture(t, Config{Policy: PointerBase})
	// Layout: word 0 is a pointer, word 1 is data.
	id, err := f.heap.RegisterDescriptor([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	node, err := f.heap.AllocTyped(id)
	if err != nil {
		t.Fatal(err)
	}
	viaPtr := f.alloc(t, 2, false)
	viaData := f.alloc(t, 2, false)
	f.store(t, node, mem.Word(viaPtr))    // pointer field
	f.store(t, node+4, mem.Word(viaData)) // data field holding an address
	f.m.MarkValue(mem.Word(node))
	f.m.Drain()
	if !f.heap.Marked(viaPtr) {
		t.Fatal("pointer field not followed in typed object")
	}
	if f.heap.Marked(viaData) {
		t.Fatal("data field followed despite exact layout info")
	}
}

func TestTypedChainMarks(t *testing.T) {
	// A typed linked list marks transitively through its pointer field.
	f := newFixture(t, Config{Policy: PointerBase})
	id, _ := f.heap.RegisterDescriptor([]bool{true, false})
	var nodes []mem.Addr
	var prev mem.Addr
	for i := 0; i < 20; i++ {
		n, err := f.heap.AllocTyped(id)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			f.store(t, prev, mem.Word(n))
		}
		f.store(t, n+4, 0xDEADBEEF) // garbage data, never scanned
		nodes = append(nodes, n)
		prev = n
	}
	f.m.MarkValue(mem.Word(nodes[0]))
	f.m.Drain()
	for _, n := range nodes {
		if !f.heap.Marked(n) {
			t.Fatalf("typed chain node %#x unmarked", uint32(n))
		}
	}
}
