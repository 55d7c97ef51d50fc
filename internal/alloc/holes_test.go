package alloc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// --- the order oracle: the threaded free list the hole allocator replaced ---
//
// refList is one list as threading built it: its slots, the head last,
// and the free slots of its sweep-pending blocks, one slice per block,
// queued ascending. refHeap holds every list of one allocator. It reads
// the allocator's bitmaps only at a barrier, for the slots a sweep
// frees, and takes from the allocator which block a refill dedicates:
// neither is the order under test.
type refList struct {
	slots   []mem.Addr
	pending [][]mem.Addr
}

type refHeap struct {
	a     *Allocator
	lists map[typedKey]*refList
}

func (r *refHeap) list(key typedKey) *refList {
	if r.lists[key] == nil {
		r.lists[key] = &refList{}
	}
	return r.lists[key]
}

func (r *refHeap) listOf(p mem.Addr) *refList {
	b := &r.a.blocks[r.a.blockIndex(p)]
	return r.list(typedKey{class: int(b.class), desc: b.desc})
}

// thread puts one block's free slots, ascending, on top of l, the
// lowest on top.
func (l *refList) thread(free []mem.Addr) {
	for i := len(free) - 1; i >= 0; i-- {
		l.slots = append(l.slots, free[i])
	}
}

// usable returns block bi's usable slots whose bit in bitmap is clear
// (all of them for a nil bitmap).
func (r *refHeap) usable(bi int, bitmap []uint64) []mem.Addr {
	b := &r.a.blocks[bi]
	var out []mem.Addr
	for s := r.a.firstSlot(int(b.objWords)); s < int(b.slots); s++ {
		if bitmap == nil || !bitGet(bitmap, s) {
			out = append(out, slotAddr(r.a.blockBase(bi), s, int(b.objWords)))
		}
	}
	return out
}

// sweep models the barrier: call it after marking, before Sweep. Every
// list is rebuilt; a block with marks and free slots is threaded, or
// queued when sweeps are lazy.
func (r *refHeap) sweep() {
	clear(r.lists)
	for bi := range r.a.blocks {
		if b := &r.a.blocks[bi]; b.state == blockSmall && b.markedCount > 0 {
			if free := r.usable(bi, b.markBits); len(free) > 0 {
				l := r.list(typedKey{class: int(b.class), desc: b.desc})
				if r.a.cfg.LazySweep {
					l.pending = append(l.pending, free)
				} else {
					l.thread(free)
				}
			}
		}
	}
}

// hoist threads p's block now if its sweep is pending, as sweeping it
// out of band did.
func (r *refHeap) hoist(p mem.Addr) {
	l, bi := r.listOf(p), r.a.blockIndex(p)
	for i, free := range l.pending {
		if r.a.blockIndex(free[0]) == bi {
			l.pending = slices.Delete(l.pending, i, i+1)
			l.thread(free)
			return
		}
	}
}

// finish models FinishSweep: every pending block threaded, ascending.
func (r *refHeap) finish() {
	for _, l := range r.lists {
		for _, free := range l.pending {
			l.thread(free)
		}
		l.pending = nil
	}
}

// pop takes the head of l, refilling it as the allocator did: the
// highest pending block, or else a fresh block — got's, the slot the
// allocator handed out.
func (r *refHeap) pop(l *refList, got mem.Addr) mem.Addr {
	if len(l.slots) == 0 && len(l.pending) > 0 {
		l.thread(l.pending[len(l.pending)-1])
		l.pending = l.pending[:len(l.pending)-1]
	}
	if len(l.slots) == 0 {
		l.thread(r.usable(r.a.blockIndex(got), nil))
	}
	p := l.slots[len(l.slots)-1]
	l.slots = l.slots[:len(l.slots)-1]
	return p
}

// push puts p on top of its list, after its block's pending sweep.
func (r *refHeap) push(p mem.Addr) {
	r.hoist(p)
	l := r.listOf(p)
	l.slots = append(l.slots, p)
}

// --- the harness: every operation checked against the oracle ---

// orderCheck drives one allocator and its oracle side by side. Every
// slot a carve hands out must be the oracle's next (unless noOrder),
// and must not be outstanding — handed out and not freed, returned or
// swept dead — nor carry a word the sweep or Free should have zeroed.
type orderCheck struct {
	t           testing.TB
	a           *Allocator
	ref         refHeap
	noOrder     bool
	outstanding map[mem.Addr]bool
}

func newOrderCheck(t testing.TB, cfg Config) *orderCheck {
	if cfg.HeapBase == 0 {
		cfg.HeapBase = testHeapBase
	}
	if cfg.InitialBytes == 0 {
		cfg.InitialBytes, cfg.ReserveBytes = 8*mem.PageBytes, 64*mem.PageBytes
	}
	a, err := New(mem.NewAddressSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &orderCheck{t: t, a: a, ref: refHeap{a: a, lists: map[typedKey]*refList{}}, outstanding: map[mem.Addr]bool{}}
}

// retry runs op, expanding the heap on ErrNeedMemory as a collector out
// of garbage would.
func retry[T any](t testing.TB, a *Allocator, op func() (T, error)) T {
	t.Helper()
	v, err := op()
	if err == ErrNeedMemory {
		if err := a.Expand(mem.PageBytes); err != nil {
			t.Fatalf("expand: %v", err)
		}
		v, err = op()
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// issued checks the carve s of list key against the oracle.
func (h *orderCheck) issued(step string, key typedKey, s Span) {
	h.t.Helper()
	l := h.ref.list(key)
	hw := h.a.blockWords(h.a.blockIndex(s.Cursor))
	for p := s.Cursor; p < s.Limit; p += mem.Addr(s.Words * mem.WordBytes) {
		if want := h.ref.pop(l, s.Cursor); p != want && !h.noOrder {
			h.t.Fatalf("%s: carve [%#x, %#x) hands out %#x, the threaded list %#x", step,
				uint32(s.Cursor), uint32(s.Limit), uint32(p), uint32(want))
		}
		if h.outstanding[p] {
			h.t.Fatalf("%s: slot %#x issued twice", step, uint32(p))
		}
		h.outstanding[p] = true
		off := pageWordOff(p)
		if slices.ContainsFunc(hw[off:off+s.Words], func(w mem.Word) bool { return w != 0 }) {
			h.t.Fatalf("%s: slot %#x issued unzeroed", step, uint32(p))
		}
	}
}

func untypedKey(nwords int, atomic bool) typedKey {
	class, _ := ClassFor(nwords)
	return typedKey{class: class, desc: untypedDesc(atomic)}
}

func (h *orderCheck) carve(nwords int, atomic bool, max int) Span {
	s := retry(h.t, h.a, func() (Span, error) { return h.a.AllocBatch(nwords, atomic, max) })
	if n := s.slots(s.Words); n < 1 || n > max {
		h.t.Fatalf("carve of up to %d slots carved %d", max, n)
	}
	h.issued(fmt.Sprintf("carve of %d", max), untypedKey(nwords, atomic), s)
	return s
}

func (h *orderCheck) alloc(nwords int, atomic bool) mem.Addr {
	p := retry(h.t, h.a, func() (mem.Addr, error) { return h.a.Alloc(nwords, atomic) })
	_, words := ClassFor(nwords)
	h.issued("Alloc", untypedKey(nwords, atomic), Span{Cursor: p, Limit: p + mem.Addr(words*mem.WordBytes), Words: words})
	return p
}

func (h *orderCheck) typed(id DescID) mem.Addr {
	p := retry(h.t, h.a, func() (mem.Addr, error) { return h.a.AllocTyped(id) })
	class, words := ClassFor(h.a.descriptors[id].Words)
	h.issued("AllocTyped", typedKey{class: class, desc: id}, Span{Cursor: p, Limit: p + mem.Addr(words*mem.WordBytes), Words: words})
	return p
}

// ret gives back the slots [cursor, limit) of a carve.
func (h *orderCheck) ret(cursor, limit mem.Addr, words int) {
	for p := limit; p > cursor; {
		p -= mem.Addr(words * mem.WordBytes)
		h.ref.push(p)
		delete(h.outstanding, p)
	}
	h.a.ReturnSpan(cursor, limit)
}

func (h *orderCheck) free(p mem.Addr) {
	h.ref.push(p)
	delete(h.outstanding, p)
	if err := h.a.Free(p); err != nil {
		h.t.Fatal(err)
	}
}

// sweep runs the barrier after the caller's marking: what is unmarked
// dies.
func (h *orderCheck) sweep() {
	for p := range h.outstanding {
		if !h.a.Marked(p) {
			delete(h.outstanding, p)
		}
	}
	h.ref.sweep()
	h.a.Sweep()
}

func (h *orderCheck) finish() {
	h.ref.finish()
	h.a.FinishSweep()
}

func (h *orderCheck) audit(step string, held []Span) {
	h.t.Helper()
	var cached []mem.Addr
	for _, s := range held {
		for p := s.Cursor; p < s.Limit; p += mem.Addr(s.Words * mem.WordBytes) {
			cached = append(cached, p)
		}
	}
	if err := h.a.CheckIntegrity(cached); err != nil {
		h.t.Fatalf("%s: %v", step, err)
	}
}

// --- shapes ---

// A carveShape prepares one heap before a differential runs. alloc
// allocates one object of the case's kind (typed or not).
type carveShape func(h *orderCheck, alloc func() mem.Addr)

// blocksOf allocates n blocks' worth of objects, returned by block.
func blocksOf(a *Allocator, alloc func() mem.Addr, n int) [][]mem.Addr {
	var out [][]mem.Addr
	for len(out) < n {
		p := alloc()
		if bi := a.blockIndex(p); len(out) == 0 || a.blockIndex(out[len(out)-1][0]) != bi {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], p)
	}
	// The last block holds one object; fill it like the others.
	for last := &out[n-1]; len(*last) < len(out[0]); {
		*last = append(*last, alloc())
	}
	return out
}

var carveShapes = map[string]carveShape{
	// Nothing allocated: every list is empty and the first carve dedicates.
	"fresh": func(*orderCheck, func() mem.Addr) {},
	// Three blocks swept with every third object surviving: holes of two
	// slots, block after block.
	"swept": func(h *orderCheck, alloc func() mem.Addr) {
		n := 0
		for _, blk := range blocksOf(h.a, alloc, 3) {
			for _, p := range blk {
				if n++; n%3 == 0 {
					h.a.Mark(p)
				}
			}
		}
		h.sweep()
	},
	// Explicit frees taken from three blocks in turn: every hole is one
	// freed slot, and the next is in another block.
	"hopping": func(h *orderCheck, alloc func() mem.Addr) {
		blks := blocksOf(h.a, alloc, 3)
		for i := 0; i < len(blks[0]); i += 2 {
			for _, blk := range blks {
				h.free(blk[i])
			}
		}
	},
}

type carveCase struct {
	name   string
	cfg    Config
	nwords int
	atomic bool
	typed  []bool // non-nil: the lists are this layout's typed lists
	shape  string
}

// smallExtents is a heap that grows by mapping two-page extents.
var smallExtents = Config{
	InitialBytes: 2 * mem.PageBytes, ReserveBytes: 2 * mem.PageBytes,
	ExpandIncrement: mem.PageBytes, DiscontiguousGrowth: true,
	ExtentGapBytes: 1 << 20, ExtentReserveBytes: 2 * mem.PageBytes,
}

var carveCases = []carveCase{
	{name: "fresh", nwords: 8, shape: "fresh"},
	{name: "fresh-atomic", nwords: 3, atomic: true, shape: "fresh"},
	{name: "swept", nwords: 8, shape: "swept"},
	{name: "swept-lazy", cfg: Config{LazySweep: true}, nwords: 8, shape: "swept"},
	{name: "swept-big", nwords: 170, shape: "swept"},
	{name: "hopping", nwords: 16, shape: "hopping"},
	{name: "hopping-extents", cfg: smallExtents, nwords: 16, shape: "hopping"},
	{name: "swept-extents", cfg: smallExtents, nwords: 5, shape: "swept"},
	{name: "skip-boundary-1", cfg: Config{SkipPageBoundarySlot: true}, nwords: 1, shape: "swept"},
	{name: "skip-boundary-2", cfg: Config{SkipPageBoundarySlot: true}, nwords: 2, shape: "hopping"},
	// Pointer-free ("atomic") objects have lists of their own.
	{name: "atomic-words", nwords: 4, atomic: true, shape: "swept"},
	{name: "atomic-words-hopping", nwords: 4, atomic: true, shape: "hopping"},
	{name: "typed-fresh", typed: []bool{true, false, true}, shape: "fresh"},
	{name: "typed-swept", typed: []bool{true, false, true, false, false, true}, shape: "swept"},
	{name: "typed-hopping", cfg: smallExtents, typed: []bool{false, true}, shape: "hopping"},
}

// newHeap builds the case's heap and shapes it.
func (tc carveCase) newHeap(t *testing.T) (*orderCheck, DescID) {
	h := newOrderCheck(t, tc.cfg)
	var id DescID
	alloc := func() mem.Addr { return h.alloc(tc.nwords, tc.atomic) }
	if tc.typed != nil {
		var err error
		if id, err = h.a.RegisterDescriptor(tc.typed); err != nil {
			t.Fatal(err)
		}
		alloc = func() mem.Addr { return h.typed(id) }
	}
	carveShapes[tc.shape](h, alloc)
	h.audit("shaped", nil)
	return h, id
}

// TestCarveDifferential drives the hole allocator over heaps fresh,
// swept, with holes hopping between blocks and between extents, with
// the page-boundary slot skipped, typed lists and pointer-free lists,
// and checks every slot it hands out against the order oracle. Untyped
// lists are carved up to each max, every tail length of a carve is
// returned and carved again, two carves are given back in the order
// they were made, then single allocations follow; typed lists, which
// have no carve entry point, are allocated singly. The audit runs after
// every step, with the carves outstanding as a cache holds them.
func TestCarveDifferential(t *testing.T) {
	for _, tc := range carveCases {
		for _, max := range []int{1, 7, 32, 1000} {
			t.Run(fmt.Sprintf("%s/max=%d", tc.name, max), func(t *testing.T) {
				h, id := tc.newHeap(t)
				if tc.typed != nil {
					for i := 0; i < max; i++ {
						h.typed(id)
						h.audit(fmt.Sprintf("typed %d", i), nil)
					}
					return
				}
				h.carveRounds(tc, max)
			})
		}
	}
}

// carveRounds is TestCarveDifferential's untyped body.
func (h *orderCheck) carveRounds(tc carveCase, max int) {
	_, words := ClassFor(tc.nwords)
	stride := mem.Addr(words * mem.WordBytes)
	audits := 0
	audit := func(step string, held ...Span) {
		// A thousand-slot carve has a thousand tails; audit a sample.
		if audits++; max <= 64 || audits%16 == 0 {
			h.audit(step, held)
		}
	}
	carve := func() Span { return h.carve(tc.nwords, tc.atomic, max) }
	for round := 0; round < 2; round++ {
		c := carve()
		audit("carve", c)
		for k := 0; k <= c.slots(words); k++ {
			n := c.slots(words)
			cut := c.Limit - mem.Addr(k)*stride
			h.ret(cut, c.Limit, words)
			audit(fmt.Sprintf("round %d: return tail %d of %d", round, k, n), Span{c.Cursor, cut, words})
			c2 := carve()
			h.ret(c2.Cursor, c2.Limit, words)
			h.ret(c.Cursor, cut, words)
			audit("return the head")
			// The list is as it was, plus any block the second carve
			// dedicated: this carve is no shorter.
			c = carve()
		}
		h.ret(c.Cursor, c.Limit, words)
	}
	x := carve()
	y := carve()
	h.ret(x.Cursor, x.Limit, words)
	audit("return x, carved before y", y)
	h.ret(y.Cursor, y.Limit, words)
	z := carve()
	h.ret(z.Cursor, z.Limit, words)
	audit("return z")
	for i := 0; i < min(max, 64); i++ {
		h.alloc(tc.nwords, tc.atomic)
		audit(fmt.Sprintf("single %d", i))
	}
}

// holeChurn is the oracle's seeded churn on one heap: carves of random
// size held as caches hold them and partly consumed, returns of their
// tails, single and typed allocations, explicit frees, finished lazy
// sweeps, and collections that keep a random third of what was handed
// out and every held slot.
func holeChurn(t testing.TB, cfg Config, seed uint64, ops int, noOrder bool) {
	h := newOrderCheck(t, cfg)
	h.noOrder = noOrder
	rng := simrand.New(seed)
	id, err := h.a.RegisterDescriptor([]bool{true, false, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 2, 3, 8, 24, 170}
	var held []Span
	var live []mem.Addr
	for op := 0; op < ops; op++ {
		nwords, atomic := sizes[rng.Intn(len(sizes))], rng.Intn(3) == 0
		switch r := rng.Intn(100); {
		case r < 30:
			s := h.carve(nwords, atomic, []int{1, 7, 32, mem.PageWords}[rng.Intn(4)])
			// A cache hands out a prefix; the rest stays held.
			n := rng.Intn(s.slots(s.Words) + 1)
			for i := 0; i < n; i++ {
				live = append(live, s.Cursor)
				s.Cursor += mem.Addr(s.Words * mem.WordBytes)
			}
			held = append(held, s)
		case r < 45 && len(held) > 0:
			i := rng.Intn(len(held))
			h.ret(held[i].Cursor, held[i].Limit, held[i].Words)
			held = slices.Delete(held, i, i+1)
		case r < 60:
			live = append(live, h.alloc(nwords, atomic))
		case r < 68:
			live = append(live, h.typed(id))
		case r < 85 && len(live) > 0:
			i := rng.Intn(len(live))
			h.free(live[i])
			live = slices.Delete(live, i, i+1)
		case r < 90:
			h.finish()
		case r < 95:
			h.finish()
			kept := live[:0]
			for _, p := range live {
				if rng.Intn(3) == 0 {
					h.a.Mark(p)
					kept = append(kept, p)
				}
			}
			live = kept
			for _, s := range held {
				h.a.MarkHeldSpan(s.Cursor, s.Limit, true)
			}
			h.sweep()
		}
		// The audit walks the whole heap; every tenth operation and the
		// last keep the churn quick under -race.
		if op%10 == 9 || op == ops-1 {
			h.audit(fmt.Sprintf("op %d", op), held)
		}
	}
}

// holeConfigs are the configurations the churn covers.
var holeConfigs = map[string]Config{
	"eager":         {},
	"lazy":          {LazySweep: true},
	"skip-boundary": {SkipPageBoundarySlot: true, LazySweep: true},
	"extents":       smallExtents,
}

// TestHoleOrderOracle runs the seeded churn under each configuration:
// every slot every entry point hands out is the one the threaded free
// list would have, eager and lazy sweeps alike, explicit frees coming
// back last in, first out, and returned tails first.
func TestHoleOrderOracle(t *testing.T) {
	for name, cfg := range holeConfigs {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				holeChurn(t, cfg, seed, 1500, false)
			}
		})
	}
}

// TestHoleDoubleIssue is the churn's other half, and its own test so a
// failure names it: no carve hands out a slot whose alloc bit is set —
// one handed out and not yet freed, returned or swept dead — or the
// same slot twice, or a slot with a word left in it. orderCheck checks
// it on every carve; here the churn runs long, on one small heap, where
// blocks are swept and re-carved over and over, with the order left to
// TestHoleOrderOracle so that only these rules can fail it.
func TestHoleDoubleIssue(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		holeChurn(t, Config{LazySweep: lazy, InitialBytes: 4 * mem.PageBytes, ReserveBytes: 256 * mem.PageBytes}, 99, 6000, true)
	}
}

// TestCorruptFreeListLinks plants, three slots down a swept list, each
// value that was a corrupt link when the threaded list kept its links
// in the first word of every free slot — or write-protects the heap —
// and allocates through each entry point: nothing the heap holds steers
// the allocator any more, so every entry point carves the slots the
// alloc bits say, in order, without writing the heap, and the audit
// names the written free slot.
func TestCorruptFreeListLinks(t *testing.T) {
	const good = 3 // slots ahead of the planted value
	faults := []struct {
		name string
		// link returns the value to plant (0: plant nothing), given the
		// address of the slot that comes next.
		link     func(a *Allocator, next mem.Addr) mem.Addr
		readOnly bool
	}{
		{name: "outside-heap", link: func(*Allocator, mem.Addr) mem.Addr { return 0x10 }},
		{name: "unaligned", link: func(_ *Allocator, next mem.Addr) mem.Addr { return next + 2 }},
		{name: "reserved-uncommitted", link: func(a *Allocator, _ mem.Addr) mem.Addr { return a.Limit() + 64 }},
		{name: "not-a-small-block", link: func(a *Allocator, _ mem.Addr) mem.Addr {
			p, err := a.Alloc(MaxSmallWords+1, false)
			if err != nil {
				panic(err)
			}
			return p
		}},
		{name: "read-only", readOnly: true},
	}
	entries := []struct {
		name string
		// pop takes up to n slots, stopping at the first error.
		pop func(a *Allocator, id DescID, n int) ([]mem.Addr, error)
	}{
		{"AllocRun", func(a *Allocator, _ DescID, n int) ([]mem.Addr, error) { return a.AllocRun(8, false, n, nil) }},
		{"AllocBatch", func(a *Allocator, _ DescID, n int) ([]mem.Addr, error) {
			s, err := a.AllocBatch(8, false, n)
			var run []mem.Addr
			for p := s.Cursor; p < s.Limit; p += mem.Addr(s.Words * mem.WordBytes) {
				run = append(run, p)
			}
			return run, err
		}},
		{"Alloc", func(a *Allocator, _ DescID, n int) ([]mem.Addr, error) {
			return popSingly(n, func() (mem.Addr, error) { return a.Alloc(8, false) })
		}},
		{"AllocTyped", func(a *Allocator, id DescID, n int) ([]mem.Addr, error) {
			return popSingly(n, func() (mem.Addr, error) { return a.AllocTyped(id) })
		}},
	}
	for _, f := range faults {
		for _, e := range entries {
			t.Run(f.name+"/"+e.name, func(t *testing.T) {
				_, a := newTestAllocator(t, Config{})
				id, err := a.RegisterDescriptor(make([]bool, 8))
				if err != nil {
					t.Fatal(err)
				}
				// A swept list: two allocations take a fresh block's first
				// slots, and with the first marked the sweep frees the rest.
				first, err := e.pop(a, id, 2)
				if err != nil {
					t.Fatal(err)
				}
				a.Mark(first[0])
				a.Sweep()
				stride := mem.Addr(8 * mem.WordBytes)
				var want []mem.Addr
				for i := 1; i <= 32; i++ {
					want = append(want, first[0]+mem.Addr(i)*stride)
				}
				if f.link != nil {
					planted := want[good-1]
					if err := a.storeWord(planted, mem.Word(f.link(a, want[good]))); err != nil {
						t.Fatal(err)
					}
					if err := a.CheckIntegrity(nil); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x is not zeroed", uint32(planted))) {
						t.Errorf("audit: %v, want it to name the written slot %#x", err, uint32(planted))
					}
				}
				if f.readOnly {
					a.Seg().SetWritable(false)
				}
				out, err := e.pop(a, id, 32)
				if err != nil {
					t.Fatalf("carved %d slots, then: %v", len(out), err)
				}
				if !slices.Equal(out, want) {
					t.Errorf("carved %x, want %x", out, want)
				}
			})
		}
	}
}

// slots returns how many slots of words words the span covers.
func (s Span) slots(words int) int {
	return int(s.Limit-s.Cursor) / (words * mem.WordBytes)
}

// storeWord writes heap memory by address.
func (a *Allocator) storeWord(p mem.Addr, v mem.Word) error {
	if e := a.extentOfAddr(p); e != nil {
		return e.seg.Store(p, v)
	}
	return fmt.Errorf("alloc: store outside heap at %#x", uint32(p))
}

// popSingly calls pop up to n times, stopping at the first error.
func popSingly(n int, pop func() (mem.Addr, error)) (out []mem.Addr, err error) {
	for len(out) < n {
		p, err := pop()
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// TestAllocRunZeroAlloc pins the refill carve and its return at no
// Go-heap allocation when the caller's buffer has room, on holes of two
// slots in swept blocks, on holes of one freed slot each, and on a
// fresh block.
func TestAllocRunZeroAlloc(t *testing.T) {
	for _, shape := range []string{"swept", "hopping", "fresh"} {
		t.Run(shape, func(t *testing.T) {
			h := newOrderCheck(t, Config{})
			carveShapes[shape](h, func() mem.Addr { return h.alloc(8, false) })
			a := h.a
			buf := make([]mem.Addr, 0, 32)
			if n := testing.AllocsPerRun(100, func() {
				run, err := a.AllocRun(8, false, cap(buf), buf[:0])
				if err != nil || len(run) == 0 {
					t.Fatalf("carved %d slots: %v", len(run), err)
				}
				a.ReturnSpan(run[0], run[len(run)-1]+8*mem.WordBytes)
			}); n != 0 {
				t.Errorf("AllocRun+ReturnSpan allocate %v times per call", n)
			}
		})
	}
}

// TestFreshSpanReturnZeroAlloc pins the returns of spans off a fresh
// block at no Go-heap allocation, and at no growth of the list: each
// round carves two spans, gives back the first (pushed: a later carve
// was made), carves it again, then gives back the second span and the
// first again (the one rewinds its source, the other extends it),
// leaving the next round to carve what this one did.
func TestFreshSpanReturnZeroAlloc(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	var start mem.Addr
	if n := testing.AllocsPerRun(100, func() {
		x, err := a.AllocBatch(8, false, 32)
		if err != nil || start != 0 && x.Cursor != start {
			t.Fatalf("first carve: span %+v, want it at %#x: %v", x, uint32(start), err)
		}
		start = x.Cursor
		y, err := a.AllocBatch(8, false, 32)
		if err != nil || y.Cursor != x.Limit {
			t.Fatalf("second carve: span %+v after %+v: %v", y, x, err)
		}
		a.ReturnSpan(x.Cursor, x.Limit)
		if x2, err := a.AllocBatch(8, false, 32); err != nil || x2 != x {
			t.Fatalf("carved %+v after the push, want %+v: %v", x2, x, err)
		}
		a.ReturnSpan(y.Cursor, y.Limit)
		a.ReturnSpan(x.Cursor, x.Limit)
	}); n != 0 {
		t.Errorf("span carves and returns allocate %v times per round", n)
	}
	if l := &a.lists[listIdx(int(classOf[8]), false)]; len(l.sources()) > 2 {
		t.Errorf("the list holds %d sources after the rounds, want at most 2", len(l.sources()))
	}
}

// BenchmarkHoleRefill is the refill rung: one carve of the next hole
// and its return per iteration, as a cache refill and its flush, in ns
// per slot carved. fresh carves a just-dedicated block's one hole
// (its return rewinds the source); swept carves the fifteen-slot holes
// of a block where every sixteenth object survived; fragmented carves
// the one-slot holes of a block where every other object survived.
func BenchmarkHoleRefill(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int // every n-th object survives the sweep; 0: no sweep
	}{{"fresh", 0}, {"swept", 16}, {"fragmented", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			a, err := New(mem.NewAddressSpace(), Config{HeapBase: testHeapBase, InitialBytes: 64 * mem.PageBytes, ReserveBytes: 64 * mem.PageBytes})
			if err != nil {
				b.Fatal(err)
			}
			if bc.every > 0 {
				s, err := a.AllocSpan(8, false)
				if err != nil {
					b.Fatal(err)
				}
				for i, p := 0, s.Cursor; p < s.Limit; i, p = i+1, p+8*mem.WordBytes {
					if i%bc.every == 0 {
						a.Mark(p)
					}
				}
				a.Sweep()
			}
			slots := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := a.AllocSpan(8, false)
				if err != nil {
					b.Fatal(err)
				}
				slots += a.ReturnSpan(s.Cursor, s.Limit)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
		})
	}
}

// TestCheckIntegrityFreshRun pins the audit's view of a fresh block's
// hole: its slots count as free (a heap with a half-carved fresh block
// passes), and a free slot that is written, allocated behind the
// block's count, or served by another class's list fails.
func TestCheckIntegrityFreshRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(a *Allocator, bi int, p mem.Addr)
		want    string
	}{
		{"sound", func(*Allocator, int, mem.Addr) {}, ""},
		{"written", func(a *Allocator, _ int, p mem.Addr) { a.storeWord(p+mem.WordBytes, 1) }, "not zeroed"},
		{"allocated", func(a *Allocator, bi int, _ mem.Addr) { bitSet(a.blocks[bi].allocBits, 1) }, "!= liveSlots"},
		{"listed", func(a *Allocator, bi int, _ mem.Addr) {
			a.lists[listIdx(int(classOf[16]), false)].push(holeSrc{bi: int32(bi), base: a.blockBase(bi), lo: 1, hi: 2})
		}, "source in block"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, a := newTestAllocator(t, Config{})
			p := mustAlloc(t, a, 8, false)
			bi := a.blockIndex(p)
			if l := a.lists[listIdx(int(classOf[8]), false)]; len(l.below) != 0 || l.top.lo != 1 {
				t.Fatalf("list after one allocation: %+v", l)
			}
			tc.corrupt(a, bi, p+8*mem.WordBytes)
			err := a.CheckIntegrity(nil)
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("audit: %v, want %q", err, tc.want)
			}
		})
	}
}
