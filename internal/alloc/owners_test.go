package alloc

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// mapOwners is the ownership table as it was before the per-block side
// table: a map from object base to (owner, charged bytes), reconciled by
// asking IsAllocated about every record. Kept here as the differential's
// reference, the way geometry_test.go keeps the divide-based FindObject.
type mapOwners struct {
	owned  map[mem.Addr]mapOwnerRec
	credit func(id int32, objects, bytes uint64)
}

type mapOwnerRec struct {
	id    int32
	bytes uint64
}

func (m *mapOwners) tag(base mem.Addr, id int32, bytes uint64) {
	if m.owned == nil {
		m.owned = make(map[mem.Addr]mapOwnerRec)
	}
	if old, ok := m.owned[base]; ok {
		m.credit(old.id, 1, old.bytes)
	}
	m.owned[base] = mapOwnerRec{id: id, bytes: bytes}
}

func (m *mapOwners) untag(base mem.Addr) { delete(m.owned, base) }

func (m *mapOwners) take(base mem.Addr) (int32, uint64, bool) {
	rec, ok := m.owned[base]
	if ok {
		delete(m.owned, base)
	}
	return rec.id, rec.bytes, ok
}

func (m *mapOwners) reconcile(a *Allocator) {
	for base, rec := range m.owned {
		if a.IsAllocated(base) {
			continue
		}
		delete(m.owned, base)
		m.credit(rec.id, 1, rec.bytes)
	}
}

func (m *mapOwners) ownedOf(id int32) []mem.Addr {
	var out []mem.Addr
	for base, rec := range m.owned {
		if rec.id == id {
			out = append(out, base)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *mapOwners) ownedBytes(id int32) uint64 {
	var sum uint64
	for _, rec := range m.owned {
		if rec.id == id {
			sum += rec.bytes
		}
	}
	return sum
}

// chargeBytes is core's tenantChargeBytes: what the tenant layer charges
// for an allocation of nwords, and what it used to hand TagOwner.
func chargeBytes(nwords int) uint64 {
	if IsLarge(nwords) {
		return uint64(nwords) * mem.WordBytes
	}
	_, words := ClassFor(nwords)
	return uint64(words) * mem.WordBytes
}

// ownerTally is one tenant's credited objects and bytes.
type ownerTally struct{ objects, bytes uint64 }

// simCache is one size class's cached carve in a simulated mutator: a
// span, the whole hole a refill carved.
type simCache struct {
	nwords        int
	cursor, limit mem.Addr
}

// ownerHarness drives one allocator the way core's tenant layer does —
// carve and tag, consume, flush and untag, free and take, collect and
// reconcile, evict — mirroring every ownership call into the map
// reference, and compares the two after every reconcile.
type ownerHarness struct {
	t        testing.TB
	a        *Allocator
	ref      mapOwners
	tab, exp map[int32]ownerTally
	caches   [][]simCache // per simulated mutator; mutator m charges tenant m+1
	live     []mem.Addr
	rooted   map[mem.Addr]bool
	desc     DescID
}

const ownerSimTenants = 3

var ownerSimSizes = []int{1, 2, 4, 8, 16, 24, 64, 170, 512}

func newOwnerHarness(t testing.TB, cfg Config) *ownerHarness {
	t.Helper()
	if cfg.HeapBase == 0 {
		cfg.HeapBase = testHeapBase
	}
	if cfg.InitialBytes == 0 {
		cfg.InitialBytes = 8 * mem.PageBytes
		cfg.ReserveBytes = 48 * mem.PageBytes
	}
	cfg.ExpandIncrement = mem.PageBytes
	a, err := New(mem.NewAddressSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &ownerHarness{
		t: t, a: a,
		tab: map[int32]ownerTally{}, exp: map[int32]ownerTally{},
		caches: make([][]simCache, ownerSimTenants),
		rooted: map[mem.Addr]bool{},
	}
	for m := range h.caches {
		h.caches[m] = make([]simCache, len(ownerSimSizes))
	}
	tally := func(into map[int32]ownerTally) func(int32, uint64, uint64) {
		return func(id int32, objects, bytes uint64) {
			tl := into[id]
			tl.objects += objects
			tl.bytes += bytes
			into[id] = tl
		}
	}
	a.SetOwnerCredit(tally(h.tab))
	h.ref.credit = tally(h.exp)
	if h.desc, err = a.RegisterDescriptor([]bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	return h
}

// retry runs an allocation, expanding the heap once if it needs memory.
func (h *ownerHarness) retry(f func() error) bool {
	err := f()
	if err == ErrNeedMemory && h.a.Expand(mem.PageBytes) == nil {
		err = f()
	}
	if err != nil && err != ErrNeedMemory {
		h.t.Fatal(err)
	}
	return err == nil
}

func (h *ownerHarness) born(p mem.Addr) {
	h.live = append(h.live, p)
	h.rooted[p] = true
}

// carve refills one cache: the remainder goes back first, then the
// next hole is carved, every slot tagged, and the first consumed.
func (h *ownerHarness) carve(m, ci int, atomic bool) {
	h.flushCache(m, ci)
	c := &h.caches[m][ci]
	c.nwords = ownerSimSizes[ci]
	id, bytes := int32(m+1), chargeBytes(c.nwords)
	var s Span
	if !h.retry(func() (err error) { s, err = h.a.AllocSpan(c.nwords, atomic); return }) {
		return
	}
	h.a.TagOwnerSpan(s.Cursor, s.Limit, id)
	for p := s.Cursor; p < s.Limit; p += mem.Addr(bytes) {
		h.ref.tag(p, id, bytes)
	}
	c.cursor, c.limit = s.Cursor, s.Limit
	h.consume(m, ci)
}

func (h *ownerHarness) consume(m, ci int) {
	if c := &h.caches[m][ci]; c.cursor < c.limit {
		h.born(c.cursor)
		c.cursor += mem.Addr(chargeBytes(c.nwords))
	}
}

func (h *ownerHarness) flushCache(m, ci int) {
	c := &h.caches[m][ci]
	if c.cursor < c.limit {
		h.a.UntagOwnerSpan(c.cursor, c.limit)
		for p := c.cursor; p < c.limit; p += mem.Addr(chargeBytes(c.nwords)) {
			h.ref.untag(p)
		}
		h.a.ReturnSpan(c.cursor, c.limit)
		c.cursor, c.limit = 0, 0
	}
}

func (h *ownerHarness) flush(m int) {
	for ci := range h.caches[m] {
		h.flushCache(m, ci)
	}
}

// single is an allocation that comes from no carve; nwords is what the
// tenant layer would charge for.
func (h *ownerHarness) single(m, nwords int, alloc func() (mem.Addr, error)) {
	var p mem.Addr
	if !h.retry(func() (err error) { p, err = alloc(); return }) {
		return
	}
	h.a.TagOwner(p, int32(m+1))
	h.ref.tag(p, int32(m+1), chargeBytes(nwords))
	h.born(p)
}

// free is Mutator.Free: flush the handle, free, take the record.
func (h *ownerHarness) free(m int, base mem.Addr) {
	h.flush(m)
	if err := h.a.Free(base); err != nil {
		return
	}
	gid, gbytes, gok := h.a.TakeOwner(base)
	wid, wbytes, wok := h.ref.take(base)
	if gid != wid || gbytes != wbytes || gok != wok {
		h.t.Fatalf("TakeOwner(%#x) = (%d, %d, %v), map (%d, %d, %v)", uint32(base), gid, gbytes, gok, wid, wbytes, wok)
	}
	delete(h.rooted, base)
}

// collect is a collection barrier: every cache flushed, deferred sweeps
// landed, the rooted objects marked, the rest swept.
func (h *ownerHarness) collect() {
	for m := range h.caches {
		h.flush(m)
	}
	h.a.FinishSweep()
	kept := h.live[:0]
	for _, p := range h.live {
		if h.rooted[p] {
			h.a.Mark(p)
			kept = append(kept, p)
		}
	}
	h.live = kept
	h.a.Sweep()
}

func (h *ownerHarness) reconcile() {
	h.a.ReconcileOwners()
	h.ref.reconcile(h.a)
	h.compare()
}

// evict is evictTenantLocked: reconcile, then free and take everything
// the tenant still owns.
func (h *ownerHarness) evict(m int) {
	h.flush(m)
	h.a.FinishSweep()
	h.reconcile()
	for _, base := range h.a.OwnedOf(int32(m + 1)) {
		h.free(m, base)
	}
	kept := h.live[:0]
	for _, p := range h.live {
		if h.rooted[p] {
			kept = append(kept, p)
		}
	}
	h.live = kept
	h.reconcile()
}

// compare is the differential's oracle, valid right after both sides
// reconciled: equal credit per tenant, equal owned sets and bytes, the
// same owner for every live object — and the table's own bookkeeping
// (record counts, arrays dropped at zero) consistent.
func (h *ownerHarness) compare() {
	h.t.Helper()
	for id := int32(1); id <= ownerSimTenants; id++ {
		if h.tab[id] != h.exp[id] {
			h.t.Fatalf("tenant %d credited %+v, map %+v", id, h.tab[id], h.exp[id])
		}
		got, want := h.a.OwnedOf(id), h.ref.ownedOf(id)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			h.t.Fatalf("tenant %d OwnedOf = %x, map %x", id, got, want)
		}
		if g, w := h.a.OwnedBytes(id), h.ref.ownedBytes(id); g != w {
			h.t.Fatalf("tenant %d OwnedBytes = %d, map %d", id, g, w)
		}
	}
	for _, p := range h.live {
		gid, gok := h.a.OwnerOf(p)
		rec, wok := h.ref.owned[p]
		if gid != rec.id || gok != wok {
			h.t.Fatalf("OwnerOf(%#x) = (%d, %v), map (%d, %v)", uint32(p), gid, gok, rec.id, wok)
		}
	}
	if h.a.HasOwners() != (len(h.ref.owned) > 0) {
		h.t.Fatalf("HasOwners = %v with %d map records", h.a.HasOwners(), len(h.ref.owned))
	}
	if total := auditOwnerCounts(h.t, h.a); total != len(h.ref.owned) {
		h.t.Fatalf("%d records in the table, map holds %d", total, len(h.ref.owned))
	}
}

// auditOwnerCounts checks the table's own bookkeeping — each block's
// record count, arrays dropped at zero, the table-wide total — and
// returns the total.
func auditOwnerCounts(t testing.TB, a *Allocator) int {
	t.Helper()
	total := 0
	for bi := range a.owners {
		ob := &a.owners[bi]
		n := 0
		for _, id := range ob.ids {
			if id != 0 {
				n++
			}
		}
		if n != int(ob.n) || (ob.n == 0) != (ob.ids == nil) {
			t.Fatalf("block %d: %d records counted, n = %d, ids nil = %v", bi, n, ob.n, ob.ids == nil)
		}
		total += n
	}
	if total != a.ownerRecords {
		t.Fatalf("%d records in the table, ownerRecords = %d", total, a.ownerRecords)
	}
	return total
}

// run plays a byte tape: two bytes per step, an operation and its
// argument. Every allocation is tagged (the unbudgeted-tenant case, no
// tags at all, is core's TestTenantUnbudgetedDifferential).
func (h *ownerHarness) run(tape []byte) {
	for i := 0; i+1 < len(tape) && i < 4096; i += 2 {
		op, arg := int(tape[i]), int(tape[i+1])
		m, ci := arg%ownerSimTenants, arg/ownerSimTenants%len(ownerSimSizes)
		switch op % 16 {
		case 0, 1, 2:
			h.carve(m, ci, arg&64 != 0)
		case 3, 4, 5, 6:
			for k := 0; k <= op/16; k++ {
				h.consume(m, ci)
			}
		case 7:
			h.flush(m)
		case 8: // uncached allocations: large, typed, desperate, ignore-off-page
			switch n := MaxSmallWords + 1 + arg*24; arg % 4 {
			case 0:
				h.single(m, n, func() (mem.Addr, error) { return h.a.Alloc(n, arg&8 != 0) })
			case 1:
				h.single(m, 3, func() (mem.Addr, error) { return h.a.AllocTyped(h.desc) })
			case 2:
				h.single(m, ownerSimSizes[ci], func() (mem.Addr, error) { return h.a.AllocDesperate(ownerSimSizes[ci], false) })
			case 3:
				h.single(m, n, func() (mem.Addr, error) { return h.a.AllocIgnoreOffPage(n, false) })
			}
		case 9, 10: // explicit free of a live object
			if len(h.live) > 0 {
				if p := h.live[arg%len(h.live)]; h.rooted[p] {
					h.free(m, p)
				}
			}
		case 11, 12: // drop roots: these die at the next collection
			for k := 0; k < 1+op/16 && len(h.live) > 0; k++ {
				delete(h.rooted, h.live[(arg+k*7)%len(h.live)])
			}
		case 13: // a collection and its barrier reconcile
			h.collect()
			h.reconcile()
		case 14:
			switch arg % 4 {
			case 0: // a sweep whose reconcile comes late: stale records meet re-tagging
				h.collect()
			case 1:
				h.evict(m)
			case 2: // a demand refill between allocations: the lazy sweep's drain of one class
				class, _ := ClassFor(ownerSimSizes[ci])
				if l := &h.a.lists[listIdx(class, false)]; l.top.lo == l.top.hi && len(l.below) == 0 {
					if bi, ok := h.a.popPending(&l.pending); ok {
						h.a.sweepBlock(bi)
					}
				}
			case 3:
				h.a.Expand(mem.PageBytes)
			}
		case 15: // an over-budget slow path's reconcile, caches outstanding
			h.reconcile()
		}
	}
	h.collect()
	h.reconcile()
	if err := h.a.CheckIntegrity(nil); err != nil {
		h.t.Fatal(err)
	}
}

var ownerTapeConfigs = []struct {
	name string
	cfg  Config
}{
	{"freelist", Config{}},
	{"lazy-sweep", Config{LazySweep: true}},
	{"skip-boundary-slot", Config{SkipPageBoundarySlot: true, LazySweep: true}},
}

// TestOwnerTableMatchesMap drives the table and the map it replaced side
// by side over seeded random tapes in every allocation and sweep profile.
func TestOwnerTableMatchesMap(t *testing.T) {
	for _, tc := range ownerTapeConfigs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				rng := simrand.New(seed)
				tape := make([]byte, 1600)
				for i := range tape {
					tape[i] = byte(rng.Intn(256))
				}
				h := newOwnerHarness(t, tc.cfg)
				h.run(tape)
				credited := uint64(0)
				for _, tl := range h.tab {
					credited += tl.objects
				}
				if credited == 0 {
					t.Fatalf("seed %d credited nothing: the tape exercised no reconcile", seed)
				}
			}
		})
	}
}

// FuzzOwnerTable is the same differential on fuzzer-chosen tapes; the
// first byte picks the configuration.
func FuzzOwnerTable(f *testing.F) {
	f.Add([]byte{0, 0, 3, 3, 3, 19, 3, 11, 0, 13, 0, 0, 4, 14, 0, 1, 4, 15, 0})
	f.Add([]byte{1, 2, 5, 8, 0, 8, 3, 9, 1, 14, 1, 13, 0, 2, 5, 14, 2})
	f.Add([]byte{2, 0, 9, 51, 9, 12, 3, 13, 0, 14, 6, 0, 18, 15, 0, 14, 0, 1, 27, 13, 0})
	f.Add([]byte{5, 8, 0, 8, 4, 0, 60, 14, 3, 8, 0, 14, 1, 13, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			t.Skip("empty tape")
		}
		newOwnerHarness(t, ownerTapeConfigs[int(tape[0])%len(ownerTapeConfigs)].cfg).run(tape[1:])
	})
}

// ownerEdgeHeap is a small heap with a credit recorder, for the edges
// the map handled implicitly by being keyed on addresses.
func ownerEdgeHeap(t *testing.T, cfg Config) (*Allocator, map[int32]ownerTally) {
	h := newOwnerHarness(t, cfg)
	return h.a, h.tab
}

func TestOwnerTableEdges(t *testing.T) {
	t.Run("large and ignore-off-page", func(t *testing.T) {
		a, credit := ownerEdgeHeap(t, Config{})
		big := mustAlloc(t, a, 3*mem.PageWords+5, false)
		iop, err := a.AllocIgnoreOffPage(2*mem.PageWords, true)
		if err != nil {
			t.Fatal(err)
		}
		a.TagOwner(big, 1)
		a.TagOwner(iop, 2)
		if id, ok := a.OwnerOf(big); !ok || id != 1 {
			t.Fatalf("OwnerOf(large) = %d, %v", id, ok)
		}
		for _, p := range []mem.Addr{big + mem.WordBytes, big + mem.PageBytes, big - mem.PageBytes, 0} {
			if _, ok := a.OwnerOf(p); ok {
				t.Fatalf("OwnerOf(%#x), not an object base, reports an owner", uint32(p))
			}
			if _, _, ok := a.TakeOwner(p); ok {
				t.Fatalf("TakeOwner(%#x), not an object base, took a record", uint32(p))
			}
		}
		if got := a.OwnedBytes(1); got != (3*mem.PageWords+5)*mem.WordBytes {
			t.Fatalf("OwnedBytes = %d, want the exact word size", got)
		}
		a.Mark(iop)
		a.Sweep()
		if objs, bytes := a.ReconcileOwners(); objs != 1 || bytes != (3*mem.PageWords+5)*mem.WordBytes {
			t.Fatalf("reconcile credited %d objects %d bytes", objs, bytes)
		}
		if credit[1].objects != 1 || credit[2].objects != 0 {
			t.Fatalf("credits = %v", credit)
		}
		if got := a.OwnedOf(2); len(got) != 1 || got[0] != iop {
			t.Fatalf("OwnedOf(2) = %x, want [%x]", got, iop)
		}
	})

	t.Run("typed and desperate", func(t *testing.T) {
		h := newOwnerHarness(t, Config{})
		a := h.a
		typed, err := a.AllocTyped(h.desc)
		if err != nil {
			t.Fatal(err)
		}
		desperate, err := a.AllocDesperate(5, false)
		if err != nil {
			t.Fatal(err)
		}
		a.TagOwner(typed, 1)
		a.TagOwner(desperate, 1)
		// The charge is the padded class size in both cases: 3 → 3 words,
		// 5 → 5 words.
		if got, want := a.OwnedBytes(1), chargeBytes(3)+chargeBytes(5); got != want {
			t.Fatalf("OwnedBytes = %d, want %d", got, want)
		}
		a.Sweep()
		a.ReconcileOwners()
		if h.tab[1] != (ownerTally{2, chargeBytes(3) + chargeBytes(5)}) {
			t.Fatalf("credit = %+v", h.tab[1])
		}
		if a.HasOwners() {
			t.Fatal("records survive their objects")
		}
	})

	t.Run("skip page boundary slot", func(t *testing.T) {
		a, _ := ownerEdgeHeap(t, Config{SkipPageBoundarySlot: true})
		run, err := a.AllocRun(1, false, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if run[0]&(mem.PageBytes-1) == 0 {
			t.Fatal("the boundary slot was handed out")
		}
		a.TagOwnerSpan(run[0], run[len(run)-1]+mem.WordBytes, 3)
		got := a.OwnedOf(3)
		if fmt.Sprint(got) != fmt.Sprint(run) {
			t.Fatalf("OwnedOf = %x, want the run %x", got, run)
		}
		if _, ok := a.OwnerOf(mem.AlignPageDown(run[0])); ok {
			t.Fatal("the sacrificed slot reports an owner")
		}
	})

	t.Run("expansion after the table exists", func(t *testing.T) {
		a, credit := ownerEdgeHeap(t, Config{
			InitialBytes: 2 * mem.PageBytes, ReserveBytes: 10 * mem.PageBytes,
		})
		first := mustAlloc(t, a, 8, false)
		a.TagOwner(first, 1)
		tableLen := len(a.owners)
		var far mem.Addr
		for a.NumBlocks() <= 2 || a.blockIndex(far) < tableLen {
			far = mustAlloc(t, a, 512, false)
		}
		a.TagOwner(far, 2)
		if len(a.owners) <= tableLen {
			t.Fatal("the table did not grow with the heap")
		}
		if id, ok := a.OwnerOf(far); !ok || id != 2 {
			t.Fatalf("OwnerOf(object past the first table) = %d, %v", id, ok)
		}
		if id, ok := a.OwnerOf(first); !ok || id != 1 {
			t.Fatalf("OwnerOf(first object) = %d, %v", id, ok)
		}
		a.Mark(first)
		a.Sweep()
		a.ReconcileOwners()
		if credit[2] != (ownerTally{1, 512 * mem.WordBytes}) || credit[1].objects != 0 {
			t.Fatalf("credits = %v", credit)
		}
	})

	t.Run("free releases the block before TakeOwner", func(t *testing.T) {
		a, _ := ownerEdgeHeap(t, Config{})
		big := mustAlloc(t, a, 2*mem.PageWords, false)
		a.TagOwner(big, 1)
		if err := a.Free(big); err != nil {
			t.Fatal(err)
		}
		if a.blocks[a.blockIndex(big)].state != blockFree {
			t.Fatal("Free of a large object kept its blocks")
		}
		id, bytes, ok := a.TakeOwner(big)
		if !ok || id != 1 || bytes != 2*mem.PageBytes {
			t.Fatalf("TakeOwner after the release = (%d, %d, %v)", id, bytes, ok)
		}
		if a.HasOwners() || a.owners[a.blockIndex(big)].ids != nil {
			t.Fatal("the taken record left something behind")
		}
	})

	t.Run("span displacement", func(t *testing.T) {
		// A block of 8-word slots: tenant 1 tags slots [0, 32), tenant 2
		// the rest. Slots [0, 8) and [64, 72) survive the sweep; nothing
		// reconciles before the next carve, which takes the hole [8, 64)
		// over the dead objects' stale records.
		a, credit := ownerEdgeHeap(t, Config{})
		s, err := a.AllocSpan(8, false)
		if err != nil {
			t.Fatal(err)
		}
		step := mem.Addr(chargeBytes(8))
		if n := s.slots(8); n != 128 {
			t.Fatalf("fresh span holds %d slots", n)
		}
		a.TagOwnerSpan(s.Cursor, s.Cursor+32*step, 1)
		a.TagOwnerSpan(s.Cursor+32*step, s.Limit, 2)
		for slot := 0; slot < 128; slot++ {
			if slot < 8 || slot >= 64 && slot < 72 {
				a.Mark(s.Cursor + mem.Addr(slot)*step)
			}
		}
		a.Sweep()
		s2, err := a.AllocSpan(8, false)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Cursor != s.Cursor+8*step || s2.Limit != s.Cursor+64*step {
			t.Fatalf("re-carve = [%#x,%#x), want slots [8, 64)", uint32(s2.Cursor), uint32(s2.Limit))
		}
		a.TagOwnerSpan(s2.Cursor, s2.Limit, 3)
		if credit[1] != (ownerTally{24, 24 * chargeBytes(8)}) || credit[2] != (ownerTally{32, 32 * chargeBytes(8)}) {
			t.Fatalf("displacement credited %+v and %+v, want 24 and 32 objects", credit[1], credit[2])
		}
		// The live slots, the new span, and the 56 stale records of the
		// hole [72, 128) no carve has reached.
		if total := auditOwnerCounts(t, a); total != 128 {
			t.Fatalf("%d records after the displacing tag, want 128", total)
		}
		if got := a.OwnedBytes(3); got != 56*chargeBytes(8) {
			t.Fatalf("the new owner holds %d bytes, want 56 slots", got)
		}
		a.ReconcileOwners()
		if credit[2] != (ownerTally{88, 88 * chargeBytes(8)}) {
			t.Fatalf("reconcile left tenant 2 credited %+v, want 88 objects", credit[2])
		}
		if total := auditOwnerCounts(t, a); total != 72 {
			t.Fatalf("%d records after the reconcile, want 72", total)
		}
	})

	t.Run("block re-dedicated to another class between reconciles", func(t *testing.T) {
		for _, retag := range []bool{true, false} {
			a, credit := ownerEdgeHeap(t, Config{InitialBytes: mem.PageBytes, ReserveBytes: mem.PageBytes})
			run, err := a.AllocRun(8, false, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			a.TagOwnerSpan(run[0], run[len(run)-1]+8*mem.WordBytes, 1)
			a.Sweep() // nothing marked: the heap's one block is released, records and all
			other := mustAlloc(t, a, 16, false)
			if a.blockIndex(other) != a.blockIndex(run[0]) {
				t.Fatal("the block was not reused")
			}
			if retag {
				// Displacement, block-wide: the stale records are credited
				// before the new geometry's first tag lands.
				a.TagOwner(other, 2)
				if credit[1] != (ownerTally{4, 4 * chargeBytes(8)}) {
					t.Fatalf("re-tag credited %+v to the previous owner", credit[1])
				}
			}
			a.ReconcileOwners()
			if credit[1] != (ownerTally{4, 4 * chargeBytes(8)}) {
				t.Fatalf("retag=%v: previous owner credited %+v, want 4 objects of class 8", retag, credit[1])
			}
			if got := a.OwnedBytes(1); got != 0 {
				t.Fatalf("retag=%v: previous owner still owns %d bytes", retag, got)
			}
			if retag {
				if id, ok := a.OwnerOf(other); !ok || id != 2 || a.OwnedBytes(2) != chargeBytes(16) {
					t.Fatalf("new owner: OwnerOf = %d, %v, OwnedBytes = %d", id, ok, a.OwnedBytes(2))
				}
			}
		}
	})
}

// TestOwnerTableZeroAllocs pins the steady state: tagging, untagging and
// reconciling a block that already holds an id array allocates nothing,
// and the array goes when its last record does. The carve is a cache's
// whole hole, and one capped at 32 slots.
func TestOwnerTableZeroAllocs(t *testing.T) {
	for _, max := range []int{32, mem.PageWords} {
		a, _ := ownerEdgeHeap(t, Config{})
		span, err := a.AllocBatch(8, false, max)
		if err != nil {
			t.Fatal(err)
		}
		// The first slot is consumed and stays owned, as in a cache.
		first, rest := span.Cursor, span.Cursor+8*mem.WordBytes
		a.TagOwner(first, 1)
		if avg := testing.AllocsPerRun(50, func() {
			a.TagOwnerSpan(rest, span.Limit, 1)
			a.UntagOwnerSpan(rest, span.Limit)
			a.ReconcileOwners()
		}); avg != 0 {
			t.Fatalf("max=%d: steady-state tag/untag/reconcile allocates %v times", max, avg)
		}
		// Reconciling dead records away allocates nothing either: each
		// round carves the tail again, tags it, gives it back and
		// reconciles its records away.
		a.ReturnSpan(rest, span.Limit)
		n := uint64(span.Limit-rest) / (8 * mem.WordBytes)
		if avg := testing.AllocsPerRun(20, func() {
			if s, err := a.AllocBatch(8, false, max-1); err != nil || s.Cursor != rest || s.Limit != span.Limit {
				t.Fatalf("max=%d: re-carve %+v, want [%#x, %#x): %v", max, s, uint32(rest), uint32(span.Limit), err)
			}
			a.TagOwnerSpan(rest, span.Limit, 2)
			a.ReturnSpan(rest, span.Limit)
			if got, _ := a.ReconcileOwners(); got != n {
				t.Fatalf("max=%d: reconcile credited %d objects, want %d", max, got, n)
			}
		}); avg != 0 {
			t.Fatalf("max=%d: a crediting reconcile allocates %v times", max, avg)
		}
		bi := a.blockIndex(first)
		if a.owners[bi].n != 1 || a.owners[bi].ids == nil {
			t.Fatalf("max=%d: survivor's record lost: %+v", max, a.owners[bi])
		}
		if _, _, ok := a.TakeOwner(first); !ok {
			t.Fatal("survivor had no record")
		}
		if a.owners[bi].ids != nil || a.HasOwners() {
			t.Fatalf("max=%d: id array kept after its last record went", max)
		}
	}
}
