package alloc

import (
	"math/bits"
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// churnEvent is one observable step of a churn schedule: an allocation
// address handed out, or a sweep's reclamation totals. Lazy and eager
// sweeping must produce identical event streams.
type churnEvent struct {
	kind  string // "alloc", "sweep"
	addr  mem.Addr
	sweep SweepResult
}

// runSweepChurn drives one allocator through a deterministic
// alloc/free/collect schedule and returns the event stream. sticky
// selects SweepSticky (minor-cycle semantics) for every odd collection.
func runSweepChurn(t *testing.T, a *Allocator, seed uint64, typed DescID) []churnEvent {
	t.Helper()
	rng := simrand.New(seed)
	var events []churnEvent
	var live []mem.Addr
	gcs := 0
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(12); {
		case op < 7: // alloc
			var p mem.Addr
			var err error
			if typed >= 0 && rng.Bool(0.4) {
				p, err = a.AllocTyped(typed)
			} else {
				p, err = a.Alloc(1+rng.Intn(80), rng.Bool(0.25))
			}
			if err == ErrNeedMemory {
				if err := a.Expand(mem.PageBytes); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
			events = append(events, churnEvent{kind: "alloc", addr: p})
		case op < 9: // drop some references
			for i := 0; i < 5 && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		default: // collect: finish deferred sweeps, mark the live set, sweep
			// The collector's pause protocol: pending blocks still carry
			// the previous cycle's liveness bits, so they must be swept
			// before any new marking (core.Collect does the same).
			a.FinishSweep()
			for _, p := range live {
				if !a.Marked(p) {
					a.Mark(p)
				}
			}
			gcs++
			var r SweepResult
			if gcs%2 == 1 {
				r = a.SweepSticky()
			} else {
				r = a.Sweep()
			}
			events = append(events, churnEvent{kind: "sweep", sweep: r})
		}
	}
	// Final cycle plus FinishSweep: the acceptance criterion's
	// observation point.
	a.FinishSweep()
	for _, p := range live {
		if !a.Marked(p) {
			a.Mark(p)
		}
	}
	events = append(events, churnEvent{kind: "sweep", sweep: a.Sweep()})
	a.FinishSweep()
	return events
}

// TestLazySweepDifferential drives an eager and a lazy allocator through
// the same schedule (mixing full and sticky sweeps and typed
// allocations) and requires identical behaviour at every step: the same
// allocation addresses — lazy refills must consume pending blocks in
// exactly the order the eager sweep threads them — and the same
// reclamation totals at every collection barrier.
func TestLazySweepDifferential(t *testing.T) {
	// The one row keeps the name it had beside the retired line heap's.
	t.Run("freelist", func(t *testing.T) {
		for _, seed := range []uint64{1, 42, 777} {
			cfg := Config{InitialBytes: 32 * mem.PageBytes}
			_, eager := newTestAllocator(t, cfg)
			cfg.LazySweep = true
			_, lazy := newTestAllocator(t, cfg)
			mask := []bool{true, false, true, false, false, true}
			de, err := eager.RegisterDescriptor(mask)
			if err != nil {
				t.Fatal(err)
			}
			dl, err := lazy.RegisterDescriptor(mask)
			if err != nil {
				t.Fatal(err)
			}
			if de != dl {
				t.Fatalf("descriptor ids diverge: %d vs %d", de, dl)
			}
			ev := runSweepChurn(t, eager, seed, de)
			lv := runSweepChurn(t, lazy, seed, dl)
			if len(ev) != len(lv) {
				t.Fatalf("seed %d: event counts diverge: eager %d, lazy %d", seed, len(ev), len(lv))
			}
			for i := range ev {
				if ev[i] != lv[i] {
					t.Fatalf("seed %d: event %d diverges:\neager %+v\nlazy  %+v", seed, i, ev[i], lv[i])
				}
			}
			es, ls := eager.Stats(), lazy.Stats()
			if es.BytesLive != ls.BytesLive || es.ObjectsLive != ls.ObjectsLive ||
				es.BlocksDedicated != ls.BlocksDedicated || es.BlocksFree != ls.BlocksFree {
				t.Fatalf("seed %d: final stats diverge:\neager %+v\nlazy  %+v", seed, es, ls)
			}
			if lazy.SweepPending() != 0 {
				t.Fatalf("seed %d: %d blocks still pending after FinishSweep", seed, lazy.SweepPending())
			}
			efs, lfs := eager.FreeSpans(), lazy.FreeSpans()
			if len(efs) != len(lfs) {
				t.Fatalf("seed %d: free span counts diverge: %v vs %v", seed, efs, lfs)
			}
			for i := range efs {
				if efs[i] != lfs[i] {
					t.Fatalf("seed %d: free spans diverge: %v vs %v", seed, efs, lfs)
				}
			}
		}
	})
}

// TestLazySweepSummariesMatchBitmaps cross-checks the maintained mark
// summaries against independent popcounts of the bitmaps, after marking
// and after sweeping.
func TestLazySweepSummariesMatchBitmaps(t *testing.T) {
	_, a := newTestAllocator(t, Config{LazySweep: true})
	rng := simrand.New(5)
	var objs []mem.Addr
	for i := 0; i < 600; i++ {
		objs = append(objs, mustAlloc(t, a, 1+rng.Intn(40), false))
	}
	check := func(when string) {
		t.Helper()
		for bi := range a.blocks {
			b := &a.blocks[bi]
			if b.state != blockSmall && b.state != blockLargeHead {
				continue
			}
			n := 0
			for _, w := range b.markBits {
				n += bits.OnesCount64(w)
			}
			if n != int(b.markedCount) {
				t.Fatalf("%s: block %d: markedCount %d, bitmap popcount %d", when, bi, b.markedCount, n)
			}
		}
	}
	for _, p := range objs {
		if rng.Bool(0.6) {
			a.Mark(p)
		}
	}
	check("after marking")
	a.SweepSticky()
	a.FinishSweep()
	check("after sticky sweep")
	a.Sweep()
	a.FinishSweep()
	check("after full sweep")
}

// TestLazySweepPendingVisibility pins down how a sweep-pending block is
// observed: dead objects report not-allocated immediately (reclamation
// totals were already accounted at the barrier), live ones stay
// reachable, and FinishSweep reports the deferred blocks it completed.
func TestLazySweepPendingVisibility(t *testing.T) {
	_, a := newTestAllocator(t, Config{LazySweep: true})
	var objs []mem.Addr
	for i := 0; i < 8; i++ {
		objs = append(objs, mustAlloc(t, a, 4, false))
	}
	a.Mark(objs[0]) // one survivor: the block is mixed, so it goes pending
	r := a.Sweep()
	if r.ObjectsFreed != 7 || r.ObjectsLive != 1 {
		t.Fatalf("barrier totals: %+v", r)
	}
	if a.SweepPending() != 1 {
		t.Fatalf("SweepPending = %d, want 1", a.SweepPending())
	}
	if !a.IsAllocated(objs[0]) {
		t.Fatal("survivor reports not allocated while pending")
	}
	for _, p := range objs[1:] {
		if a.IsAllocated(p) {
			t.Fatalf("dead object %#x reports allocated in pending block", uint32(p))
		}
	}
	if n := a.FinishSweep(); n != 1 {
		t.Fatalf("FinishSweep swept %d blocks, want 1", n)
	}
	if a.SweepPending() != 0 {
		t.Fatal("blocks still pending after FinishSweep")
	}
	if got := a.Stats().LazySweptBlocks; got != 1 {
		t.Fatalf("LazySweptBlocks = %d, want 1", got)
	}
	if !a.IsAllocated(objs[0]) {
		t.Fatal("survivor lost by deferred sweep")
	}
}

// TestLazySweepFreeOnPendingBlock: Free must complete a block's deferred
// sweep before freeing into it, and freeing an object the collection
// already classified dead is an error, exactly as it would be after an
// eager sweep.
func TestLazySweepFreeOnPendingBlock(t *testing.T) {
	_, a := newTestAllocator(t, Config{LazySweep: true})
	var objs []mem.Addr
	for i := 0; i < 8; i++ {
		objs = append(objs, mustAlloc(t, a, 4, false))
	}
	a.Mark(objs[0])
	a.Mark(objs[1])
	a.Sweep()
	if a.SweepPending() != 1 {
		t.Fatalf("SweepPending = %d, want 1", a.SweepPending())
	}
	if err := a.Free(objs[0]); err != nil {
		t.Fatalf("Free(live in pending block): %v", err)
	}
	if a.SweepPending() != 0 {
		t.Fatal("Free did not complete the pending sweep")
	}
	if err := a.Free(objs[2]); err == nil {
		t.Fatal("Free(dead object) succeeded; it was reclaimed by the collection")
	}
	if !a.IsAllocated(objs[1]) {
		t.Fatal("unrelated survivor lost")
	}
	// The queue's stale entry for the out-of-band-swept block must not
	// confuse later refills: allocate enough to recycle the block.
	seen := map[mem.Addr]bool{}
	for i := 0; i < 20; i++ {
		p := mustAlloc(t, a, 4, false)
		if seen[p] {
			t.Fatalf("address %#x handed out twice", uint32(p))
		}
		seen[p] = true
	}
}

// TestSweepStickyNeverReleasesOldBlocks (small objects): a minor
// collection must keep every block holding an old-marked object, even
// when every young object in it dies, in both sweep modes.
func TestSweepStickyNeverReleasesOldBlocks(t *testing.T) {
	for _, lazyMode := range []bool{false, true} {
		_, a := newTestAllocator(t, Config{LazySweep: lazyMode})
		// Block A: one old object plus young garbage. Block B (different
		// class): young garbage only.
		old := mustAlloc(t, a, 4, false)
		for i := 0; i < 6; i++ {
			mustAlloc(t, a, 4, false)
		}
		for i := 0; i < 6; i++ {
			mustAlloc(t, a, 8, false)
		}
		a.Mark(old) // promoted by a previous cycle
		before := a.Stats().BlocksDedicated
		r := a.SweepSticky()
		if !a.Marked(old) {
			t.Fatalf("lazy=%v: sticky sweep lost the old mark", lazyMode)
		}
		if r.BlocksKept != 1 || r.BlocksReleased != before-1 {
			t.Fatalf("lazy=%v: kept %d released %d, want 1 and %d",
				lazyMode, r.BlocksKept, r.BlocksReleased, before-1)
		}
		a.FinishSweep()
		if !a.IsAllocated(old) || !a.Marked(old) {
			t.Fatalf("lazy=%v: old object lost by deferred sticky sweep", lazyMode)
		}
		// A full generational cycle starts from a clean slate
		// (core.Collect calls ClearMarks) and reclaims the unmarked old
		// object.
		a.ClearMarks()
		a.Sweep()
		a.FinishSweep()
		if a.IsAllocated(old) {
			t.Fatalf("lazy=%v: full sweep kept unmarked old object", lazyMode)
		}
	}
}

// TestSweepStickyNeverReleasesOldLargeSpans: the same invariant for
// large-object spans, which are classified purely by summary under lazy
// sweeping.
func TestSweepStickyNeverReleasesOldLargeSpans(t *testing.T) {
	for _, lazyMode := range []bool{false, true} {
		_, a := newTestAllocator(t, Config{LazySweep: lazyMode})
		oldSpan := mustAlloc(t, a, mem.PageWords*3, false) // 3-block span
		deadSpan := mustAlloc(t, a, mem.PageWords*2, false)
		a.Mark(oldSpan)
		r := a.SweepSticky()
		if r.BlocksKept != 3 || r.BlocksReleased != 2 {
			t.Fatalf("lazy=%v: kept %d released %d, want 3 and 2", lazyMode, r.BlocksKept, r.BlocksReleased)
		}
		if !a.IsAllocated(oldSpan) || !a.Marked(oldSpan) {
			t.Fatalf("lazy=%v: old large span lost by sticky sweep", lazyMode)
		}
		if a.IsAllocated(deadSpan) {
			t.Fatalf("lazy=%v: dead large span survived", lazyMode)
		}
		a.ClearMarks()
		a.Sweep()
		if a.IsAllocated(oldSpan) {
			t.Fatalf("lazy=%v: full sweep kept unmarked large span", lazyMode)
		}
	}
}

// TestForEachMarkedObjectWordAtATime checks the word-at-a-time iteration
// against a straightforward per-slot reference over random mark
// patterns.
func TestForEachMarkedObjectWordAtATime(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	rng := simrand.New(11)
	var objs []mem.Addr
	for i := 0; i < 400; i++ {
		objs = append(objs, mustAlloc(t, a, 1+rng.Intn(12), false))
	}
	for _, p := range objs {
		if rng.Bool(0.5) {
			a.Mark(p)
		}
	}
	for bi := range a.blocks {
		b := &a.blocks[bi]
		if b.state != blockSmall {
			continue
		}
		words := int(b.objWords)
		base := a.blockBase(bi)
		var want []mem.Addr
		for slot := 0; slot < slotsPerBlock(words); slot++ {
			if bitGet(b.allocBits, slot) && bitGet(b.markBits, slot) {
				want = append(want, base+mem.Addr(slot*words*mem.WordBytes))
			}
		}
		var got []mem.Addr
		a.ForEachMarkedObject(bi, func(p mem.Addr) { got = append(got, p) })
		if len(got) != len(want) {
			t.Fatalf("block %d: got %d marked objects, want %d", bi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block %d: iteration order diverges at %d", bi, i)
			}
		}
	}
}

// BenchmarkForEachMarkedObject measures the word-at-a-time marked-object
// iteration over a block with a realistic sparse mark pattern (the
// dirty-block rescan hot path of minor collections).
func BenchmarkForEachMarkedObject(b *testing.B) {
	space := mem.NewAddressSpace()
	a, err := New(space, Config{
		HeapBase:     testHeapBase,
		InitialBytes: 64 * mem.PageBytes,
		ReserveBytes: 1024 * mem.PageBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := simrand.New(3)
	var objs []mem.Addr
	for i := 0; i < 1024; i++ { // one-word objects: 1024 fill exactly one block
		p, err := a.Alloc(1, false)
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, p)
	}
	for _, p := range objs {
		if rng.Bool(0.1) {
			a.Mark(p)
		}
	}
	bi := a.blockIndex(objs[0])
	n := 0
	for i := 0; i < b.N; i++ {
		a.ForEachMarkedObject(bi, func(mem.Addr) { n++ })
	}
}
