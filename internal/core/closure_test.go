package core

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/mark"
	"repro/internal/mem"
)

// The closure oracle: an in-system soundness check for the batteries.
// Whenever a cycle closes (closeCycleLocked: every kind's one close, a
// concurrent finale or a stop-the-world collection alike) — marking at
// its fixpoint, the world stopped, the sweep not yet run — it walks the
// heap from the same roots the collector scans with a reachability pass
// of its own (no mark.Marker, no mark bits, a Go map for "seen") and
// requires every object it reaches to be marked: no black→white edge
// survived the cycle. After a concurrent cycle's sweep it audits the
// allocator. A differential against a sibling mode cannot see a lost
// object that both modes lose, and a battery that only checks "my
// rooted objects are still there" cannot see one the workload happens
// not to look at; this does.
//
// One kind of edge is not a minor cycle's to follow, and the oracle
// leaves it alone too: a word of an old object that no store has touched
// since the last close. Its target was marked at that close (the closure
// held), no sweep since has freed a marked object, so the target can be
// unmarked now only because the program freed it explicitly and the slot
// was carved again — a dangling pointer turned old-to-young edge that no
// store made and no card recorded. (A full cycle scans the old object and
// retains the newcomer, conservatively.) The oracle therefore keeps, from
// each close of a generational world, the words of every object left
// marked, and on a minor kind follows out of such an object only the
// words that have changed since.
//
// The check has to sit between the end of marking and the sweep, which
// consumes the mark bits (and zeroes what it frees, so a lost object can
// no longer even be recognised from the pointers to it). The collection
// hook fires after the sweep; the marked ⊇ reachable half therefore
// hangs on World.finaleAudit, the integrity half on the hook.

// closureOracle is one world's installed oracle.
type closureOracle struct {
	w  *World
	mu sync.Mutex
	// finales counts the closes checked; failure is the
	// first violation found (finales run on whichever goroutine forced
	// them, so violations are kept here and reported by the test's own
	// goroutine through check).
	finales int
	failure string
	// old holds, by base, the words of every object the last close of a
	// generational world left marked: the old generation the next minor
	// cycle starts from, as it stood then.
	old map[mem.Addr][]mem.Word
}

// installClosureOracle arms the oracle on w for the rest of the test and
// fails the test at cleanup if any finale broke the closure. next, if
// non-nil, still receives every collection's statistics.
func installClosureOracle(t testing.TB, w *World, next func(CollectionStats)) *closureOracle {
	t.Helper()
	o := &closureOracle{w: w}
	w.mu.Lock()
	w.finaleAudit = o.audit
	w.hook = func(st CollectionStats) {
		if st.Concurrent {
			// The handles are still parked: the audit is exact here.
			if err := w.verifyIntegrityLocked(); err != nil {
				o.fail(fmt.Sprintf("after concurrent cycle %d: %v", w.collections, err))
			}
		}
		if w.cfg.Generational {
			o.old = map[mem.Addr][]mem.Word{}
			for bi := 0; bi < w.Heap.NumBlocks(); bi++ {
				w.Heap.ForEachMarkedObject(bi, func(base mem.Addr) {
					if g, scanned := w.Heap.ScanView(base); scanned {
						o.old[base] = append([]mem.Word(nil), w.Heap.GrayWords(g)...)
					}
				})
			}
		}
		if next != nil {
			next(st)
		}
	}
	w.mu.Unlock()
	t.Cleanup(func() { o.check(t) })
	return o
}

// check reports the first violation, if any, on the calling goroutine.
func (o *closureOracle) check(t testing.TB) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.failure != "" {
		t.Fatalf("closure oracle: %s", o.failure)
	}
}

// checked returns how many closes the oracle has audited.
func (o *closureOracle) checked() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.finales
}

func (o *closureOracle) fail(msg string) {
	o.mu.Lock()
	if o.failure == "" {
		o.failure = msg
	}
	o.mu.Unlock()
}

// audit is the finaleAudit body: w.mu held, every mutator parked,
// marking at its fixpoint.
func (o *closureOracle) audit() {
	w := o.w
	if p := heldUnmarked(w); p != 0 {
		o.fail(fmt.Sprintf("close of cycle %d (kind %d): cached slot %#x is unmarked before the sweep",
			w.collections+1, w.cyc.kind, uint32(p)))
	}
	lost := 0
	var first mem.Addr
	var old map[mem.Addr][]mem.Word
	if w.cyc.kind.minor() {
		old = o.old
	}
	for base := range reachableFromRoots(w, old) {
		if !w.Heap.Marked(base) {
			if lost == 0 || base < first {
				first = base
			}
			lost++
		}
	}
	o.mu.Lock()
	o.finales++
	o.mu.Unlock()
	if lost > 0 {
		o.fail(fmt.Sprintf("close of cycle %d (kind %d): %d reachable objects unmarked, lowest %#x",
			w.collections+1, w.cyc.kind, lost, uint32(first)))
	}
}

// heldUnmarked returns a slot some handle's cache holds, not yet handed
// out, that is not marked, or 0. At a close every one must be marked:
// the sweep would free it under the cache, to be carved a second time.
// Callers hold w.mu with every handle parked and no marker running.
func heldUnmarked(w *World) mem.Addr {
	var held []mem.Addr
	for _, m := range w.muts {
		m.eachHeld(func(c *allocCache) { held = c.appendHeld(held) })
	}
	for _, p := range held {
		if !w.Heap.Marked(p) {
			return p
		}
	}
	return 0
}

// reachableFromRoots is the oracle's own transitive closure: every
// object reachable from the world's roots under its pointer and
// alignment policies, found by resolving candidate words with
// FindObject and following conservative objects' every word, typed
// objects' declared pointer words and pointer-free objects' none.
// A word of an object in old (nil outside minor kinds) that still holds
// what old recorded is not followed. Callers hold w.mu with the world
// stopped.
func reachableFromRoots(w *World, old map[mem.Addr][]mem.Word) map[mem.Addr]bool {
	interior := w.cfg.Pointer == mark.PointerInterior
	seen := map[mem.Addr]bool{}
	var gray []mem.Addr
	visit := func(v mem.Word) {
		if base, ok := w.Heap.FindObject(mem.Addr(v), interior); ok && !seen[base] {
			seen[base] = true
			gray = append(gray, base)
		}
	}
	area := func(words []mem.Word) {
		for i, v := range words {
			visit(v)
			if w.cfg.Alignment == mark.AnyByteOffset && i+1 < len(words) {
				hi, lo := uint32(v), uint32(words[i+1])
				visit(mem.Word(hi<<8 | lo>>24))
				visit(mem.Word(hi<<16 | lo>>16))
				visit(mem.Word(hi<<24 | lo>>8))
			}
		}
	}
	machineRoots := func(src RootSource) {
		if src == nil {
			return
		}
		for _, v := range src.Registers() {
			visit(v)
		}
		stack, _ := src.LiveStack()
		area(stack)
	}
	machineRoots(w.mut)
	for _, m := range w.muts {
		machineRoots(m.src)
	}
	for _, s := range w.Space.Roots() {
		area(s.Words())
	}
	for len(gray) > 0 {
		base := gray[len(gray)-1]
		gray = gray[:len(gray)-1]
		g, scanned := w.Heap.ScanView(base)
		if !scanned {
			continue
		}
		words, was := w.Heap.GrayWords(g), old[base]
		field := func(i int) {
			if i >= len(was) || words[i] != was[i] {
				visit(words[i])
			}
		}
		if !g.Typed() {
			for i := range words {
				field(i)
			}
			continue
		}
		for wi, mask := range w.Heap.PointerMask(g) {
			for ; mask != 0; mask &= mask - 1 {
				field(wi<<6 + bits.TrailingZeros64(mask))
			}
		}
	}
	return seen
}

// markedNow reports whether the object at base is marked, read under
// the world lock, as a bitmap must be read mid-cycle: another
// goroutine's assist or step may be marking.
func markedNow(w *World, base mem.Addr) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Heap.Marked(base)
}

// TestClosureOracleMinorEdges pins the one edge the oracle leaves alone
// on a minor kind, from both sides: a dangling pointer out of an old
// object, to a freed slot carved again, is not a lost object; an
// old-to-young pointer written behind the barrier's back — a word that
// did change, on a card nothing dirtied — still is.
func TestClosureOracleMinorEdges(t *testing.T) {
	for _, dangling := range []bool{true, false} {
		w := newWorld(t, Config{Generational: true, GCDivisor: -1, MinorDivisor: -1})
		lw := &lostWorld{t: t, w: w, data: addData(t, w, "data", lostRoots, 4096)}
		o := installClosureOracle(t, w, nil)
		holder, victim := lw.alloc(2), lw.alloc(2)
		lw.root(0, holder)
		lw.store(holder, mem.Word(victim))
		w.Collect() // holder and victim: the old generation
		if dangling {
			if err := w.NewMutator().Free(victim); err != nil {
				t.Fatal(err)
			}
			if young := lw.alloc(2); young != victim {
				t.Fatalf("the freed slot %#x was not carved again (got %#x)", uint32(victim), uint32(young))
			}
		} else if err := w.Space.Store(holder+4, mem.Word(lw.alloc(2))); err != nil {
			t.Fatal(err)
		}
		w.CollectMinor()
		o.mu.Lock()
		failure := o.failure
		o.failure = ""
		o.mu.Unlock()
		if (failure == "") != dangling {
			t.Errorf("dangling=%v: oracle reported %q", dangling, failure)
		}
	}
}
