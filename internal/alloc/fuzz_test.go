package alloc

import (
	"testing"

	"repro/internal/mem"
)

// FuzzAllocatorOps interprets the fuzz input as an operation tape over
// the allocator — allocate (several kinds), free, mark (after
// FinishSweep, as the collector marks), sweep, expand, and a mutator
// cache's carve (AllocBatch) and the return of its unconsumed tail
// (ReturnSpan) — and checks structural invariants and the allocator's
// own audit after every operation, with the sweep eager and lazy.
func FuzzAllocatorOps(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 2, 0, 3, 4})
	f.Add([]byte{0, 200, 0, 200, 5, 0, 4, 0, 0, 1})
	f.Add([]byte{6, 0, 6, 1, 2, 0, 4, 0})
	// A carve of a fresh block's 4-word slots, a 4-word alloc off the
	// same hole, an explicit Free pushed above it, a return onto the
	// non-empty list, a sweep, and carves and returns across it.
	f.Add([]byte{7, 43, 0, 3, 3, 0, 8, 2, 7, 43, 5, 0, 8, 0, 7, 43, 8, 1})
	// Two carves, the first returned while the second still holds the
	// hole's front (pushed), then the second (rewound), with typed
	// allocation and a sweep between.
	f.Add([]byte{7, 43, 7, 43, 2, 0, 8, 0, 8, 0, 5, 0, 7, 43, 0, 3, 8, 0})
	// Carves held across a sweep with objects marked, then consumed,
	// freed and returned.
	f.Add([]byte{7, 120, 0, 3, 4, 0, 7, 3, 5, 0, 8, 200, 3, 1, 7, 120, 5, 0, 8, 7})

	f.Fuzz(func(t *testing.T, tape []byte) {
		for _, lazy := range []bool{false, true} {
			runAllocatorOps(t, tape, lazy)
		}
	})
}

// heldCarve is a mutator cache's carve in FuzzAllocatorOps: slots
// AllocBatch carved and nobody has consumed yet.
type heldCarve struct{ Span }

// slots lists the carve's slots in the order a cache hands them out.
func (c heldCarve) slots() []mem.Addr {
	var out []mem.Addr
	for p := c.Cursor; p < c.Limit; p += mem.Addr(c.Words * mem.WordBytes) {
		out = append(out, p)
	}
	return out
}

// runAllocatorOps is FuzzAllocatorOps's tape on one heap.
func runAllocatorOps(t *testing.T, tape []byte, lazy bool) {
	space := mem.NewAddressSpace()
	a, err := New(space, Config{
		HeapBase:     0x400000,
		InitialBytes: 64 * 1024,
		ReserveBytes: 512 * 1024,
		LazySweep:    lazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := a.RegisterDescriptor([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	var live []mem.Addr
	var held []heldCarve
	marked := map[mem.Addr]bool{}
	for i := 0; i+1 < len(tape) && i < 512; i += 2 {
		op, arg := tape[i], int(tape[i+1])
		switch op % 9 {
		case 0: // small alloc
			p, err := a.Alloc(1+arg%MaxSmallWords, arg%5 == 0)
			if err == nil {
				live = append(live, p)
			} else if err != ErrNeedMemory {
				t.Fatalf("alloc: %v", err)
			}
		case 1: // large alloc
			p, err := a.Alloc(MaxSmallWords+1+arg*8, false)
			if err == nil {
				live = append(live, p)
			} else if err != ErrNeedMemory {
				t.Fatalf("large alloc: %v", err)
			}
		case 2: // typed alloc
			p, err := a.AllocTyped(id)
			if err == nil {
				live = append(live, p)
			} else if err != ErrNeedMemory {
				t.Fatalf("typed alloc: %v", err)
			}
		case 3: // free one
			if len(live) > 0 {
				idx := arg % len(live)
				if err := a.Free(live[idx]); err != nil {
					t.Fatalf("free: %v", err)
				}
				delete(marked, live[idx])
				live = append(live[:idx], live[idx+1:]...)
			}
		case 4: // mark one, after the deferred sweeps, as the collector does
			if len(live) > 0 {
				a.FinishSweep()
				p := live[arg%len(live)]
				a.Mark(p)
				marked[p] = true
			}
		case 5: // sweep: unmarked die, marked and held slots survive
			// The collector's open and first mark step: deferred sweeps
			// finish, then every held slot is marked.
			a.FinishSweep()
			for _, c := range held {
				a.MarkHeldSpan(c.Cursor, c.Limit, true)
			}
			a.Sweep()
			var still []mem.Addr
			for _, p := range live {
				if marked[p] {
					if !a.IsAllocated(p) {
						t.Fatalf("marked object %#x swept", uint32(p))
					}
					still = append(still, p)
				} else if a.IsAllocated(p) {
					t.Fatalf("unmarked object %#x survived sweep", uint32(p))
				}
			}
			for _, c := range held {
				for _, p := range c.slots() {
					if !a.IsAllocated(p) {
						t.Fatalf("held slot %#x swept", uint32(p))
					}
				}
			}
			live = still
			marked = map[mem.Addr]bool{}
		case 6: // expand
			if a.CanExpand() {
				if err := a.Expand(4096); err != nil {
					t.Fatalf("expand: %v", err)
				}
			}
		case 7: // a cache's carve: up to 1+arg/8 slots of the next hole
			var c heldCarve
			c.Span, err = a.AllocBatch(1+arg%8, arg%5 == 0, 1+arg/8)
			if err == ErrNeedMemory {
				break
			}
			if err != nil {
				t.Fatalf("carve: %v", err)
			}
			if n := len(c.slots()); n == 0 || n > 1+arg/8 {
				t.Fatalf("carve of up to %d: span %+v", 1+arg/8, c.Span)
			}
			held = append(held, c)
		case 8: // a cache consumes some of a carve and returns the rest
			if len(held) > 0 {
				hi := arg % len(held)
				c := held[hi]
				slots := c.slots()
				k := arg % (len(slots) + 1)
				live = append(live, slots[:k]...)
				a.ReturnSpan(c.Cursor+mem.Addr(k*c.Words*mem.WordBytes), c.Limit)
				held = append(held[:hi], held[hi+1:]...)
			}
		}
		// Invariant: every live object resolves to itself.
		for _, p := range live {
			if base, ok := a.FindObject(p, false); !ok || base != p {
				t.Fatalf("live object %#x lost (ok=%v base=%#x)", uint32(p), ok, uint32(base))
			}
		}
		// Invariant: block accounting is consistent.
		st := a.Stats()
		if st.BlocksDedicated+st.BlocksFree != a.NumBlocks() {
			t.Fatalf("block accounting: %d + %d != %d",
				st.BlocksDedicated, st.BlocksFree, a.NumBlocks())
		}
		// Invariant: the audit holds, every held slot cached.
		var cached []mem.Addr
		for _, c := range held {
			cached = append(cached, c.slots()...)
		}
		if err := a.CheckIntegrity(cached); err != nil {
			t.Fatalf("op %d (%d, %d): %v", i/2, op%9, arg, err)
		}
	}
}

// FuzzConcurrentMark interprets the fuzz input as an allocation recipe,
// then lets several marking streams take turns over every object, as
// the parties that mark during a concurrent cycle do (an allocation's
// assist, a ConcurrentStep, the store barrier — one at a time, under
// the world lock): exactly one stream must win each mark bit, the
// block summaries must stay exact, and afterwards every object must be
// Marked.
func FuzzConcurrentMark(f *testing.F) {
	f.Add([]byte{4, 1, 200, 30, 7})
	f.Add([]byte{255, 255, 0, 3, 3, 3, 64})
	f.Add([]byte{1})

	f.Fuzz(func(t *testing.T, tape []byte) {
		space := mem.NewAddressSpace()
		a, err := New(space, Config{
			HeapBase:     0x400000,
			InitialBytes: 256 * 1024,
			ReserveBytes: 512 * 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		var objs []mem.Addr
		for i := 0; i < len(tape) && i < 256; i++ {
			words := 1 + int(tape[i])%(MaxSmallWords+64) // small and large
			p, err := a.Alloc(words, tape[i]%5 == 0)
			if err == ErrNeedMemory {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, p)
		}
		if len(objs) == 0 {
			t.Skip("no allocations")
		}
		const streams = 4
		wins := make([]int, len(objs))
		// Each stream walks the objects from a different start, and the
		// streams alternate one mark at a time, so the losing marks land
		// mid-stream.
		for i := range objs {
			for g := 0; g < streams; g++ {
				j := (i + g*len(objs)/streams) % len(objs)
				if a.Mark(objs[j]) {
					wins[j]++
				}
			}
		}
		if err := a.CheckIntegrity(nil); err != nil {
			t.Fatal(err)
		}
		for i, p := range objs {
			if wins[i] != 1 {
				t.Fatalf("object %d (%#x): %d streams won the mark", i, uint32(p), wins[i])
			}
			if !a.Marked(p) {
				t.Fatalf("object %d (%#x) not marked", i, uint32(p))
			}
		}
		// The marked set survives a sticky sweep and dies on the next.
		a.SweepSticky()
		for i, p := range objs {
			if !a.IsAllocated(p) {
				t.Fatalf("marked object %d swept", i)
			}
		}
		a.ClearMarks()
		a.Sweep()
		for i, p := range objs {
			if a.IsAllocated(p) {
				t.Fatalf("unmarked object %d survived", i)
			}
		}
	})
}
