package alloc

import (
	"testing"

	"repro/internal/mem"
)

// FuzzAllocatorOps interprets the fuzz input as an operation tape over
// the allocator — allocate (several kinds), free, mark, sweep, expand —
// and checks structural invariants after every operation.
func FuzzAllocatorOps(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 2, 0, 3, 4})
	f.Add([]byte{0, 200, 0, 200, 5, 0, 4, 0, 0, 1})
	f.Add([]byte{6, 0, 6, 1, 2, 0, 4, 0})

	f.Fuzz(func(t *testing.T, tape []byte) {
		space := mem.NewAddressSpace()
		a, err := New(space, Config{
			HeapBase:     0x400000,
			InitialBytes: 64 * 1024,
			ReserveBytes: 512 * 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		id, err := a.RegisterDescriptor([]bool{true, false, true})
		if err != nil {
			t.Fatal(err)
		}
		var live []mem.Addr
		marked := map[mem.Addr]bool{}
		for i := 0; i+1 < len(tape) && i < 512; i += 2 {
			op, arg := tape[i], int(tape[i+1])
			switch op % 7 {
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
			case 4: // mark one
				if len(live) > 0 {
					p := live[arg%len(live)]
					a.Mark(p)
					marked[p] = true
				}
			case 5: // sweep: unmarked die, marked survive unmarked
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
				live = still
				marked = map[mem.Addr]bool{}
			case 6: // expand
				if a.CanExpand() {
					if err := a.Expand(4096); err != nil {
						t.Fatalf("expand: %v", err)
					}
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
		}
	})
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
