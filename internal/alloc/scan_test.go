package alloc

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mem"
)

// The mark loop's kernel against the divide-based reference. Scan and
// FindObject share smallSlot, so a differential through FindObject (the
// marker's own equivalence tests) cannot see a bug in it; this one
// classifies and drains through refMarkCandidate instead, whose
// validity rules divide and share nothing with the kernel.

// refScan is the kernel the unfused way: refMarkCandidate per in-hull
// candidate, a stack of bases, a popped object's words loaded one by
// one from the address space. Typed objects scan as nothing, as they
// do in the kernel until its caller feeds their declared words back.
type refScan struct {
	a        *Allocator
	interior bool
	stack    []Gray
	falses   []mem.Addr
	wins     []mem.Addr
	typed    int
	c        MarkStats
}

func (r *refScan) classify(ws []mem.Word, dense bool) {
	lo, hi := r.a.Hull()
	nonzero := 0
	for _, v := range ws {
		if v == 0 {
			continue
		}
		nonzero++
		p := mem.Addr(v)
		if p < lo || p >= hi {
			continue
		}
		base, words, typed, out := refMarkCandidate(r.a, p, r.interior)
		if out == NotObject {
			r.falses = append(r.falses, p)
			continue
		}
		if p != base {
			r.c.InteriorResolved++
		}
		if out == Already {
			continue
		}
		r.c.ObjectsMarked++
		r.c.BytesMarked += uint64(words * mem.WordBytes)
		r.wins = append(r.wins, base)
		if out == WonAtomic {
			r.c.AtomicSkipped++
			continue
		}
		g := Gray(base) | Gray(words)<<32
		if typed {
			g |= grayTyped
		}
		r.stack = append(r.stack, g)
	}
	if dense {
		nonzero = len(ws)
	}
	r.c.Candidates += uint64(nonzero)
}

func (r *refScan) drain(t *testing.T) {
	for len(r.stack) > 0 {
		g := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		if g.Typed() {
			r.typed++
			continue
		}
		ws := make([]mem.Word, g.Words())
		for i := range ws {
			w, err := r.a.space.Load(g.Base() + mem.Addr(i*mem.WordBytes))
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		r.c.FieldsScanned += uint64(len(ws))
		r.classify(ws, false)
	}
}

// FuzzScanCandidates builds two identical heaps from a byte tape —
// configuration, then allocations, frees, expansions, root candidates
// and stores of candidates into live objects — and marks one through
// the kernel (Scan, driven as the marker drives it) and the other
// through refScan. The in-hull non-objects met, the objects won, the
// counters and the mark bitmaps must be equal, and the stack must end
// empty. The first byte selects the policy (bit 0 interior), a stop at
// every win (bit 1), a dense root area (bit 2), and a heap that grows
// into a second extent (bit 3), where every candidate goes through
// resolve instead of the inline lookup.
func FuzzScanCandidates(f *testing.F) {
	f.Add([]byte{0, 0, 10, 6, 0, 0, 3, 2, 0, 7, 0, 6, 2, 1, 3, 6, 255, 6, 17})
	f.Add([]byte{7, 0, 2, 0, 9, 0, 200, 2, 0, 6, 0, 7, 1, 6, 2, 7, 3, 6, 4, 4, 1, 6, 6})
	f.Add([]byte{3, 3, 9, 1, 4, 0, 5, 7, 0, 7, 128, 6, 64, 6, 1, 6, 0})
	f.Add([]byte{1, 2, 0, 2, 0, 6, 4, 6, 8, 0, 3, 6, 10}) // typed pops
	f.Add([]byte{0, 0, 0, 0, 0, 6, 12, 6, 4})             // a free slot's base
	// A second extent: eight expansions use the first extent's reserve.
	f.Add([]byte{9, 0, 4, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0,
		0, 8, 1, 2, 0, 3, 7, 0, 7, 2, 6, 0, 6, 2, 6, 4, 6, 99})
	f.Add([]byte{15, 0, 1, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0,
		2, 0, 0, 40, 1, 1, 7, 0, 7, 1, 7, 2, 6, 0, 6, 2, 6, 4, 6, 51})
	// More in-hull non-objects than False holds, on one extent and on two.
	many, spill := []byte{0, 0, 4}, []byte{8}
	for a := byte(5); a < 5+2*40; a += 2 {
		many = append(many, 6, a)
	}
	for i := 0; i < 9; i++ {
		spill = append(spill, 5, 0)
	}
	// and inside a small block: misaligned offsets off a one-word object.
	near := []byte{0, 0, 1}
	for a := byte(0); a < 2*90; a += 2 {
		if a%13 != 4 {
			near = append(near, 6, a)
		}
	}
	f.Add(many)
	f.Add(append(spill, many[1:]...))
	f.Add(near)

	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			t.Skip("empty tape")
		}
		mode := tape[0]
		interior, record, dense, spill := mode&1 != 0, mode&2 != 0, mode&4 != 0, mode&8 != 0
		cfg := Config{
			HeapBase:         testHeapBase,
			InitialBytes:     8 * mem.PageBytes,
			ReserveBytes:     64 * mem.PageBytes,
			ExpandIncrement:  mem.PageBytes,
			InteriorPointers: interior,
		}
		if spill {
			cfg.ReserveBytes = 16 * mem.PageBytes
			cfg.DiscontiguousGrowth = true
			cfg.ExtentGapBytes = 1 << 20
			cfg.ExtentReserveBytes = 16 * mem.PageBytes
		}
		var heaps [2]*Allocator
		var ids [2]DescID
		for i := range heaps {
			a, err := New(mem.NewAddressSpace(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ids[i], err = a.RegisterDescriptor([]bool{true, false}); err != nil {
				t.Fatal(err)
			}
			heaps[i] = a
		}
		kern, ref := heaps[0], heaps[1]
		var live []mem.Addr
		var roots []mem.Word
		both := func(op func(a *Allocator, id DescID) (mem.Addr, error)) {
			p, err := op(kern, ids[0])
			q, qerr := op(ref, ids[1])
			if p != q || (err == nil) != (qerr == nil) {
				t.Fatalf("heaps diverged: %#x %v vs %#x %v", uint32(p), err, uint32(q), qerr)
			}
			if err != nil && err != ErrNeedMemory && err != ErrHeapExhausted {
				t.Fatal(err)
			}
			if err == nil && p != 0 {
				live = append(live, p)
			}
		}
		// candidate is a byte offset off a live object, or a raw page
		// offset from below the heap up.
		candidate := func(arg int) mem.Word {
			if len(live) > 0 && arg&1 == 0 {
				return mem.Word(live[arg/2%len(live)] + mem.Addr(arg%13) - 4)
			}
			lo, _ := kern.Hull()
			return mem.Word(lo - mem.PageBytes + mem.Addr(arg)*977)
		}
		for i := 1; i+1 < len(tape) && i < 1024; i += 2 {
			op, arg := tape[i], int(tape[i+1])
			switch op % 8 {
			case 0:
				both(func(a *Allocator, _ DescID) (mem.Addr, error) { return a.Alloc(1+arg*2%MaxSmallWords, arg%5 == 0) })
			case 1:
				both(func(a *Allocator, _ DescID) (mem.Addr, error) { return a.Alloc(MaxSmallWords+1+arg*16, arg%3 == 0) })
			case 2:
				both(func(a *Allocator, id DescID) (mem.Addr, error) { return a.AllocTyped(id) })
			case 3:
				both(func(a *Allocator, _ DescID) (mem.Addr, error) {
					return a.AllocIgnoreOffPage(mem.PageWords+1+arg*8, false)
				})
			case 4:
				if len(live) > 0 {
					j := arg % len(live)
					both(func(a *Allocator, _ DescID) (mem.Addr, error) { return 0, a.Free(live[j]) })
					live = append(live[:j], live[j+1:]...)
				}
			case 5:
				both(func(a *Allocator, _ DescID) (mem.Addr, error) { return 0, a.Expand(mem.PageBytes) })
			case 6:
				roots = append(roots, candidate(arg), 0)
			case 7:
				if len(live) > 0 {
					p := live[arg%len(live)]
					words, _ := kern.ObjectSpan(p)
					at := p + mem.Addr(arg%words*mem.WordBytes)
					v := candidate(arg * 7)
					for _, a := range heaps {
						if err := a.space.Store(at, v); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}

		// The kernel, driven as Marker.scan drives it.
		var s ScanState
		s.Interior, s.Record = interior, record
		s.Begin(dense, math.MaxInt)
		var stack []Gray
		var falses, wins []mem.Addr
		typed := 0
		ws := roots
	loop:
		for {
			stop := kern.Scan(&s, ws, &stack)
			falses = append(falses, s.False[:s.NFalse]...)
			s.NFalse = 0
			switch stop {
			case ScanTyped:
				typed++
				ws = nil
				s.Begin(false, s.Budget)
			case ScanWin:
				ws := ws
				if s.From != 0 {
					ws = kern.GrayWords(s.From)
				}
				if ws[s.Index] != mem.Word(s.Cand) {
					t.Fatalf("win through %#x reports word %d, which holds %#x", uint32(s.Cand), s.Index, uint32(ws[s.Index]))
				}
				wins = append(wins, s.Gray.Base())
			case ScanDone:
				break loop
			}
		}

		r := &refScan{a: ref, interior: interior}
		r.classify(roots, dense)
		r.drain(t)

		if len(stack) != 0 {
			t.Errorf("the kernel left %d gray entries", len(stack))
		}
		if s.Stats != r.c {
			t.Errorf("counts\n kernel    %+v\n reference %+v", s.Stats, r.c)
		}
		if !slices.Equal(falses, r.falses) {
			t.Errorf("in-hull non-objects: kernel %#x, reference %#x", falses, r.falses)
		}
		if !record {
			wins, r.wins = nil, nil
		}
		if !slices.Equal(wins, r.wins) || typed != r.typed {
			t.Errorf("wins: kernel %#x (%d typed pops), reference %#x (%d)", wins, typed, r.wins, r.typed)
		}
		requireSameMarks(t, kern, ref)
	})
}
