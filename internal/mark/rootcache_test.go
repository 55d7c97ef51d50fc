package mark

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// Root-segment geometry of the root-cache tests: a 16-page heap reserved
// to 32 pages, whose next extent (DiscontiguousGrowth) is mapped 4 pages
// past that reservation, and a 256-word static segment polluted with
// pointers, in-hull junk, words aimed at the next extent (outside the
// hull until the heap grows into it) and out-of-hull integers.
const (
	rcStatics  = 0x10000
	rcWords    = 256
	rcReserve  = 32 * mem.PageBytes
	rcGap      = 4 * mem.PageBytes
	rcNextBase = heapBase + rcReserve + rcGap
)

// rootSide is one heap with a root segment and its marker. The cached
// side keeps one marker across cycles; the reference side (m nil) builds
// a fresh marker for each cycle, so every root scan it makes is a full
// one.
type rootSide struct {
	heap *alloc.Allocator
	bl   *blacklist.Dense
	seg  *mem.Segment
	cfg  Config
	m    *Marker
	objs []mem.Addr
}

// cycleOut is what one cycle leaves that a root scan can change.
type cycleOut struct {
	Stats    Stats
	Marked   []mem.Addr
	Granules []mem.Addr
	BL       blacklist.Stats
	Recs     []ParentRecord
}

// newRootSide builds the heap and statics from seed: identical seeds
// give identical sides.
func newRootSide(t testing.TB, seed uint64, align AlignPolicy, cached bool) *rootSide {
	t.Helper()
	space := mem.NewAddressSpace()
	bl, err := blacklist.NewDense(heapBase, rcNextBase+rcReserve, mem.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := alloc.New(space, alloc.Config{
		HeapBase:            heapBase,
		InitialBytes:        16 * mem.PageBytes,
		ReserveBytes:        rcReserve,
		DiscontiguousGrowth: true,
		ExtentGapBytes:      rcGap,
		Blacklist:           bl,
		InteriorPointers:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := space.MapNew("statics", mem.KindData, rcStatics, rcWords*mem.WordBytes, 2*rcWords*mem.WordBytes)
	if err != nil {
		t.Fatal(err)
	}
	s := &rootSide{heap: heap, bl: bl, seg: seg, cfg: Config{Policy: PointerInterior, Alignment: align, Blacklist: bl}}
	if cached {
		s.m = New(heap, s.cfg)
	}
	r := simrand.New(seed)
	for i := 0; i < 200; i++ {
		s.objs = append(s.objs, s.alloc(t, 1+r.Intn(8), r.Bool(0.2)))
	}
	for _, p := range s.objs {
		if !heap.IsAllocated(p) || r.Bool(0.5) {
			continue
		}
		if err := heap.Seg().Store(p, mem.Word(s.objs[r.Intn(len(s.objs))])); err != nil {
			t.Fatal(err)
		}
	}
	ws := seg.Words()
	for i := range ws {
		switch r.Intn(8) {
		case 0, 1:
		case 2, 3:
			ws[i] = mem.Word(s.objs[r.Intn(len(s.objs))] + mem.Addr(4*r.Intn(2)))
		case 4:
			ws[i] = mem.Word(heapBase + r.Uint32n(rcReserve))
		case 5:
			ws[i] = mem.Word(rcNextBase + r.Uint32n(rcReserve))
		default:
			ws[i] = mem.Word(r.Uint32n(1 << 16))
		}
	}
	return s
}

func (s *rootSide) alloc(t testing.TB, words int, atomic bool) mem.Addr {
	t.Helper()
	p, err := s.heap.Alloc(words, atomic)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cycle marks from the root segment, drains, reads the outcome and
// sweeps, recording provenance if record is set.
func (s *rootSide) cycle(record bool) cycleOut {
	m := s.m
	if m == nil {
		m = New(s.heap, s.cfg)
	}
	m.Reset()
	if record {
		m.StartRecording()
	}
	m.MarkRootArea(RootOrigin{Kind: RootSegment, Src: 0, Base: s.seg.Base()}, s.seg.Words())
	m.Drain()
	out := cycleOut{Stats: m.Stats(), Granules: s.bl.Granules(), BL: s.bl.Stats()}
	if record {
		out.Recs = slices.Clone(m.StopRecording())
	}
	s.heap.ForEachObject(func(base mem.Addr) {
		if s.heap.Marked(base) {
			out.Marked = append(out.Marked, base)
		}
	})
	s.heap.Sweep()
	return out
}

// TestRootCacheMatchesFullScan runs five cycles of each case on a marker
// that keeps its root-segment copies and on one that starts empty every
// cycle, and requires the same statistics, mark bits, blacklist and
// provenance records after each. Every case edits the sides (identically)
// before its third cycle, when the cached marker's copy is armed; an edit
// that plants the only reference to an object names it, and the object
// must survive every cycle from then on.
func TestRootCacheMatchesFullScan(t *testing.T) {
	// store allocates an object and plants its address at word i of the
	// statics through Segment.Store.
	store := func(i int) func(testing.TB, *rootSide) mem.Addr {
		return func(t testing.TB, s *rootSide) mem.Addr {
			p := s.alloc(t, 3, false)
			if err := s.seg.Store(s.seg.Base()+mem.Addr(i*mem.WordBytes), mem.Word(p)); err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	cases := []struct {
		name   string
		align  AlignPolicy
		record bool // the third and fourth cycles record provenance
		edit   func(testing.TB, *rootSide) mem.Addr
	}{
		{name: "unchanged", edit: func(testing.TB, *rootSide) mem.Addr { return 0 }},
		{name: "store", edit: store(5)},
		{name: "words", edit: func(t testing.TB, s *rootSide) mem.Addr {
			p := s.alloc(t, 2, false)
			s.seg.Words()[9] = mem.Word(p)
			return p
		}},
		{name: "expand", edit: func(t testing.TB, s *rootSide) mem.Addr {
			lo, hi := s.heap.Hull()
			for s.heap.Extents() < 2 {
				if err := s.heap.Expand(16 * mem.PageBytes); err != nil {
					t.Fatal(err)
				}
			}
			if nlo, nhi := s.heap.Hull(); nlo == lo && nhi == hi {
				t.Fatal("a new extent left the hull as it was")
			}
			return 0
		}},
		{name: "grow", edit: func(t testing.TB, s *rootSide) mem.Addr {
			if err := s.seg.Grow(64 * mem.WordBytes); err != nil {
				t.Fatal(err)
			}
			p := s.alloc(t, 4, false)
			ws := s.seg.Words()
			ws[len(ws)-1] = mem.Word(p)
			return p
		}},
		{name: "provenance", record: true, edit: store(11)},
		{name: "anybyte", align: AnyByteOffset, edit: store(13)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cached, ref := newRootSide(t, 7, tc.align, true), newRootSide(t, 7, tc.align, false)
			var keep mem.Addr
			for i := 0; i < 5; i++ {
				if i == 2 {
					if tc.align == AlignedWords && !cached.m.roots[0].ok {
						t.Fatal("the copy is not armed after two cycles of unchanged statics")
					}
					keep = tc.edit(t, cached)
					if got := tc.edit(t, ref); got != keep {
						t.Fatalf("the sides diverged: edit returned %#x and %#x", uint32(keep), uint32(got))
					}
				}
				record := tc.record && (i == 2 || i == 3)
				got, want := cached.cycle(record), ref.cycle(record)
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Fatalf("cycle %d: stats %+v, full scan %+v", i, got.Stats, want.Stats)
				}
				if !slices.Equal(got.Marked, want.Marked) {
					t.Fatalf("cycle %d: %d objects marked, full scan %d", i, len(got.Marked), len(want.Marked))
				}
				if !slices.Equal(got.Granules, want.Granules) || got.BL != want.BL {
					t.Fatalf("cycle %d: blacklist %d pages %+v, full scan %d pages %+v", i, len(got.Granules), got.BL, len(want.Granules), want.BL)
				}
				if !reflect.DeepEqual(got.Recs, want.Recs) {
					t.Fatalf("cycle %d: %d provenance records, full scan %d", i, len(got.Recs), len(want.Recs))
				}
				if record && len(got.Recs) == 0 {
					t.Fatalf("cycle %d recorded nothing", i)
				}
				if keep != 0 && !cached.heap.IsAllocated(keep) {
					t.Fatalf("cycle %d freed %#x, which the statics reference", i, uint32(keep))
				}
			}
		})
	}
}

// TestRootCacheHitZeroAlloc pins a steady-state cycle whose root segment
// is served from its copy at zero Go-heap allocations.
func TestRootCacheHitZeroAlloc(t *testing.T) {
	s := newRootSide(t, 3, AlignedWords, true)
	s.cycle(false)
	s.cycle(false)
	if !s.m.roots[0].ok {
		t.Fatal("the copy is not armed after two cycles of unchanged statics")
	}
	org := RootOrigin{Kind: RootSegment, Src: 0, Base: s.seg.Base()}
	allocs := testing.AllocsPerRun(100, func() {
		s.m.Reset()
		s.m.MarkRootArea(org, s.seg.Words())
		s.m.Drain()
		s.heap.Sweep()
	})
	if allocs != 0 {
		t.Fatalf("a cycle that hits the root copy allocated %v times", allocs)
	}
	if st := s.m.Stats(); st.WordsScanned != rcWords || st.Candidates < rcWords {
		t.Fatalf("stats %+v after a cycle of %d root words", st, rcWords)
	}
}

// FuzzRootCache plays arbitrary edits between cycles — made through
// Segment.Store and straight into Words(), of pointers, in-hull junk,
// next-extent words and integers, with heap growth and segment growth
// among them — on a marker that keeps its root copies and on one that
// starts empty every cycle, and requires the same outcome after every
// cycle. It also holds mem.SameWords to slices.Equal on the input's
// words, at every length from 0.
func FuzzRootCache(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 9, 0x40, 0, 0x10, 0, 3, 0, 0, 0, 0, 0, 2, 1, 0x40, 0x02, 0x80, 0x04})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 5, 2, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]mem.Word, len(raw)/4)
		for i := range words {
			words[i] = mem.Word(raw[4*i])<<24 | mem.Word(raw[4*i+1])<<16 | mem.Word(raw[4*i+2])<<8 | mem.Word(raw[4*i+3])
		}
		other := slices.Clone(words)
		if len(other) > 0 {
			other[len(other)/2]++
		}
		for n := 0; n <= len(words); n++ {
			for _, b := range [][]mem.Word{words[:n], other[:n], words[:max(n-1, 0)]} {
				if got, want := mem.SameWords(words[:n], b), slices.Equal(words[:n], b); got != want {
					t.Fatalf("SameWords(%v, %v) = %v, slices.Equal %v", words[:n], b, got, want)
				}
			}
		}

		const opBytes = 6
		cached, ref := newRootSide(t, 11, AlignedWords, true), newRootSide(t, 11, AlignedWords, false)
		check := func(i int) {
			got, want := cached.cycle(false), ref.cycle(false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: cached %+v\nfull scan %+v", i, got.Stats, want.Stats)
			}
		}
		check(0)
		check(1)
		for i := 0; i+opBytes <= len(raw); i += opBytes {
			op, at := raw[i], int(raw[i+1])
			v := mem.Word(raw[i+2])<<24 | mem.Word(raw[i+3])<<16 | mem.Word(raw[i+4])<<8 | mem.Word(raw[i+5])
			for _, s := range []*rootSide{cached, ref} {
				ws := s.seg.Words()
				val := v
				switch v % 4 {
				case 0:
					val = mem.Word(s.objs[int(v/4)%len(s.objs)])
				case 1:
					val = mem.Word(heapBase + v%rcReserve)
				case 2:
					val = mem.Word(rcNextBase + v%rcReserve)
				}
				switch op % 6 {
				case 0:
					if err := s.seg.Store(s.seg.Base()+mem.Addr(at%len(ws)*mem.WordBytes), val); err != nil {
						t.Fatal(err)
					}
				case 1:
					ws[at%len(ws)] = val
				case 2:
					ws[(at+1)%len(ws)], ws[at%len(ws)] = ws[at%len(ws)], ws[(at+1)%len(ws)]
				case 3: // no edit: the next cycle should hit
				case 4:
					if s.heap.Extents() < 2 {
						_ = s.heap.Expand(16 * mem.PageBytes)
					}
				case 5:
					if len(ws) < 2*rcWords {
						if err := s.seg.Grow(mem.WordBytes); err != nil {
							t.Fatal(err)
						}
						s.seg.Words()[len(ws)] = val
					}
				}
			}
			check(2 + i/opBytes)
		}
	})
}
