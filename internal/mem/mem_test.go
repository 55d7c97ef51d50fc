package mem

import (
	"testing"
	"testing/quick"
)

func TestPageArithmetic(t *testing.T) {
	tests := []struct {
		addr Addr
		page uint32
	}{
		{0, 0},
		{1, 0},
		{PageBytes - 1, 0},
		{PageBytes, 1},
		{PageBytes + 1, 1},
		{10 * PageBytes, 10},
		{0xFFFFFFFF, (1 << 32) / PageBytes * PageBytes / PageBytes}, // last page
	}
	for _, tt := range tests {
		if got := PageOf(tt.addr); tt.addr != 0xFFFFFFFF && got != tt.page {
			t.Errorf("PageOf(%#x) = %d, want %d", uint32(tt.addr), got, tt.page)
		}
	}
	if PageOf(0xFFFFFFFF) != (1<<32-1)/PageBytes {
		t.Errorf("PageOf(max) wrong")
	}
	if PageBase(3) != 3*PageBytes {
		t.Errorf("PageBase(3) = %#x", uint32(PageBase(3)))
	}
}

func TestPageCount(t *testing.T) {
	tests := []struct {
		bytes, pages int
	}{
		{0, 0}, {1, 1}, {PageBytes, 1}, {PageBytes + 1, 2}, {3 * PageBytes, 3},
	}
	for _, tt := range tests {
		if got := PageCount(tt.bytes); got != tt.pages {
			t.Errorf("PageCount(%d) = %d, want %d", tt.bytes, got, tt.pages)
		}
	}
}

func TestAlignment(t *testing.T) {
	if !WordAligned(8) || WordAligned(9) || WordAligned(10) || WordAligned(11) || !WordAligned(12) {
		t.Error("WordAligned wrong")
	}
	if AlignWordDown(11) != 8 || AlignWordUp(9) != 12 || AlignWordUp(12) != 12 {
		t.Error("word alignment rounding wrong")
	}
	if AlignPageDown(PageBytes+5) != PageBytes || AlignPageUp(PageBytes+5) != 2*PageBytes {
		t.Error("page alignment rounding wrong")
	}
	if AlignPageUp(PageBytes) != PageBytes {
		t.Error("AlignPageUp not idempotent on aligned input")
	}
}

func TestAlignmentProperties(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		d, u := AlignWordDown(a), AlignWordUp(a)
		if !WordAligned(d) || d > a {
			return false
		}
		if uint64(raw) <= 1<<32-WordBytes {
			if !WordAligned(u) || u < a || u-d >= WordBytes*2 {
				return false
			}
		}
		pd := AlignPageDown(a)
		return pd <= a && pd%PageBytes == 0 && PageOf(a) == PageOf(pd)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrailingZeros(t *testing.T) {
	tests := []struct {
		a Addr
		n int
	}{
		{0, 32}, {1, 0}, {2, 1}, {8, 3}, {0x90000, 16}, {0x80000000, 31},
	}
	for _, tt := range tests {
		if got := TrailingZeros(tt.a); got != tt.n {
			t.Errorf("TrailingZeros(%#x) = %d, want %d", uint32(tt.a), got, tt.n)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindHeap.String() != "heap" || KindData.String() != "data" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestNewSegmentValidation(t *testing.T) {
	cases := []struct {
		name      string
		base      Addr
		committed int
		reserved  int
		ok        bool
	}{
		{"zero base", 0, 64, 64, false},
		{"unaligned base", 2, 64, 64, false},
		{"negative", 0x1000, -4, 64, false},
		{"not word multiple", 0x1000, 6, 64, false},
		{"committed over reserved", 0x1000, 128, 64, false},
		{"past end of space", 0xFFFFF000, 0, 2 * PageBytes, false},
		{"valid", 0x1000, 64, 128, true},
		{"valid zero committed", 0x1000, 0, 128, true},
		{"valid at end", 0xFFFFF000, PageBytes, PageBytes, true},
	}
	for _, tt := range cases {
		_, err := NewSegment("s", KindData, tt.base, tt.committed, tt.reserved)
		if (err == nil) != tt.ok {
			t.Errorf("%s: err=%v, want ok=%v", tt.name, err, tt.ok)
		}
	}
}

func TestSegmentGeometry(t *testing.T) {
	s, err := NewSegment("d", KindData, 0x2000, 2*PageBytes, 4*PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if s.Base() != 0x2000 || s.Limit() != 0x2000+2*PageBytes || s.ReservedLimit() != 0x2000+4*PageBytes {
		t.Fatalf("geometry wrong: base=%#x limit=%#x rlimit=%#x",
			uint32(s.Base()), uint32(s.Limit()), uint32(s.ReservedLimit()))
	}
	if s.Size() != 2*PageBytes || s.ReservedSize() != 4*PageBytes {
		t.Fatal("sizes wrong")
	}
	if !s.Contains(0x2000) || !s.Contains(0x2000+2*PageBytes-4) || s.Contains(0x2000+2*PageBytes) {
		t.Fatal("Contains wrong")
	}
	if !s.InReserved(0x2000+3*PageBytes) || s.InReserved(0x2000+4*PageBytes) || s.InReserved(0x1FFC) {
		t.Fatal("InReserved wrong")
	}
}

func TestSegmentGrow(t *testing.T) {
	s, err := NewSegment("h", KindHeap, 0x4000, PageBytes, 3*PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Grow(PageBytes); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2*PageBytes {
		t.Fatalf("size after grow = %d", s.Size())
	}
	// Newly committed memory reads as zero.
	w, err := s.Load(0x4000 + PageBytes)
	if err != nil || w != 0 {
		t.Fatalf("new memory = %v, %v", w, err)
	}
	if err := s.Grow(2 * PageBytes); err == nil {
		t.Fatal("grow past reservation should fail")
	}
	if err := s.Grow(-4); err == nil {
		t.Fatal("negative grow should fail")
	}
	if err := s.Grow(3); err == nil {
		t.Fatal("non-word grow should fail")
	}
}

func TestLoadStore(t *testing.T) {
	s, _ := NewSegment("d", KindData, 0x2000, 64, 64)
	if err := s.Store(0x2004, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	w, err := s.Load(0x2004)
	if err != nil || w != 0xDEADBEEF {
		t.Fatalf("Load = %#x, %v", uint32(w), err)
	}
	// Unaligned and out-of-range accesses fail.
	if _, err := s.Load(0x2005); err == nil {
		t.Error("unaligned load should fail")
	}
	if _, err := s.Load(0x2000 + 64); err == nil {
		t.Error("out-of-range load should fail")
	}
	if err := s.Store(0x1FFC, 1); err == nil {
		t.Error("store below base should fail")
	}
}

func TestByteAccessBigEndian(t *testing.T) {
	s, _ := NewSegment("d", KindData, 0x2000, 64, 64)
	if err := s.Store(0x2000, 0x11223344); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x11, 0x22, 0x33, 0x44}
	for i, wb := range want {
		b, err := s.LoadByte(0x2000 + Addr(i))
		if err != nil || b != wb {
			t.Fatalf("LoadByte(+%d) = %#x, %v; want %#x", i, b, err, wb)
		}
	}
	// StoreByte modifies only the addressed byte.
	if err := s.StoreByte(0x2001, 0xAB); err != nil {
		t.Fatal(err)
	}
	w, _ := s.Load(0x2000)
	if w != 0x11AB3344 {
		t.Fatalf("after StoreByte word = %#x", uint32(w))
	}
	if _, err := s.LoadByte(0x2000 + 64); err == nil {
		t.Error("out-of-range byte load should fail")
	}
}

func TestByteWordRoundTrip(t *testing.T) {
	s, _ := NewSegment("d", KindData, 0x2000, 256, 256)
	f := func(off uint8, b byte) bool {
		a := 0x2000 + Addr(off)
		if err := s.StoreByte(a, b); err != nil {
			return false
		}
		got, err := s.LoadByte(a)
		return err == nil && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFillAndWords(t *testing.T) {
	s, _ := NewSegment("d", KindData, 0x2000, 64, 64)
	s.Fill(0x5A5A5A5A)
	for i, w := range s.Words() {
		if w != 0x5A5A5A5A {
			t.Fatalf("word %d = %#x after Fill", i, uint32(w))
		}
	}
	if len(s.Words()) != 16 {
		t.Fatalf("Words len = %d", len(s.Words()))
	}
}

func TestRootFlag(t *testing.T) {
	d, _ := NewSegment("d", KindData, 0x2000, 64, 64)
	h, _ := NewSegment("h", KindHeap, 0x4000, 64, 64)
	if !d.Root() {
		t.Error("data segments should default to root")
	}
	if h.Root() {
		t.Error("heap segments should not default to root")
	}
	d.SetRoot(false)
	if d.Root() {
		t.Error("SetRoot(false) had no effect")
	}
}

func TestAddressSpaceMapFindUnmap(t *testing.T) {
	as := NewAddressSpace()
	mk := func(name string, base Addr, size int) *Segment {
		s, err := NewSegment(name, KindData, base, size, size)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Map out of order; Find must still work via sorted order.
	for _, s := range []*Segment{
		mk("c", 0x30000, PageBytes),
		mk("a", 0x10000, PageBytes),
		mk("b", 0x20000, PageBytes),
	} {
		if err := as.Map(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := as.Find(0x20004); got == nil || got.Name() != "b" {
		t.Fatalf("Find(0x20004) = %v", got)
	}
	if as.Find(0x10000+PageBytes) != nil {
		t.Error("Find just past a segment should be nil")
	}
	if as.Find(0xFFC) != nil {
		t.Error("Find before all segments should be nil")
	}
	if as.Segment("b") == nil || as.Segment("zz") != nil {
		t.Error("Segment lookup wrong")
	}
	segs := as.Segments()
	if len(segs) != 3 || segs[0].Name() != "a" || segs[2].Name() != "c" {
		t.Fatalf("segments not sorted: %v", segs)
	}
	if !as.Unmap("b") || as.Unmap("b") {
		t.Error("Unmap wrong")
	}
	if as.Find(0x20004) != nil {
		t.Error("unmapped segment still found")
	}
}

func TestAddressSpaceOverlapRejected(t *testing.T) {
	as := NewAddressSpace()
	a, _ := NewSegment("a", KindData, 0x10000, PageBytes, 4*PageBytes)
	if err := as.Map(a); err != nil {
		t.Fatal(err)
	}
	// Overlaps the *reserved* region of a, even though a has only
	// committed one page.
	b, _ := NewSegment("b", KindData, 0x10000+2*PageBytes, PageBytes, PageBytes)
	if err := as.Map(b); err == nil {
		t.Fatal("overlap with reserved region should be rejected")
	}
	c, _ := NewSegment("c", KindData, 0x10000+4*PageBytes, PageBytes, PageBytes)
	if err := as.Map(c); err != nil {
		t.Fatalf("adjacent segment rejected: %v", err)
	}
}

func TestAddressSpaceLoadStore(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.MapNew("d", KindData, 0x2000, 64, 64); err != nil {
		t.Fatal(err)
	}
	if err := as.Store(0x2008, 42); err != nil {
		t.Fatal(err)
	}
	w, err := as.Load(0x2008)
	if err != nil || w != 42 {
		t.Fatalf("Load = %v, %v", w, err)
	}
	if _, err := as.Load(0x9000); err == nil {
		t.Error("load from unmapped address should fail")
	}
	if err := as.Store(0x9000, 1); err == nil {
		t.Error("store to unmapped address should fail")
	}
}

func TestRoots(t *testing.T) {
	as := NewAddressSpace()
	d, _ := as.MapNew("data", KindData, 0x2000, 64, 64)
	as.MapNew("heap", KindHeap, 0x100000, PageBytes, PageBytes)
	s, _ := as.MapNew("stack", KindStack, 0x200000, PageBytes, PageBytes)
	s.SetRoot(true)
	roots := as.Roots()
	if len(roots) != 2 || roots[0] != d || roots[1] != s {
		t.Fatalf("Roots = %v", roots)
	}
}

func TestFindIsConsistentWithInReserved(t *testing.T) {
	as := NewAddressSpace()
	as.MapNew("a", KindData, 0x10000, PageBytes, 2*PageBytes)
	as.MapNew("b", KindHeap, 0x40000, PageBytes, 8*PageBytes)
	f := func(raw uint32) bool {
		a := Addr(raw)
		s := as.Find(a)
		for _, t := range as.Segments() {
			if t.InReserved(a) {
				return s == t
			}
		}
		return s == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFindLastHitCache walks Find through the orders in which the
// last-hit segment can mislead it: a repeat hit, a hit elsewhere, a miss
// in the gap between two segments right after a hit on either side,
// misses below and above everything, the reserved-but-uncommitted tail,
// and the cached segment being unmapped. Every answer must equal a
// linear search's.
func TestFindLastHitCache(t *testing.T) {
	as := NewAddressSpace()
	as.MapNew("a", KindData, 0x10000, PageBytes, 2*PageBytes)
	as.MapNew("b", KindHeap, 0x40000, PageBytes, 8*PageBytes)
	as.MapNew("c", KindStack, 0x80000, PageBytes, PageBytes)
	linear := func(a Addr) *Segment {
		for _, s := range as.Segments() {
			if s.InReserved(a) {
				return s
			}
		}
		return nil
	}
	for _, q := range []struct {
		name string
		a    Addr
		want string // segment name, "" for nil
	}{
		{"first hit", 0x40010, "b"},
		{"repeat hit", 0x40020, "b"},
		{"reserved tail of the cached segment", 0x40000 + 7*PageBytes, "b"},
		{"gap above the cached segment", 0x40000 + 8*PageBytes, ""},
		{"gap below the cached segment", 0x3FFFC, ""},
		{"hit elsewhere", 0x10004, "a"},
		{"gap between a and b after hitting a", 0x10000 + 2*PageBytes, ""},
		{"back to b", 0x40000, "b"},
		{"below every segment", 0x100, ""},
		{"above every segment", 0x90000, ""},
		{"last segment", 0x80FFC, "c"},
	} {
		got := as.Find(q.a)
		if got != linear(q.a) {
			t.Fatalf("%s: Find(%#x) = %v, linear search says %v", q.name, uint32(q.a), got, linear(q.a))
		}
		gotName := ""
		if got != nil {
			gotName = got.Name()
		}
		if gotName != q.want {
			t.Fatalf("%s: Find(%#x) = %q, want %q", q.name, uint32(q.a), gotName, q.want)
		}
	}
	// Unmapping the cached segment must drop it from the cache too.
	if as.Find(0x80000) == nil || !as.Unmap("c") {
		t.Fatal("setup: c not found or not unmapped")
	}
	if got := as.Find(0x80000); got != nil {
		t.Fatalf("Find after Unmap = %v, want nil", got)
	}
	if got := as.Find(0x40000); got == nil || got.Name() != "b" {
		t.Fatalf("Find(b) after Unmap = %v", got)
	}
}

func TestReadOnlySegment(t *testing.T) {
	s, _ := NewSegment("rodata", KindData, 0x2000, 64, 64)
	s.Store(0x2000, 0x1234)
	s.SetWritable(false)
	if s.Writable() {
		t.Fatal("SetWritable(false) had no effect")
	}
	if err := s.Store(0x2004, 1); err == nil {
		t.Fatal("store to read-only segment succeeded")
	}
	if err := s.StoreByte(0x2001, 1); err == nil {
		t.Fatal("byte store to read-only segment succeeded")
	}
	// Loads still work.
	if v, err := s.Load(0x2000); err != nil || v != 0x1234 {
		t.Fatalf("load from read-only segment: %v, %v", v, err)
	}
	s.SetWritable(true)
	if err := s.Store(0x2004, 1); err != nil {
		t.Fatal("store after unprotect failed")
	}
}
