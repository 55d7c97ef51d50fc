package alloc

import (
	"testing"

	"repro/internal/mem"
)

// Spans: the carves a mutator cache bumps through.

// spanAddrs expands a span into the slot addresses it will hand out.
func spanAddrs(s Span) []mem.Addr {
	var out []mem.Addr
	step := mem.Addr(s.Words * mem.WordBytes)
	for p := s.Cursor; p < s.Limit; p += step {
		out = append(out, p)
	}
	return out
}

// TestSpanFromFreshBlock carves a fresh block: one span of every usable
// slot, each allocated and zeroed.
func TestSpanFromFreshBlock(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	s, err := a.AllocSpan(64, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Words != 64 {
		t.Fatalf("span words = %d, want 64", s.Words)
	}
	slots := spanAddrs(s)
	// A fresh block is one hole: one span covers the whole block's
	// usable slots.
	if want := mem.PageWords / 64; len(slots) != want {
		t.Fatalf("fresh-block span holds %d slots, want %d", len(slots), want)
	}
	// Every slot is allocated (bits set at carve) and zeroed.
	for _, p := range slots {
		if got, _ := a.FindObject(p, false); got != p {
			t.Fatalf("span slot %#x not an object base", uint32(p))
		}
		for w := 0; w < 64; w++ {
			v, err := a.loadWord(p + mem.Addr(w*mem.WordBytes))
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Fatalf("span slot %#x word %d = %#x, want 0", uint32(p), w, v)
			}
		}
	}
	if err := a.CheckIntegrity(slots); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocSpan(MaxSmallWords+1, false); err == nil {
		t.Fatal("AllocSpan of a large object succeeded")
	}
}

// TestReturnSpanExact consumes two slots of a span, returns
// the tail and re-carves: the next span must resume at exactly the
// returned cursor. When the span was marked as a held cache is
// (MarkHeldSpan, over all but its last slot), the return must take
// exactly the returned slots' marks off the block's mark summary.
func TestReturnSpanExact(t *testing.T) {
	for _, marked := range []bool{false, true} {
		_, a := newTestAllocator(t, Config{})
		s, err := a.AllocSpan(64, false)
		if err != nil {
			t.Fatal(err)
		}
		step := mem.Addr(64 * mem.WordBytes)
		cursor := s.Cursor + 2*step
		b := &a.blocks[a.blockIndex(s.Cursor)]
		wantMarked := int32(0)
		if marked {
			a.MarkHeldSpan(s.Cursor, s.Limit-step, true)
			wantMarked = 2 // the consumed slots keep theirs
		}
		if n := a.ReturnSpan(cursor, s.Limit); n != s.slots(64)-2 {
			t.Fatalf("marked=%v: ReturnSpan returned %d slots", marked, n)
		}
		if b.markedCount != wantMarked || int(b.markedCount) != popcount(b.markBits) {
			t.Fatalf("marked=%v: markedCount %d (%d bits set) after the return, want %d",
				marked, b.markedCount, popcount(b.markBits), wantMarked)
		}
		s2, err := a.AllocSpan(64, false)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Cursor != cursor || s2.Limit != s.Limit {
			t.Fatalf("marked=%v: re-carve = [%#x,%#x), want [%#x,%#x)", marked,
				uint32(s2.Cursor), uint32(s2.Limit), uint32(cursor), uint32(s.Limit))
		}
		if err := a.CheckIntegrity(spanAddrs(s2)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpanStatsCountOnConsumption: a carve counts nothing until
// CommitAllocs says how many of its slots were handed out.
func TestSpanStatsCountOnConsumption(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	before := a.Stats()
	s, err := a.AllocSpan(64, false)
	if err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	if after.ObjectsAllocated != before.ObjectsAllocated || after.BytesAllocated != before.BytesAllocated {
		t.Fatalf("carve counted stats: %+v -> %+v", before, after)
	}
	n := uint64(s.slots(64))
	a.CommitAllocs(n, n*64*mem.WordBytes)
	if got := a.Stats().ObjectsAllocated; got != before.ObjectsAllocated+n {
		t.Fatalf("after commit ObjectsAllocated = %d", got)
	}
}

// TestLineSweepReclaimsAndZeroes: a sweep zeroes every dead slot whole,
// and the slots it freed are carved again.
func TestLineSweepReclaimsAndZeroes(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	// Allocate a block's worth of 8-word objects, mark every other one,
	// sweep, and check dead slots are whole-zeroed and reclaimable.
	var objs []mem.Addr
	for i := 0; i < mem.PageWords/8; i++ {
		p, err := a.Alloc(8, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.storeWord(p, mem.Word(0xdeadbeef)); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, p)
	}
	for i, p := range objs {
		if i%2 == 0 {
			a.Mark(p)
		}
	}
	res := a.Sweep()
	if int(res.ObjectsFreed) != len(objs)/2 {
		t.Fatalf("freed %d, want %d", res.ObjectsFreed, len(objs)/2)
	}
	for i, p := range objs {
		if i%2 == 0 {
			continue
		}
		for w := 0; w < 8; w++ {
			v, err := a.loadWord(p + mem.Addr(w*mem.WordBytes))
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Fatalf("dead slot %#x word %d = %#x after the sweep", uint32(p), w, v)
			}
		}
	}
	if err := a.CheckIntegrity(nil); err != nil {
		t.Fatal(err)
	}
	// The freed slots are carvable again.
	if _, err := a.Alloc(8, false); err != nil {
		t.Fatal(err)
	}
}

// TestLineStatsAccounting pins LineStats at zero: there are no lines to
// account.
func TestLineStatsAccounting(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	for i := 0; i < mem.PageWords/64/2; i++ {
		if _, err := a.Alloc(64, false); err != nil {
			t.Fatal(err)
		}
	}
	if ls := a.LineStats(); ls != (LineStats{}) {
		t.Fatalf("LineStats = %+v, want zero", ls)
	}
}

// TestFreedSlotIssuedNext: a freed slot goes on top of its list.
func TestFreedSlotIssuedNext(t *testing.T) {
	_, a := newTestAllocator(t, Config{})
	p, err := a.Alloc(64, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	// The freed slot went on top of its list: the next allocation of
	// the class takes it again.
	q, err := a.Alloc(64, false)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("after Free, Alloc = %#x, want the freed slot %#x", uint32(q), uint32(p))
	}
	if err := a.CheckIntegrity(nil); err != nil {
		t.Fatal(err)
	}
}
