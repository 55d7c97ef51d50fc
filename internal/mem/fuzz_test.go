package mem

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// refSegment is FuzzSegmentAccess's reference for one segment: the
// documented rules, checked word by word in 64-bit arithmetic, with the
// committed words in a map.
type refSegment struct {
	name                string
	base                uint64
	committed, reserved uint64 // words
	writable            bool
	words               map[uint64]Word
}

func (r *refSegment) inCommitted(a uint64) bool {
	return a >= r.base && a < r.base+4*r.committed
}

func (r *refSegment) inReserved(a uint64) bool {
	return a >= r.base && a < r.base+4*r.reserved
}

// load and store follow Segment.Load and Segment.Store's documentation:
// a committed, word-aligned address; for a store, a writable segment,
// tested after the range.
func (r *refSegment) load(a uint64) (Word, string) {
	if !r.inCommitted(a) || a%4 != 0 {
		return 0, fmt.Sprintf("mem: segment %q: bad load at %#x", r.name, a)
	}
	return r.words[a], ""
}

func (r *refSegment) store(a uint64, v Word) string {
	if !r.inCommitted(a) || a%4 != 0 {
		return fmt.Sprintf("mem: segment %q: bad store at %#x", r.name, a)
	}
	if !r.writable {
		return fmt.Sprintf("mem: segment %q: store to read-only segment at %#x", r.name, a)
	}
	r.words[a] = v
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzSegmentAccess checks Segment.Load/Store and AddressSpace.Load/Store
// against refSegment, over two segments whose base, committed and
// reserved sizes come from the input — one of them may end at the top of
// the address space — and a run of operations, each six bytes: which
// segment, which access (or a flip of that segment's write protection),
// and a signed 32-bit offset from that segment's base.
func FuzzSegmentAccess(f *testing.F) {
	f.Add(uint32(0x2000), uint16(16), uint16(4), uint16(8), []byte{0, 0, 4, 0, 0, 0, 3, 0, 4, 0, 0, 0, 8, 0, 4, 0, 0, 0,
		2, 0, 4, 0, 0, 0, 6, 0, 8, 0, 0, 0, 8, 0, 0, 0, 0, 0, 2, 0, 4, 0, 0, 0, 4, 0, 4, 0, 0, 0})
	f.Add(uint32(0xFFFFFF00), uint16(64), uint16(0), uint16(0), []byte{2, 0, 0xFC, 0, 0, 0, 6, 0, 0xFC, 0, 0, 0, 6, 0, 0, 1, 0, 0})
	f.Add(uint32(0xFFFFE000), uint16(1023), uint16(1), uint16(0), []byte{1, 0, 0xF8, 0xF, 0, 0, 8, 0, 0, 0x10, 0, 0, 3, 0, 0, 0x10, 0, 0})
	f.Add(uint32(0x10000), uint16(8), uint16(8), uint16(1), []byte{9, 0, 1, 0, 0, 0, 4, 0, 0xFC, 0xFF, 0xFF, 0xFF, 5, 0, 0x20, 0, 0, 0, 7, 0, 0x24, 0, 0, 0})
	f.Fuzz(func(t *testing.T, base uint32, committed, spare, gap uint16, ops []byte) {
		as := NewAddressSpace()
		var segs []*Segment
		var refs []*refSegment
		next := uint64(base &^ 3)
		for i, name := range []string{"a", "b"} {
			c, r := uint64(committed>>(8*i)%1024), uint64(spare>>(8*i)%64)
			s, err := NewSegment(name, KindData, Addr(next), int(4*c), int(4*(c+r)))
			if err != nil {
				break // base 0, or past the top of the address space
			}
			if err := as.Map(s); err != nil {
				t.Fatalf("mapping %q at %#x: %v", name, next, err)
			}
			segs = append(segs, s)
			refs = append(refs, &refSegment{name: name, base: next, committed: c, reserved: c + r, writable: true, words: map[uint64]Word{}})
			next += 4*(c+r) + 4*uint64(gap%256)
		}
		if len(segs) == 0 {
			return
		}
		find := func(a uint64) *refSegment {
			for _, r := range refs {
				if r.inReserved(a) {
					return r
				}
			}
			return nil
		}
		for i := 0; i+6 <= len(ops); i += 6 {
			k := ops[i]
			j := int(k) % len(segs)
			s, r := segs[j], refs[j]
			a := Addr(r.base + uint64(binary.LittleEndian.Uint32(ops[i+2:]))) // wraps mod 2^32
			v := Word(uint32(i)*0x9E3779B9 + uint32(ops[i+1]))
			var got, want string
			switch (k >> 1) % 5 {
			case 0:
				gv, err := s.Load(a)
				wv, werr := r.load(uint64(a))
				got, want = fmt.Sprint(gv, errText(err)), fmt.Sprint(wv, werr)
			case 1:
				got, want = errText(s.Store(a, v)), r.store(uint64(a), v)
			case 2:
				gv, err := as.Load(a)
				var wv Word
				werr := fmt.Sprintf("mem: load from unmapped address %#x", uint32(a))
				if rs := find(uint64(a)); rs != nil {
					wv, werr = rs.load(uint64(a))
				}
				got, want = fmt.Sprint(gv, errText(err)), fmt.Sprint(wv, werr)
			case 3:
				got = errText(as.Store(a, v))
				want = fmt.Sprintf("mem: store to unmapped address %#x", uint32(a))
				if rs := find(uint64(a)); rs != nil {
					want = rs.store(uint64(a), v)
				}
			case 4:
				r.writable = !r.writable
				s.SetWritable(r.writable)
				continue
			}
			if got != want {
				t.Fatalf("op %d (%#x) at %#x: got %q, want %q", i/6, k, uint32(a), got, want)
			}
		}
		for j, s := range segs {
			r := refs[j]
			for w, got := range s.Words() {
				if want := r.words[r.base+4*uint64(w)]; got != want {
					t.Fatalf("segment %q word %d = %#x, want %#x", s.Name(), w, uint32(got), uint32(want))
				}
			}
		}
	})
}
