package alloc

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/mem"
)

// sentinel is what TestSweepZeroesDeadRunsOnly writes into every word
// of every slot before the sweep: distinct per word, never zero.
func sentinel(w int) mem.Word { return mem.Word(0xa5000000 | w) }

// TestSweepZeroesDeadRunsOnly fills one block of a class, writes a
// sentinel into every word of every slot, marks all but a dead pattern
// and sweeps. Every dead slot's body must read zero afterwards (the
// free list's link word aside) and every other slot must keep its
// sentinels: the sweep zeroes whole dead runs, and nothing past them.
func TestSweepZeroesDeadRunsOnly(t *testing.T) {
	patterns := []struct {
		name  string
		words int
		skip  bool // SkipPageBoundarySlot: slot 0 is never handed out
		dead  func(slot, nslots int) bool
	}{
		{"alternate", 8, false, func(s, _ int) bool { return s%2 == 1 }},
		{"across a word boundary", 4, false, func(s, _ int) bool { return s >= 60 && s < 70 }},
		{"a whole bitmap word", 2, false, func(s, _ int) bool { return s >= 64 && s < 128 }},
		{"to the last slot", 24, false, func(s, n int) bool { return s >= n-5 }},
		{"from the first usable slot", 2, true, func(s, _ int) bool { return s >= 1 && s < 10 }},
	}
	for _, line := range []bool{false, true} {
		for _, lazy := range []bool{false, true} {
			for _, pat := range patterns {
				name := fmt.Sprintf("line=%v/lazy=%v/%s", line, lazy, pat.name)
				t.Run(name, func(t *testing.T) {
					_, a := newTestAllocator(t, Config{LineAlloc: line, LazySweep: lazy, SkipPageBoundarySlot: pat.skip})
					nslots, first := slotsPerBlock(pat.words), a.firstSlot(pat.words)
					if pat.skip && first != 1 {
						t.Fatalf("first slot %d under SkipPageBoundarySlot", first)
					}
					var objs []mem.Addr
					for s := first; s < nslots; s++ {
						objs = append(objs, mustAlloc(t, a, pat.words, false))
					}
					bi := a.blockIndex(objs[0])
					hw := a.blockWords(bi)
					for i, p := range objs {
						if a.blockIndex(p) != bi || p != slotAddr(a.blockBase(bi), first+i, pat.words) {
							t.Fatalf("object %d at %#x is not slot %d of block %d", i, uint32(p), first+i, bi)
						}
					}
					// Slot 0 of a skipping block holds no object; its
					// sentinels must survive too.
					for w := range hw[:nslots*pat.words] {
						hw[w] = sentinel(w)
					}
					for i, p := range objs {
						if !pat.dead(first+i, nslots) {
							a.Mark(p)
						}
					}
					a.Sweep()
					if lazy && a.FinishSweep() != 1 {
						t.Fatal("the block was not left for the lazy sweep")
					}
					for s := 0; s < nslots; s++ {
						dead := s >= first && pat.dead(s, nslots)
						for w := 0; w < pat.words; w++ {
							i := s*pat.words + w
							switch {
							case dead && w == 0 && !line:
								// The free list's link.
							case dead && hw[i] != 0:
								t.Fatalf("dead slot %d word %d = %#x after the sweep", s, w, hw[i])
							case !dead && hw[i] != sentinel(i):
								t.Fatalf("live slot %d word %d = %#x, want its sentinel %#x", s, w, hw[i], sentinel(i))
							}
						}
					}
					if pat.skip {
						clear(hw[:pat.words])
					}
					if err := a.CheckIntegrity(nil); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// FuzzZeroDeadRuns checks zeroDeadRuns against the per-slot loop it
// replaced, over a random dead mask and first slot, for every small
// size class.
func FuzzZeroDeadRuns(f *testing.F) {
	f.Add(uint64(0xaaaaaaaaaaaaaaaa), uint16(0))
	f.Add(^uint64(0), uint16(64))
	f.Add(uint64(0xf00000000000000f), uint16(37))
	f.Add(uint64(1)<<63|1, uint16(1000))
	f.Fuzz(func(t *testing.T, mask uint64, slot0 uint16) {
		for _, words := range classWords {
			nslots := slotsPerBlock(words)
			s0, dead := int(slot0)%nslots, mask
			if n := nslots - s0; n < 64 {
				dead &= 1<<uint(n) - 1 // only slots the block has
			}
			got := make([]mem.Word, mem.PageWords)
			for w := range got {
				got[w] = sentinel(w)
			}
			want := append([]mem.Word(nil), got...)
			zeroDeadRuns(got, dead, s0, words)
			for m := dead; m != 0; m &= m - 1 {
				slot := s0 + bits.TrailingZeros64(m)
				for w := 0; w < words; w++ {
					want[slot*words+w] = 0
				}
			}
			for w := range got {
				if got[w] != want[w] {
					t.Fatalf("words %d, dead %#x from slot %d: word %d = %#x, want %#x", words, dead, s0, w, got[w], want[w])
				}
			}
		}
	})
}
