package alloc

import "repro/internal/mem"

// ScanStop says why Scan returned; the next Scan call resumes the loop.
type ScanStop uint8

const (
	ScanDone  ScanStop = iota // words classified; budget spent or stack empty
	ScanFalse                 // False is full
	ScanTyped                 // Gray is a popped typed entry: the caller scans its declared words
	ScanWin                   // Record is set and this loop marked Gray's object through Cand
)

// MarkStats counts one marking cycle's activity.
type MarkStats struct {
	WordsScanned     uint64 // root words examined
	Candidates       uint64 // candidate values tested (≥ WordsScanned under AnyByteOffset)
	ObjectsMarked    uint64
	BytesMarked      uint64
	FieldsScanned    uint64 // heap object words examined
	FalseNearHeap    uint64 // invalid candidates in the heap's vicinity (blacklisted)
	AtomicSkipped    uint64 // marked objects whose contents were not scanned
	InteriorResolved uint64 // valid candidates that were not base addresses
}

// ScanState is a marker's mark loop between Scan calls. False[:NFalse]
// are the in-hull non-objects met since the caller last emptied it, in
// order (a polluted root area meets hundreds per scan, too many to
// return for each). ScanWin reports that word Index of the words being
// classified (From's, if nonzero) marked Gray's object through Cand.
type ScanState struct {
	Interior, Record bool // the pointer policy; stop at every win
	Budget           int  // gray entries the loop may still pop
	Stats            MarkStats
	False            [32]mem.Addr
	NFalse, Index    int
	Cand             mem.Addr
	Gray, From       Gray
	i, count         int
	dense            bool
}

// Begin sets the loop to classify the next Scan call's words, dense (a
// root area, zero words counted) or not, and then pop budget entries.
func (s *ScanState) Begin(dense bool, budget int) {
	s.i, s.count, s.dense, s.Budget, s.From = 0, 0, dense, budget, 0
}

// Scan is the mark loop: figure 2's classification of every word of ws,
// then of each popped gray object's words. A nonzero word is an object
// address (marked and, unless pointer-free, pushed), an in-hull
// non-object (added to False), or neither. A small block's candidate is
// resolved inline (smallSlot, setMark) with no call; anything else goes
// to resolve. A resumed loop that stopped in a
// popped object's words (From) finds them again itself; ws is the
// caller's words, whose slice header nothing stores, so it may live on
// the caller's stack.
func (a *Allocator) Scan(s *ScanState, ws []mem.Word, stack *[]Gray) ScanStop {
	lo, span := a.hullLo, a.hullHi-a.hullLo
	if s.From != 0 {
		ws = a.GrayWords(s.From)
	}
	blocks := a.blocks
	st, i, nonzero := *stack, s.i, s.count
	stop := ScanDone
loop:
	for {
		for ; ; i++ {
			for ; i < len(ws); i++ {
				if v := ws[i]; v != 0 {
					nonzero++
					if mem.Addr(v)-lo < span {
						break
					}
				}
			}
			if i >= len(ws) {
				break
			}
			// Loaded again, not carried out of the loop above: a value
			// live past it is stored to the frame on every word.
			p := mem.Addr(ws[i])
			var g Gray
			var won int
			var atomic bool
			if bi := uint(p-lo) / mem.PageBytes; bi < uint(len(blocks)) && blocks[bi].state == blockSmall {
				b := &blocks[bi]
				slot, base, ok := b.smallSlot(p, s.Interior)
				if !ok {
					if s.falseRef(p) {
						stop = ScanFalse
						break loop
					}
					continue
				}
				won, g, atomic = int(b.setMark(slot)), b.gray(base), b.atomic
			} else {
				var out MarkOutcome
				if _, _, g, out = a.resolve(p, s.Interior, markSet); out == NotObject {
					if s.falseRef(p) {
						stop = ScanFalse
						break loop
					}
					continue
				}
				won, atomic = out.Won(), out == WonAtomic
			}
			if p != g.Base() {
				s.Stats.InteriorResolved++
			}
			// Nothing branches on won, a coin toss on a live graph.
			s.Stats.ObjectsMarked += uint64(won)
			s.Stats.BytesMarked += uint64(won * g.Words() * mem.WordBytes)
			if atomic {
				s.Stats.AtomicSkipped += uint64(won)
			} else {
				n := len(st)
				st = append(st, g)[:n+won]
			}
			if s.Record && won != 0 {
				stop, s.Cand, s.Gray, s.Index = ScanWin, p, g, i
				break loop
			}
		}
		if s.dense {
			nonzero, s.dense = len(ws), false
		}
		s.Stats.Candidates += uint64(nonzero)
		nonzero = 0
		if s.Budget <= 0 || len(st) == 0 {
			break
		}
		s.Budget--
		g := st[len(st)-1]
		st = st[:len(st)-1]
		ws, i = nil, 0
		if g.Typed() {
			stop, s.Gray, s.From = ScanTyped, g, 0
			break
		}
		ws = a.words[(g.Base()-lo)/mem.WordBytes:][:g.Words()]
		s.From = g
		s.Stats.FieldsScanned += uint64(len(ws))
	}
	*stack, s.i, s.count = st, i+1, nonzero
	return stop
}

// falseRef adds p to False and reports whether False is now full.
func (s *ScanState) falseRef(p mem.Addr) bool {
	s.False[s.NFalse] = p
	s.NFalse++
	return s.NFalse == len(s.False)
}
