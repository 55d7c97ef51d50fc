// Package machine simulates the mutator's processor state: general
// registers organised as SPARC-style register windows, and a downward-
// growing call stack, both of which the collector scans conservatively.
//
// The paper's section 3.1 attributes much "apparently live" garbage to
// exactly this state:
//
//   - "these architectures tend to encourage unnecessarily large stack
//     frames, parts of which are never written. As a consequence, a
//     pointer may be written to a stack location, the stack may be
//     popped to well below that pointer's location, the stack may grow
//     again, and the garbage collector may be invoked, with the pointer
//     again appearing live, since it failed to be overwritten during
//     the second stack expansion."
//
//   - "Contents of unused registers appear to be nondeterministic,
//     since newly allocated register windows are not cleared."
//     (appendix B, SPARC)
//
// The machine reproduces both effects: PopFrame leaves frame contents
// in place, frames carry configurable slop words that are reserved but
// never written, and register windows rotate without clearing, so a
// window reused after eight calls still holds values from its previous
// occupant.
//
// The two countermeasures the paper found useful are implemented as
// clearing policies: ClearCheap amortises small clearing bursts over
// allocation calls ("the allocator should occasionally try to clear
// areas in the stack beyond the most recently activated frame"), and
// ClearEager clears the whole dead region on every allocation, as an
// upper bound.
package machine

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// Register window geometry, following the SPARC: 8 globals plus a ring
// of windows of 16 registers (8 locals + 8 in/out shared with the
// caller; we simplify to 16 private registers per window).
const (
	NumGlobals     = 8
	WindowSize     = 16
	NumWindows     = 8
	TotalRegisters = NumGlobals + NumWindows*WindowSize
)

// ClearPolicy selects the stack-hygiene strategy (paper section 3.1).
type ClearPolicy int

// Clearing policies.
const (
	// ClearNone never clears dead stack: the configuration whose "very
	// unrealistically heavy" retention the paper reports for small
	// benchmarks.
	ClearNone ClearPolicy = iota
	// ClearCheap clears a bounded chunk of dead stack on each
	// allocation hook, plus a periodic full clear to the low-water
	// mark: the paper's "very cheap stack clearing algorithm".
	ClearCheap
	// ClearEager clears the entire dead region on every allocation
	// hook; an upper bound on what clearing can achieve.
	ClearEager
)

func (p ClearPolicy) String() string {
	switch p {
	case ClearCheap:
		return "cheap"
	case ClearEager:
		return "eager"
	default:
		return "none"
	}
}

// Config parameterises a Machine.
type Config struct {
	// StackTop is the address just past the stack; the stack grows
	// down from it. Must be word-aligned and nonzero.
	StackTop mem.Addr
	// StackBytes is the reserved stack size.
	StackBytes int
	// FrameSlopWords is added to every frame request: reserved words
	// that the "compiler" never writes, modelling oversized RISC
	// frames. Popped garbage shows through these holes.
	FrameSlopWords int
	// Clear selects the stack clearing policy.
	Clear ClearPolicy
	// ClearChunkWords bounds the per-allocation clearing burst under
	// ClearCheap (default 64 words).
	ClearChunkWords int
	// ClearFullEvery makes ClearCheap clear the whole dead region every
	// N allocation hooks (default 32).
	ClearFullEvery int
	// RegisterWindows enables SPARC-style uncleaned window rotation.
	// When false, Call/Return still work but registers behave like a
	// flat file that Return restores, leaving no residue.
	RegisterWindows bool
	// Seed seeds the noise used by PolluteRegisters.
	Seed uint64
}

// Machine is a simulated mutator.
type Machine struct {
	cfg      Config
	seg      *mem.Segment
	sp       mem.Addr // current stack pointer (grows down)
	lowWater mem.Addr // lowest sp ever observed
	clearCur mem.Addr // ClearCheap progress cursor
	frames   []frameRec
	handles  []*Frame                 // handles[i] is the pooled handle for frames[i]
	regs     [TotalRegisters]mem.Word // Registers' buffer
	globals  [NumGlobals]mem.Word
	windows  [NumWindows][WindowSize]mem.Word
	cwp      int // current window pointer
	depth    int // call depth (windows wrap modulo NumWindows)
	hooks    int // allocation hooks seen
	rng      *simrand.Rand
}

type frameRec struct {
	base  mem.Addr // lowest address of the frame
	words int
}

// New creates a machine and maps its stack segment into space. The
// stack segment is not flagged as a root: the collector must scan only
// the live portion [SP, StackTop), which it obtains via LiveStack.
func New(space *mem.AddressSpace, cfg Config) (*Machine, error) {
	if cfg.StackTop == 0 || !mem.WordAligned(cfg.StackTop) {
		return nil, fmt.Errorf("machine: bad stack top %#x", uint32(cfg.StackTop))
	}
	if cfg.StackBytes <= 0 || cfg.StackBytes%mem.WordBytes != 0 {
		return nil, fmt.Errorf("machine: bad stack size %d", cfg.StackBytes)
	}
	if cfg.ClearChunkWords <= 0 {
		cfg.ClearChunkWords = 64
	}
	if cfg.ClearFullEvery <= 0 {
		cfg.ClearFullEvery = 32
	}
	base := cfg.StackTop - mem.Addr(cfg.StackBytes)
	seg, err := mem.NewSegment("stack", mem.KindStack, base, cfg.StackBytes, cfg.StackBytes)
	if err != nil {
		return nil, err
	}
	if err := space.Map(seg); err != nil {
		return nil, err
	}
	return &Machine{
		cfg:      cfg,
		seg:      seg,
		sp:       cfg.StackTop,
		lowWater: cfg.StackTop,
		clearCur: cfg.StackTop,
		rng:      simrand.New(cfg.Seed),
	}, nil
}

// Seg returns the stack segment.
func (m *Machine) Seg() *mem.Segment { return m.seg }

// SP returns the current stack pointer.
func (m *Machine) SP() mem.Addr { return m.sp }

// LowWater returns the lowest stack pointer observed so far.
func (m *Machine) LowWater() mem.Addr { return m.lowWater }

// Depth returns the current call depth.
func (m *Machine) Depth() int { return len(m.frames) }

// A Frame is a live activation record. Slot 0 is the lowest word. The
// handle names a position in the frame stack, not an activation: the
// machine keeps one per depth and hands it out again on the next push
// to that depth, so pushing allocates nothing once a depth has been
// reached.
type Frame struct {
	m     *Machine
	index int // position in m.frames
}

// PushFrame allocates an activation record of the requested number of
// words plus the configured slop. The frame's contents are NOT cleared:
// whatever the popped frames left there shows through until the new
// occupant overwrites it, which is the paper's stale-pointer mechanism.
func (m *Machine) PushFrame(words int) (*Frame, error) {
	if words < 0 {
		return nil, fmt.Errorf("machine: negative frame size")
	}
	total := words + m.cfg.FrameSlopWords
	newSP := m.sp - mem.Addr(total*mem.WordBytes)
	if newSP < m.seg.Base() || newSP > m.sp {
		return nil, fmt.Errorf("machine: stack overflow (depth %d)", len(m.frames))
	}
	m.sp = newSP
	if m.sp < m.lowWater {
		m.lowWater = m.sp
	}
	m.frames = append(m.frames, frameRec{base: m.sp, words: total})
	if m.cfg.RegisterWindows {
		// Rotate to the next window. Its contents are whatever the
		// previous occupant (8 calls ago) left: no clearing.
		m.depth++
		m.cwp = m.depth % NumWindows
	}
	i := len(m.frames) - 1
	if i == len(m.handles) {
		m.handles = append(m.handles, &Frame{m: m, index: i})
	}
	return m.handles[i], nil
}

// PopFrame releases the top frame. Its contents are left in place.
func (m *Machine) PopFrame() error {
	if len(m.frames) == 0 {
		return fmt.Errorf("machine: pop on empty stack")
	}
	f := m.frames[len(m.frames)-1]
	m.frames = m.frames[:len(m.frames)-1]
	m.sp = f.base + mem.Addr(f.words*mem.WordBytes)
	if m.cfg.RegisterWindows {
		m.depth--
		m.cwp = ((m.depth % NumWindows) + NumWindows) % NumWindows
	}
	return nil
}

// top returns the top frame record, panicking if there is none (an
// internal bug, not a client error).
func (f *Frame) rec() frameRec {
	if f.index >= len(f.m.frames) {
		panic("machine: use of popped frame")
	}
	return f.m.frames[f.index]
}

// Words returns the frame's usable size (excluding slop).
func (f *Frame) Words() int { return f.rec().words - f.m.cfg.FrameSlopWords }

// Addr returns the address of frame slot i.
func (f *Frame) Addr(i int) mem.Addr {
	return f.m.seg.Base() + mem.Addr(f.slot(i)*mem.WordBytes)
}

// slot returns the stack-segment index of frame slot i, panicking as Addr
// does; its panic value formats itself, so that slot inlines.
func (f *Frame) slot(i int) int {
	r := f.rec()
	if uint(i) >= uint(r.words) {
		panic(slotRangeError{i, r.words})
	}
	return int(r.base-f.m.seg.Base())/mem.WordBytes + i
}

type slotRangeError struct{ i, words int }

func (e slotRangeError) Error() string {
	return fmt.Sprintf("machine: frame slot %d out of %d", e.i, e.words)
}

// Store writes v to frame slot i.
func (f *Frame) Store(i int, v mem.Word) error {
	if s := f.m.seg; s.Writable() {
		s.Words()[f.slot(i)] = v
		return nil
	}
	return f.m.seg.Store(f.Addr(i), v) // the read-only error
}

// Load reads frame slot i.
func (f *Frame) Load(i int) (mem.Word, error) { return f.m.seg.Words()[f.slot(i)], nil }

// Clear zeroes the frame's written slots and its slop, modelling the
// paper's "have the allocator and collector carefully clean up after
// themselves, clearing local variables before function exit".
func (f *Frame) Clear() {
	r := f.rec()
	for i := 0; i < r.words; i++ {
		f.m.seg.Store(r.base+mem.Addr(i*mem.WordBytes), 0)
	}
}

// WithFrame pushes a frame, runs fn, and pops, propagating errors. It
// lets Go recursion mirror simulated-stack recursion one-to-one.
func (m *Machine) WithFrame(words int, fn func(*Frame) error) error {
	f, err := m.PushFrame(words)
	if err != nil {
		return err
	}
	defer m.PopFrame()
	return fn(f)
}

// SetGlobal writes global register i.
func (m *Machine) SetGlobal(i int, v mem.Word) { m.globals[i] = v }

// Global reads global register i.
func (m *Machine) Global(i int) mem.Word { return m.globals[i] }

// SetLocal writes register i of the current window.
func (m *Machine) SetLocal(i int, v mem.Word) { m.windows[m.cwp][i] = v }

// Local reads register i of the current window.
func (m *Machine) Local(i int) mem.Word { return m.windows[m.cwp][i] }

// Registers returns the complete register state the collector must
// scan: all globals and every window, since on a real SPARC the whole
// register file may be flushed to memory at any point. The slice is a
// copy in a buffer the machine owns, valid until the next call.
func (m *Machine) Registers() []mem.Word {
	out := append(m.regs[:0], m.globals[:]...)
	for w := range m.windows {
		out = append(out, m.windows[w][:]...)
	}
	return out
}

// PolluteRegisters overwrites a random selection of window registers
// with the given values interleaved with noise, modelling "register
// values left over from kernel calls and/or context switches". Values
// drawn from vals land in random windows; the rest get random noise in
// [noiseLo, noiseHi).
func (m *Machine) PolluteRegisters(vals []mem.Word, count int, noiseLo, noiseHi uint32) {
	for i := 0; i < count; i++ {
		w := m.rng.Intn(NumWindows)
		r := m.rng.Intn(WindowSize)
		if len(vals) > 0 && m.rng.Bool(0.5) {
			m.windows[w][r] = vals[m.rng.Intn(len(vals))]
		} else if noiseHi > noiseLo {
			m.windows[w][r] = mem.Word(m.rng.Range(noiseLo, noiseHi))
		}
	}
}

// ClearRegisters zeroes all register state.
func (m *Machine) ClearRegisters() {
	m.globals = [NumGlobals]mem.Word{}
	m.windows = [NumWindows][WindowSize]mem.Word{}
}

// LiveStack returns the live stack words [SP, StackTop) and the address
// of the first returned word; this is what the collector scans.
func (m *Machine) LiveStack() ([]mem.Word, mem.Addr) {
	all := m.seg.Words()
	start := int(m.sp-m.seg.Base()) / mem.WordBytes
	return all[start:], m.sp
}

// DeadBytes returns the size of the dead region [lowWater, SP): stack
// that has been occupied but is currently popped.
func (m *Machine) DeadBytes() int { return int(m.sp - m.lowWater) }

// OnAllocate is the allocator hook implementing the clearing policies.
// The collector calls it on every allocation.
func (m *Machine) OnAllocate() {
	m.hooks++
	switch m.cfg.Clear {
	case ClearNone:
		return
	case ClearEager:
		m.clearDead(m.lowWater, m.sp)
		m.lowWater = m.sp
	case ClearCheap:
		if m.hooks%m.cfg.ClearFullEvery == 0 {
			// Periodic full clear to the low-water mark: "particularly
			// useful when the allocator is invoked on a stack that is
			// much shorter than the largest one encountered so far".
			m.clearDead(m.lowWater, m.sp)
			m.lowWater = m.sp
			m.clearCur = m.sp
			return
		}
		// Bounded burst just beyond the live frame, advancing a cursor
		// downward through the dead region.
		if m.clearCur > m.sp || m.clearCur <= m.lowWater {
			m.clearCur = m.sp
		}
		lo := m.clearCur - mem.Addr(m.cfg.ClearChunkWords*mem.WordBytes)
		if lo < m.lowWater {
			lo = m.lowWater
		}
		m.clearDead(lo, m.clearCur)
		m.clearCur = lo
	}
}

// clearDead zeroes stack words in [lo, hi).
func (m *Machine) clearDead(lo, hi mem.Addr) {
	if lo < m.seg.Base() {
		lo = m.seg.Base()
	}
	words := m.seg.Words()
	i := int(lo-m.seg.Base()) / mem.WordBytes
	j := int(hi-m.seg.Base()) / mem.WordBytes
	for ; i < j; i++ {
		words[i] = 0
	}
}

// residueWords is the allocator's transient frame: the two values it
// holds plus two words of linkage, before slop.
const residueWords = 4

// SimulateCallResidue models the allocator's (or collector's) own
// transient call frame: a short-lived frame holding the freshly
// allocated pointer and its size is pushed and immediately popped,
// leaving the two values as dead-stack residue. "Often the initial
// pointer value that is then accidentally preserved is stored by the
// allocator or collector itself... it may pay to have the allocator
// and collector carefully clean up after themselves, clearing local
// variables before function exit" (section 3.1): clean simulates that
// discipline.
//
// The step is PushFrame(residueWords), a store to slots 0 and 1, Clear
// when clean, PopFrame — written as its net effect, because it runs on
// every allocation: the frame's words (or, clean, the whole frame with
// its slop zeroed) and the low-water mark change; the stack pointer,
// depth and window pointer end where they began. A frame that would
// overflow the stack is skipped.
func (m *Machine) SimulateCallResidue(clean bool, ptr, size mem.Word) {
	total := residueWords + m.cfg.FrameSlopWords
	base := m.sp - mem.Addr(total*mem.WordBytes)
	if base < m.seg.Base() || base > m.sp {
		return
	}
	if base < m.lowWater {
		m.lowWater = base
	}
	if clean {
		m.clearDead(base, m.sp)
		return
	}
	frame := m.seg.Words()[int(base-m.seg.Base())/mem.WordBytes:]
	frame[0], frame[1] = ptr, size
}

// ClearDeadStack forces a full clear of the dead region regardless of
// policy (used by experiments as a baseline reset).
func (m *Machine) ClearDeadStack() {
	m.clearDead(m.lowWater, m.sp)
	m.lowWater = m.sp
	m.clearCur = m.sp
}
