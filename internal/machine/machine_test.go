package machine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

const stackTop = mem.Addr(0x80000000)

func newMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	if cfg.StackTop == 0 {
		cfg.StackTop = stackTop
	}
	if cfg.StackBytes == 0 {
		cfg.StackBytes = 64 * 1024
	}
	m, err := New(mem.NewAddressSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	space := mem.NewAddressSpace()
	if _, err := New(space, Config{StackTop: 0x1001, StackBytes: 4096}); err == nil {
		t.Error("unaligned stack top accepted")
	}
	if _, err := New(space, Config{StackTop: 0x10000, StackBytes: 0}); err == nil {
		t.Error("zero stack accepted")
	}
	if _, err := New(space, Config{StackTop: 0x10000, StackBytes: 6}); err == nil {
		t.Error("non-word stack size accepted")
	}
}

func TestPushPopGeometry(t *testing.T) {
	m := newMachine(t, Config{})
	if m.SP() != stackTop || m.Depth() != 0 {
		t.Fatal("fresh machine state wrong")
	}
	f, err := m.PushFrame(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.SP() != stackTop-16 || m.Depth() != 1 {
		t.Fatalf("after push: sp=%#x depth=%d", uint32(m.SP()), m.Depth())
	}
	if f.Addr(0) != m.SP() || f.Addr(3) != m.SP()+12 {
		t.Fatal("frame addressing wrong")
	}
	if err := m.PopFrame(); err != nil {
		t.Fatal(err)
	}
	if m.SP() != stackTop || m.Depth() != 0 {
		t.Fatal("pop did not restore sp")
	}
	if err := m.PopFrame(); err == nil {
		t.Fatal("pop on empty stack should fail")
	}
}

func TestFrameSlop(t *testing.T) {
	m := newMachine(t, Config{FrameSlopWords: 6})
	f, _ := m.PushFrame(4)
	if m.SP() != stackTop-40 {
		t.Fatalf("slop not applied: sp=%#x", uint32(m.SP()))
	}
	if f.Words() != 4 {
		t.Fatalf("usable words = %d", f.Words())
	}
	// Slop slots are addressable (the collector will scan them).
	_ = f.Addr(9)
}

// TestFrameStoreLoad: a slot stored reads back. Store and Load index
// the stack's words directly, so the handle's checks are all that stands
// between a bad slot and a write into a neighbour's words: through a
// popped frame and at a slot out of range (the frame holds two words and
// two of slop) each call must panic with its message and leave every
// stack word as it was.
func TestFrameStoreLoad(t *testing.T) {
	m := newMachine(t, Config{FrameSlopWords: 2})
	outer, _ := m.PushFrame(1)
	f, _ := m.PushFrame(2)
	if err := f.Store(1, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	v, err := f.Load(1)
	if err != nil || v != 0xCAFE {
		t.Fatalf("Load = %v, %v", v, err)
	}
	popped, _ := m.PushFrame(2)
	m.PopFrame()
	for _, c := range []struct {
		name, want string
		call       func()
	}{
		{"Addr past the slop", "machine: frame slot 4 out of 4", func() { f.Addr(4) }},
		{"Store through a popped frame", "machine: use of popped frame", func() { popped.Store(0, 0xBAD) }},
		{"Load through a popped frame", "machine: use of popped frame", func() { popped.Load(0) }},
		{"Store past the slop", "machine: frame slot 4 out of 4", func() { f.Store(4, 0xBAD) }},
		{"Store below slot 0", "machine: frame slot -1 out of 4", func() { f.Store(-1, 0xBAD) }},
		{"Load past the slop", "machine: frame slot 4 out of 4", func() { f.Load(4) }},
		{"Load below slot 0", "machine: frame slot -1 out of 4", func() { f.Load(-1) }},
	} {
		before := append([]mem.Word(nil), m.Seg().Words()...)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s did not panic", c.name)
				}
				if got := fmt.Sprint(r); got != c.want {
					t.Fatalf("%s panicked with %q, want %q", c.name, got, c.want)
				}
			}()
			c.call()
		}()
		if !slices.Equal(before, m.Seg().Words()) {
			t.Fatalf("%s wrote to the stack", c.name)
		}
	}
	// A write-protected stack refuses a spill with the segment's error.
	m.Seg().SetWritable(false)
	if err := outer.Store(0, 0xBAD); err == nil || !strings.Contains(err.Error(), "store to read-only segment") {
		t.Fatalf("spill to a read-only stack: %v", err)
	}
	if v, _ := outer.Load(0); v != 0 {
		t.Fatalf("a refused spill wrote %#x", uint32(v))
	}
}

func TestStackOverflow(t *testing.T) {
	m := newMachine(t, Config{StackBytes: 1024})
	for i := 0; ; i++ {
		if _, err := m.PushFrame(32); err != nil {
			if i == 0 {
				t.Fatal("immediate overflow")
			}
			return
		}
		if i > 100 {
			t.Fatal("overflow never reported")
		}
	}
}

func TestPopLeavesGarbage(t *testing.T) {
	m := newMachine(t, Config{})
	f, _ := m.PushFrame(2)
	f.Store(0, 0xDEAD0001)
	addr := f.Addr(0)
	m.PopFrame()
	// The popped word is still there.
	v, err := m.Seg().Load(addr)
	if err != nil || v != 0xDEAD0001 {
		t.Fatalf("popped stack cleared: %v %v", v, err)
	}
	// A new frame over the same region sees the garbage until it
	// overwrites it.
	g, _ := m.PushFrame(2)
	if g.Addr(0) != addr {
		t.Fatalf("frame reuse geometry wrong")
	}
	v, _ = g.Load(0)
	if v != 0xDEAD0001 {
		t.Fatal("stale value not visible through new frame")
	}
}

func TestStaleValueInLiveStackScan(t *testing.T) {
	// The precise §3.1 scenario: write pointer deep, pop, grow again
	// with a frame that does not write all slots, scan: value visible.
	m := newMachine(t, Config{FrameSlopWords: 4})
	f, _ := m.PushFrame(1)
	f.Store(0, 0xBEEF0004)
	m.PopFrame()
	m.PushFrame(1) // slop covers old slot; new occupant writes nothing
	live, lo := m.LiveStack()
	if lo != m.SP() {
		t.Fatal("LiveStack base wrong")
	}
	found := false
	for _, w := range live {
		if w == 0xBEEF0004 {
			found = true
		}
	}
	if !found {
		t.Fatal("stale pointer not visible in live stack scan")
	}
}

func TestLiveStackExcludesDeadRegion(t *testing.T) {
	m := newMachine(t, Config{})
	f, _ := m.PushFrame(8)
	f.Store(0, 0xAAAA)
	m.PopFrame()
	// Nothing live: scan sees zero words.
	live, _ := m.LiveStack()
	if len(live) != 0 {
		t.Fatalf("live stack has %d words with no frames", len(live))
	}
	if m.DeadBytes() != 32 {
		t.Fatalf("DeadBytes = %d", m.DeadBytes())
	}
}

func TestWithFrame(t *testing.T) {
	m := newMachine(t, Config{})
	err := m.WithFrame(4, func(f *Frame) error {
		if m.Depth() != 1 {
			t.Fatal("frame not pushed")
		}
		return m.WithFrame(4, func(*Frame) error {
			if m.Depth() != 2 {
				t.Fatal("nested frame not pushed")
			}
			return nil
		})
	})
	if err != nil || m.Depth() != 0 {
		t.Fatalf("WithFrame cleanup wrong: %v depth=%d", err, m.Depth())
	}
}

func TestFrameClear(t *testing.T) {
	m := newMachine(t, Config{FrameSlopWords: 2})
	f, _ := m.PushFrame(2)
	f.Store(0, 0x1234)
	a := f.Addr(0)
	f.Clear()
	m.PopFrame()
	if v, _ := m.Seg().Load(a); v != 0 {
		t.Fatal("Clear did not zero the frame")
	}
}

func TestRegisterWindowResidue(t *testing.T) {
	m := newMachine(t, Config{RegisterWindows: true})
	// Write a "pointer" into window registers at depth 1, then pop.
	m.PushFrame(1)
	m.SetLocal(3, 0xFEED0008)
	m.PopFrame()
	// At depth 0 the value is in a non-current window but still in the
	// register file the collector scans.
	found := false
	for _, r := range m.Registers() {
		if r == 0xFEED0008 {
			found = true
		}
	}
	if !found {
		t.Fatal("window residue not visible to register scan")
	}
	// Pushing until the window ring wraps back onto that window: its
	// contents are NOT cleared (the paper's uncleaned windows). The
	// value was written at depth 1, so depth 1+NumWindows reuses it.
	for i := 0; i < NumWindows+1; i++ {
		m.PushFrame(1)
	}
	if m.Local(3) != 0xFEED0008 {
		t.Fatal("rotated-in window was cleared")
	}
	m.ClearRegisters()
	for _, r := range m.Registers() {
		if r != 0 {
			t.Fatal("ClearRegisters missed a register")
		}
	}
}

func TestGlobalsSurviveCalls(t *testing.T) {
	m := newMachine(t, Config{RegisterWindows: true})
	m.SetGlobal(2, 777)
	m.PushFrame(1)
	m.PushFrame(1)
	if m.Global(2) != 777 {
		t.Fatal("global clobbered by calls")
	}
	if len(m.Registers()) != TotalRegisters {
		t.Fatalf("register count = %d", len(m.Registers()))
	}
}

func TestPolluteRegistersDeterministic(t *testing.T) {
	m1 := newMachine(t, Config{Seed: 5})
	m2 := newMachine(t, Config{Seed: 5})
	vals := []mem.Word{0x400100, 0x400200}
	m1.PolluteRegisters(vals, 20, 0x1000, 0x2000)
	m2.PolluteRegisters(vals, 20, 0x1000, 0x2000)
	r1, r2 := m1.Registers(), m2.Registers()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("pollution not deterministic")
		}
	}
	nonzero := 0
	for _, r := range r1 {
		if r != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("pollution had no effect")
	}
}

func TestClearEager(t *testing.T) {
	m := newMachine(t, Config{Clear: ClearEager})
	f, _ := m.PushFrame(4)
	f.Store(0, 0xAAAA)
	a := f.Addr(0)
	m.PopFrame()
	m.OnAllocate()
	if v, _ := m.Seg().Load(a); v != 0 {
		t.Fatal("eager clear left dead stack dirty")
	}
	if m.DeadBytes() != 0 {
		t.Fatal("eager clear did not reset low water")
	}
}

func TestClearNone(t *testing.T) {
	m := newMachine(t, Config{Clear: ClearNone})
	f, _ := m.PushFrame(4)
	f.Store(0, 0xBBBB)
	a := f.Addr(0)
	m.PopFrame()
	for i := 0; i < 100; i++ {
		m.OnAllocate()
	}
	if v, _ := m.Seg().Load(a); v != 0xBBBB {
		t.Fatal("ClearNone cleared something")
	}
}

func TestClearCheapEventuallyClears(t *testing.T) {
	m := newMachine(t, Config{Clear: ClearCheap, ClearChunkWords: 8, ClearFullEvery: 1 << 30})
	// Dirty a deep region.
	f, _ := m.PushFrame(1000)
	for i := 0; i < 1000; i++ {
		f.Store(i, 0xCCCC)
	}
	m.PopFrame()
	// Bounded bursts eventually sweep the whole dead region.
	for i := 0; i < 1000; i++ {
		m.OnAllocate()
	}
	dirty := 0
	words := m.Seg().Words()
	for _, w := range words {
		if w == 0xCCCC {
			dirty++
		}
	}
	if dirty != 0 {
		t.Fatalf("%d dirty words remain after many cheap bursts", dirty)
	}
}

func TestClearCheapPeriodicFullClear(t *testing.T) {
	m := newMachine(t, Config{Clear: ClearCheap, ClearChunkWords: 1, ClearFullEvery: 4})
	f, _ := m.PushFrame(5000)
	for i := 0; i < 5000; i++ {
		f.Store(i, 0xDDDD)
	}
	m.PopFrame()
	// The 4th hook performs a full clear despite the tiny chunk size.
	for i := 0; i < 4; i++ {
		m.OnAllocate()
	}
	for _, w := range m.Seg().Words() {
		if w == 0xDDDD {
			t.Fatal("periodic full clear did not happen")
		}
	}
}

func TestClearDeadStackForced(t *testing.T) {
	m := newMachine(t, Config{Clear: ClearNone})
	f, _ := m.PushFrame(4)
	f.Store(0, 0xEEEE)
	a := f.Addr(0)
	m.PopFrame()
	m.ClearDeadStack()
	if v, _ := m.Seg().Load(a); v != 0 {
		t.Fatal("forced clear failed")
	}
}

func TestLiveFrameNeverCleared(t *testing.T) {
	// Clearing policies must never touch live frames.
	for _, pol := range []ClearPolicy{ClearCheap, ClearEager} {
		m := newMachine(t, Config{Clear: pol, ClearFullEvery: 1})
		f, _ := m.PushFrame(4)
		f.Store(2, 0x12345678)
		deep, _ := m.PushFrame(8)
		deep.Store(0, 0x55)
		m.PopFrame()
		for i := 0; i < 50; i++ {
			m.OnAllocate()
		}
		if v, _ := f.Load(2); v != 0x12345678 {
			t.Fatalf("policy %v cleared a live frame slot", pol)
		}
	}
}

func TestPushPopBalanceProperty(t *testing.T) {
	// Any balanced sequence of pushes and pops restores SP exactly.
	m := newMachine(t, Config{FrameSlopWords: 3, StackBytes: 1 << 20})
	f := func(sizes []uint8) bool {
		start := m.SP()
		pushed := 0
		for _, sz := range sizes {
			if _, err := m.PushFrame(int(sz) % 64); err != nil {
				break
			}
			pushed++
		}
		for i := 0; i < pushed; i++ {
			if err := m.PopFrame(); err != nil {
				return false
			}
		}
		return m.SP() == start && m.Depth() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLiveStackSizeMatchesDepthProperty(t *testing.T) {
	m := newMachine(t, Config{FrameSlopWords: 0, StackBytes: 1 << 20})
	f := func(sizes []uint8) bool {
		total := 0
		pushed := 0
		for _, sz := range sizes {
			n := 1 + int(sz)%32
			if _, err := m.PushFrame(n); err != nil {
				break
			}
			total += n
			pushed++
		}
		live, base := m.LiveStack()
		ok := len(live) == total && base == m.SP()
		for i := 0; i < pushed; i++ {
			m.PopFrame()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
