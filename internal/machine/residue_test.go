package machine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// referenceResidue is the allocator's call residue as the sequence
// SimulateCallResidue abbreviates: push a frame for the values and two
// linkage words, store the values, clear the frame when the allocator
// cleans up after itself, pop.
func referenceResidue(m *Machine, clean bool, vals ...mem.Word) {
	f, err := m.PushFrame(len(vals) + 2)
	if err != nil {
		return
	}
	for i, v := range vals {
		f.Store(i, v)
	}
	if clean {
		f.Clear()
	}
	m.PopFrame()
}

// residueCase is one row of the differential: a machine shape, whether
// the allocator cleans its frame, and how much stack there is.
type residueCase struct {
	slop    int
	windows bool
	clean   bool
	tight   bool // the stack holds two residue frames and little else
}

func (c residueCase) String() string {
	return fmt.Sprintf("slop=%d/windows=%v/clean=%v/tight=%v", c.slop, c.windows, c.clean, c.tight)
}

func residueCases() []residueCase {
	var cases []residueCase
	for _, slop := range []int{0, 4} {
		for _, windows := range []bool{false, true} {
			for _, clean := range []bool{false, true} {
				for _, tight := range []bool{false, true} {
					cases = append(cases, residueCase{slop, windows, clean, tight})
				}
			}
		}
	}
	return cases
}

// TestResidueDifferential drives the same random sequence of pushes
// (with stores into the new frame and its window), pops, allocation
// hooks and residue steps through two machines that differ only in how
// the residue step is taken — SimulateCallResidue on one, the push /
// store / clear / pop reference on the other — and compares everything
// a collector or a later frame can observe after every step. The tight
// rows keep the stack within two residue frames of overflow, so both
// the skipped-residue and the failed-push paths are walked.
func TestResidueDifferential(t *testing.T) {
	for _, tc := range residueCases() {
		t.Run(tc.String(), func(t *testing.T) {
			stackWords := 16 * 1024
			if tc.tight {
				stackWords = 2*(residueWords+tc.slop) + 3
			}
			cfg := Config{
				StackBytes:      stackWords * mem.WordBytes,
				FrameSlopWords:  tc.slop,
				RegisterWindows: tc.windows,
				Clear:           ClearCheap,
				ClearChunkWords: 8,
				ClearFullEvery:  7,
			}
			sut, ref := newMachine(t, cfg), newMachine(t, cfg)
			var sutFrames, refFrames []*Frame
			rng := simrand.New(uint64(stackWords) + 1)
			for step := 0; step < 4000; step++ {
				var op string
				switch r := rng.Intn(10); {
				case r < 3:
					op = "push"
					words := rng.Intn(7)
					fs, errS := sut.PushFrame(words)
					fr, errR := ref.PushFrame(words)
					if (errS == nil) != (errR == nil) {
						t.Fatalf("step %d: push(%d) errors diverge: %v / %v", step, words, errS, errR)
					}
					if errS != nil {
						break
					}
					sutFrames, refFrames = append(sutFrames, fs), append(refFrames, fr)
					for i := 0; i < words; i += 2 {
						v := mem.Word(rng.Uint32())
						fs.Store(i, v)
						fr.Store(i, v)
					}
					v := mem.Word(rng.Uint32())
					sut.SetLocal(step%WindowSize, v)
					ref.SetLocal(step%WindowSize, v)
				case r < 5:
					op = "pop"
					if len(sutFrames) == 0 {
						break
					}
					sut.PopFrame()
					ref.PopFrame()
					sutFrames, refFrames = sutFrames[:len(sutFrames)-1], refFrames[:len(refFrames)-1]
				case r < 6:
					op = "hook"
					sut.OnAllocate()
					ref.OnAllocate()
				default:
					op = "residue"
					ptr, size := mem.Word(rng.Uint32()), mem.Word(rng.Intn(64))
					sut.SimulateCallResidue(tc.clean, ptr, size)
					referenceResidue(ref, tc.clean, ptr, size)
				}
				if sut.SP() != ref.SP() || sut.LowWater() != ref.LowWater() || sut.Depth() != ref.Depth() ||
					sut.cwp != ref.cwp || sut.depth != ref.depth || sut.clearCur != ref.clearCur {
					t.Fatalf("step %d (%s): state diverges: sp %#x/%#x low %#x/%#x depth %d/%d cwp %d/%d",
						step, op, uint32(sut.SP()), uint32(ref.SP()), uint32(sut.LowWater()), uint32(ref.LowWater()),
						sut.Depth(), ref.Depth(), sut.cwp, ref.cwp)
				}
				if !slices.Equal(sut.Seg().Words(), ref.Seg().Words()) {
					t.Fatalf("step %d (%s): stack segments diverge", step, op)
				}
				if !slices.Equal(sut.Registers(), ref.Registers()) {
					t.Fatalf("step %d (%s): register files diverge", step, op)
				}
			}
		})
	}
}

// TestFrameHandlesPooled pins what pooling the handles must not change:
// a handle is good while its frame is live, names the new occupant when
// its depth is pushed again, and panics when used above the top.
func TestFrameHandlesPooled(t *testing.T) {
	m := newMachine(t, Config{})
	outer, _ := m.PushFrame(2)
	inner, _ := m.PushFrame(3)
	if outer == inner || outer.Words() != 2 || inner.Words() != 3 {
		t.Fatalf("live handles confused: %d and %d words", outer.Words(), inner.Words())
	}
	m.PopFrame()
	again, _ := m.PushFrame(5)
	if again != inner || again.Words() != 5 {
		t.Fatalf("depth 1 pushed again: same handle %v, %d words (want 5)", again == inner, again.Words())
	}
	m.PopFrame()
	defer func() {
		if recover() == nil {
			t.Fatal("use of a popped frame's handle did not panic")
		}
	}()
	inner.Store(0, 1)
}

// TestFrameZeroAllocs guards the machine's side of the allocation
// path: once a depth has been reached, pushing to it, popping, running
// a body under WithFrame, the residue step and a register-file read
// take nothing from Go's heap.
func TestFrameZeroAllocs(t *testing.T) {
	m := newMachine(t, Config{FrameSlopWords: 4, RegisterWindows: true})
	body := func(f *Frame) error { return f.Store(0, 7) }
	run := func() {
		if _, err := m.PushFrame(8); err != nil {
			t.Fatal(err)
		}
		if err := m.WithFrame(2, body); err != nil {
			t.Fatal(err)
		}
		m.SimulateCallResidue(false, 1, 2)
		m.SimulateCallResidue(true, 1, 2)
		if len(m.Registers()) != TotalRegisters {
			t.Fatal("short register file")
		}
		if err := m.PopFrame(); err != nil {
			t.Fatal(err)
		}
	}
	run() // reach depth 2 once
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("push/WithFrame/residue/Registers/pop allocate %v times per round, want 0", avg)
	}
}
