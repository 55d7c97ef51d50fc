package repro

import (
	"repro/internal/simrand"
	"repro/internal/stats"
)

// GenerationalRow is one stack-hygiene configuration of the
// generational-ceiling experiment (E12).
type GenerationalRow struct {
	Clear          ClearPolicy `json:"clear" gate:"key"`
	MinorCycles    int         `json:"minor_cycles" gate:"exact"`
	TotalPromoted  uint64      `json:"total_promoted" gate:"exact"`  // objects promoted to the old generation by minors
	TrueLive       uint64      `json:"true_live" gate:"exact"`       // objects actually reachable at the end
	GarbageTenured uint64      `json:"garbage_tenured" gate:"exact"` // promoted objects the final full collection freed
}

// GenerationalOptions configures the experiment.
type GenerationalOptions struct {
	Iterations int    `json:"iterations"`  // default 400
	BatchCells int    `json:"batch_cells"` // temporary cells per iteration (default 200)
	KeepEvery  int    `json:"keep_every"`  // one cell per this many iterations is really kept (default 10)
	Seed       uint64 `json:"seed"`
}

// GenerationalCeiling measures the paper's closing section-3.1
// observation: "we also observed that stray stack pointers can
// significantly lengthen the lifetime of some objects, thus placing a
// ceiling on the effectiveness of generational collection."
//
// A generational (sticky-mark-bit) world runs a churn of short-lived
// lists built in oversized stack frames. At each minor collection, any
// stale pointer still visible in the live stack resurrects a dead list
// and the minor cycle promotes it; the promoted garbage then survives
// every later minor, inflating the old generation until a full
// collection pays to remove it. Stack clearing attacks exactly this.
func GenerationalCeiling(opt GenerationalOptions) (*BenchResult[GenerationalOptions, GenerationalRow], *stats.Table, error) {
	if opt.Iterations == 0 {
		opt.Iterations = 400
	}
	if opt.BatchCells == 0 {
		opt.BatchCells = 200
	}
	if opt.KeepEvery == 0 {
		opt.KeepEvery = 10
	}

	res := &BenchResult[GenerationalOptions, GenerationalRow]{Options: opt}
	for _, clear := range []ClearPolicy{ClearNone, ClearCheap, ClearEager} {
		row, err := generationalRun(opt, clear)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	tab := stats.NewTable("Section 3.1 (end): stray stack pointers vs generational collection",
		"Stack clearing", "Minor cycles", "Objects promoted", "Truly live at end", "Garbage tenured")
	for _, r := range res.Rows {
		tab.AddF(r.Clear, r.MinorCycles, r.TotalPromoted, r.TrueLive, r.GarbageTenured)
	}
	return res, tab, nil
}

func generationalRun(opt GenerationalOptions, clear ClearPolicy) (*GenerationalRow, error) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 4 << 20,
		ReserveHeapBytes: 64 << 20,
		Generational:     true,
		GCDivisor:        -1,
		MinorDivisor:     -1, // minors are driven explicitly below
		AllocatorResidue: true,
	})
	if err != nil {
		return nil, err
	}
	m, err := NewMachine(w, MachineConfig{
		StackTop:        0xF0000000,
		StackBytes:      1 << 20,
		FrameSlopWords:  12,
		RegisterWindows: true,
		Clear:           clear,
		ClearChunkWords: 24,
		ClearFullEvery:  64,
		Seed:            opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	keepRoot, err := w.Space.MapNew("kept", KindData, 0x2000, 4096, 4096)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(opt.Seed)

	w.Collect() // establish the (empty) old generation

	var kept Word // head of the truly-retained list
	var promoted uint64
	minors := 0
	for it := 0; it < opt.Iterations; it++ {
		ctxWords := 1 + rng.Intn(256)
		err := m.WithFrame(ctxWords, func(ctx *Frame) error {
			// Build this iteration's short-lived list in a subframe. Its
			// locals (the running head, the allocator's residue) are
			// left behind by the pop, at depths that later iterations'
			// context frames cover as never-written slop.
			err := m.WithFrame(4, func(f *Frame) error {
				var head Word
				for i := 0; i < opt.BatchCells; i++ {
					cell, err := w.Allocate(2, false)
					if err != nil {
						return err
					}
					if err := w.Store(cell, Word(i)); err != nil {
						return err
					}
					if err := w.Store(cell+4, head); err != nil {
						return err
					}
					head = Word(cell)
					if err := f.Store(0, head); err != nil {
						return err
					}
				}
				if it%opt.KeepEvery == 0 {
					// Genuinely retain one cell: append through the old
					// structure (write barrier path).
					cell, err := w.Allocate(2, false)
					if err != nil {
						return err
					}
					if err := w.Store(cell, 0xCAFE); err != nil {
						return err
					}
					if err := w.Store(cell+4, kept); err != nil {
						return err
					}
					kept = Word(cell)
					if err := keepRoot.Store(0x2000, kept); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			// The minor collection runs after the batch has died, while
			// the context frame is live: anything it promotes beyond
			// the kept cell was resurrected by a stale stack pointer.
			st := w.CollectMinor()
			promoted += st.Promoted
			minors++
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Top-of-loop shallow allocations give the clearing hook its
		// shot at the dead region, as in the reversal benchmark.
		for k := 0; k < 4; k++ {
			if _, err := w.Allocate(2, false); err != nil {
				return nil, err
			}
		}
	}

	// The old generation now holds every promoted object; a final full
	// collection reveals how much of it was garbage.
	beforeFull := w.Heap.Stats().ObjectsLive
	m.ClearDeadStack()
	m.ClearRegisters()
	st := w.Collect()
	return &GenerationalRow{
		Clear:          clear,
		MinorCycles:    minors,
		TotalPromoted:  promoted,
		TrueLive:       st.Sweep.ObjectsLive,
		GarbageTenured: beforeFull - st.Sweep.ObjectsLive,
	}, nil
}
