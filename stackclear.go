package repro

import (
	"repro/internal/stats"
	"repro/internal/workload"
)

// StackClearRow is one configuration of the section-3.1 experiment
// (E5): the list-reversal program under a stack-hygiene strategy.
type StackClearRow struct {
	Label        string      `json:"label" gate:"key"`
	Mode         ReverseMode `json:"mode" gate:"exact"`
	Clear        ClearPolicy `json:"clear" gate:"exact"`
	SelfClean    bool        `json:"self_clean" gate:"exact"` // allocator clears its own frame
	MaxLiveCells uint64      `json:"max_live_cells" gate:"exact"`
	EndLiveCells uint64      `json:"end_live_cells" gate:"exact"`
	Collections  int         `json:"collections" gate:"exact"`
}

// StackClearOptions configures the experiment.
type StackClearOptions struct {
	ListLen    int    `json:"list_len"`   // default 1000, as in the paper
	Iterations int    `json:"iterations"` // default 1000
	Seed       uint64 `json:"seed"`
}

// StackClearing reproduces section 3.1's measurements: "a simple
// program (compiled unoptimized on a SPARC) that recursively and
// nondestructively reverses a 1000 element list 1000 times resulted in
// a maximum of between 40,000 and 100,000 apparently accessible
// cons-cells at one point. With a very cheap stack-clearing algorithm
// added, we never saw the maximum exceed 18,000... The optimized
// version of the program never resulted in many more than 2000
// cons-cells".
func StackClearing(opt StackClearOptions) (*BenchResult[StackClearOptions, StackClearRow], *stats.Table, error) {
	if opt.ListLen == 0 {
		opt.ListLen = 1000
	}
	if opt.Iterations == 0 {
		opt.Iterations = 1000
	}

	configs := []struct {
		label     string
		mode      ReverseMode
		clear     ClearPolicy
		selfClean bool
	}{
		{"unoptimized, no clearing", ReverseRecursive, ClearNone, false},
		{"unoptimized, cheap clearing", ReverseRecursive, ClearCheap, true},
		{"unoptimized, eager clearing", ReverseRecursive, ClearEager, true},
		{"optimized (tail call -> loop)", ReverseLoop, ClearNone, false},
	}
	res := &BenchResult[StackClearOptions, StackClearRow]{Options: opt}
	for _, cfg := range configs {
		w, err := NewWorld(Config{
			InitialHeapBytes:   2 << 20,
			ReserveHeapBytes:   32 << 20,
			GCDivisor:          3,
			Pointer:            PointerBase,
			AllocatorResidue:   true,
			AllocatorSelfClean: cfg.selfClean,
		})
		if err != nil {
			return nil, nil, err
		}
		m, err := NewMachine(w, MachineConfig{
			StackTop:        0xF0000000,
			StackBytes:      2 << 20,
			FrameSlopWords:  12,
			RegisterWindows: true,
			Clear:           cfg.clear,
			ClearChunkWords: 24,
			ClearFullEvery:  4096,
			Seed:            opt.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		rev, err := workload.RunReversal(w, m, ReverseParams{
			ListLen:    opt.ListLen,
			Iterations: opt.Iterations,
			Mode:       cfg.mode,
			Seed:       opt.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, StackClearRow{
			Label:        cfg.label,
			Mode:         cfg.mode,
			Clear:        cfg.clear,
			SelfClean:    cfg.selfClean,
			MaxLiveCells: rev.MaxLiveCells,
			EndLiveCells: rev.EndLiveCells,
			Collections:  rev.Collections,
		})
	}

	tab := stats.NewTable("Section 3.1: apparently accessible cons cells during list reversal",
		"Configuration", "Max live cells", "Live at end", "Collections")
	for _, r := range res.Rows {
		tab.AddF(r.Label, r.MaxLiveCells, r.EndLiveCells, r.Collections)
	}
	return res, tab, nil
}
