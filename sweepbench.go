package repro

import (
	"fmt"
	"runtime"

	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SweepBenchOptions parameterises the lazy-vs-eager sweep pause
// measurement.
type SweepBenchOptions struct {
	Lists  int    `json:"lists"`  // rooted lists kept live (default 48)
	Nodes  int    `json:"nodes"`  // nodes per list (default 1500)
	Cycles int    `json:"cycles"` // churn/collect cycles per mode (default 20)
	Churn  int    `json:"churn"`  // lists replaced per cycle (default 12)
	Seed   uint64 `json:"seed"`   // churn schedule seed (default 1)
	// Trace, when non-nil, records collector events from every measured
	// world into the given ring buffer (cmd/gcbench -trace).
	Trace *TraceRecorder `json:"-"`
}

// SweepBenchRow is one sweep strategy's aggregate over the churn run.
type SweepBenchRow struct {
	Mode string `json:"mode" gate:"key"` // "eager" | "lazy"
	// DeferredBlocks is the total number of blocks whose per-slot sweep
	// was pushed out of the pause (always 0 for eager).
	DeferredBlocks int `json:"deferred_blocks" gate:"exact"`
	// ObjectsFreed/BytesFreed are the run totals; the lazy row must
	// equal the eager row exactly (checked) — lazy sweeping moves work,
	// it never changes what is reclaimed.
	ObjectsFreed    uint64  `json:"objects_freed" gate:"exact"`
	BytesFreed      uint64  `json:"bytes_freed" gate:"exact"`
	AvgPauseNs      float64 `json:"-" gate:"info"`
	MaxPauseNs      int64   `json:"-" gate:"info"`
	AvgSweepPauseNs float64 `json:"-" gate:"info"`
	MaxSweepPauseNs int64   `json:"-" gate:"info"`
}

// SweepBenchResult is the measurement with the options it ran under.
type SweepBenchResult = BenchResult[SweepBenchOptions, SweepBenchRow]

// sweepBenchRun drives one world through the churn schedule and
// aggregates its collection pauses.
func sweepBenchRun(mode string, lazy bool, opts SweepBenchOptions) (SweepBenchRow, error) {
	row := SweepBenchRow{Mode: mode}
	w, err := NewWorld(Config{
		InitialHeapBytes: 16 << 20, ReserveHeapBytes: 32 << 20,
		GCDivisor: -1, LazySweep: lazy,
	})
	if err != nil {
		return row, err
	}
	w.SetTracer(opts.Trace)
	data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
	if err != nil {
		return row, err
	}
	for i := 0; i < opts.Lists; i++ {
		head, err := workload.MakeList(w, opts.Nodes)
		if err != nil {
			return row, err
		}
		data.Store(0x2000+Addr(i*4), Word(head))
	}
	w.SetCollectionHook(func(st CollectionStats) {
		ns := st.Duration.Nanoseconds()
		row.AvgPauseNs += float64(ns)
		row.MaxPauseNs = max(row.MaxPauseNs, ns)
		row.AvgSweepPauseNs += float64(st.PauseSweepNs)
		row.MaxSweepPauseNs = max(row.MaxSweepPauseNs, st.PauseSweepNs)
		row.DeferredBlocks += st.SweepDeferredBlocks
		row.ObjectsFreed += st.Sweep.ObjectsFreed
		row.BytesFreed += st.Sweep.BytesFreed
	})
	defer w.SetCollectionHook(nil)
	w.Collect() // baseline cycle before any churn
	rng := simrand.New(opts.Seed)
	for cycle := 0; cycle < opts.Cycles; cycle++ {
		// Drop Churn random lists and grow replacements in their slots:
		// the mutator phase where lazy sweeping pays its deferred work.
		for i := 0; i < opts.Churn; i++ {
			slot := 0x2000 + Addr(rng.Intn(opts.Lists)*4)
			if err := data.Store(slot, 0); err != nil {
				return row, err
			}
			head, err := workload.MakeList(w, opts.Nodes)
			if err != nil {
				return row, err
			}
			if err := data.Store(slot, Word(head)); err != nil {
				return row, err
			}
		}
		w.Collect()
	}
	w.FinishSweep()
	n := float64(opts.Cycles + 1)
	row.AvgPauseNs /= n
	row.AvgSweepPauseNs /= n
	return row, nil
}

// SweepBench measures collection pauses of the eager and lazy sweep
// strategies over the identical list-churn schedule. Both runs allocate
// at the same addresses and reclaim the same objects (the differential
// tests assert this; the run totals are re-checked here), so any pause
// difference is purely where the sweep work happens: inside the pause
// as a per-slot heap walk, or deferred behind an O(blocks) summary
// scan and paid during allocation.
func SweepBench(opts SweepBenchOptions) (*SweepBenchResult, *stats.Table, error) {
	if opts.Lists == 0 {
		opts.Lists = 48
	}
	if opts.Nodes == 0 {
		opts.Nodes = 1500
	}
	if opts.Cycles == 0 {
		opts.Cycles = 20
	}
	if opts.Churn == 0 {
		opts.Churn = 12
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	res := &SweepBenchResult{Options: opts}
	for _, m := range []struct {
		name string
		lazy bool
	}{{"eager", false}, {"lazy", true}} {
		row, err := sweepBenchRun(m.name, m.lazy, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("sweepbench %s: %w", m.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	eager, lazy := res.Rows[0], res.Rows[1]
	if eager.ObjectsFreed != lazy.ObjectsFreed || eager.BytesFreed != lazy.BytesFreed {
		return nil, nil, fmt.Errorf(
			"sweepbench: reclamation diverged: eager freed %d objs/%d bytes, lazy %d/%d",
			eager.ObjectsFreed, lazy.ObjectsFreed, eager.BytesFreed, lazy.BytesFreed)
	}
	tab := stats.NewTable(
		fmt.Sprintf("Sweep pause, eager vs lazy (%d lists x %d nodes, %d cycles, GOMAXPROCS=%d)",
			opts.Lists, opts.Nodes, opts.Cycles, runtime.GOMAXPROCS(0)),
		"mode", "avg pause ms", "max pause ms", "avg sweep ms", "max sweep ms",
		"deferred blocks", "objects freed")
	for _, r := range res.Rows {
		tab.AddF(r.Mode,
			fmt.Sprintf("%.3f", r.AvgPauseNs/1e6),
			fmt.Sprintf("%.3f", float64(r.MaxPauseNs)/1e6),
			fmt.Sprintf("%.3f", r.AvgSweepPauseNs/1e6),
			fmt.Sprintf("%.3f", float64(r.MaxSweepPauseNs)/1e6),
			r.DeferredBlocks, r.ObjectsFreed)
	}
	return res, tab, nil
}
