package repro

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/stats"
)

// PauseBenchOptions parameterises the concurrent-marking pause
// measurement.
type PauseBenchOptions struct {
	Mutators int `json:"mutators"` // allocating goroutines (default 8)
	Ops      int `json:"ops"`      // allocations per mutator (default 40000)
	// Widths are the GOMAXPROCS values to measure both modes under
	// (default 1 and 4): width 1 runs the mutators, and the
	// allocation-proportional assists that mark for them, one at a
	// time; wider runs let one mutator allocate while another's assist
	// holds the world lock. Each width is set with runtime.GOMAXPROCS
	// for its rows and restored afterwards.
	Widths []int `json:"widths"`
	// Trace, when non-nil, records collector events (snapshot pauses,
	// barrier shades, final pauses) from every measured world.
	Trace *TraceRecorder `json:"-"`
}

// PauseBenchRow is one collector mode's pause profile. The workload is
// a deterministic tape — every goroutine performs exactly Ops rooted
// allocations into its private data slots and links between its own
// rooted objects, and never frees — so objects_allocated and
// objects_live are exact invariants the regression gate compares
// bit-for-bit, while the pause percentiles are timing: printed, never
// recorded or compared (cmd/perfbench's live_graph_conc and
// live_graph_stw rows are where pauses are measured).
type PauseBenchRow struct {
	// PauseMode is "stw" (every cycle a full stop-the-world
	// collection) or "concurrent" (Config.ConcurrentMark: one marker,
	// mutators paused only for the snapshot and the bounded finale).
	PauseMode string `json:"pause_mode" gate:"key"`
	// GoMaxProcs is the scheduler width the row ran under (one of
	// Options.Widths): the live set must not depend on it.
	GoMaxProcs       int    `json:"gomaxprocs" gate:"key"`
	ObjectsAllocated uint64 `json:"objects_allocated" gate:"exact"`
	ObjectsLive      uint64 `json:"objects_live" gate:"exact"`
	// Collections (cycles sampled during the measurement window, before
	// teardown) and MarkedConcurrent are informational: automatic
	// triggers and barrier traffic depend on goroutine interleaving.
	Collections      int    `json:"-" gate:"info"`
	MarkedConcurrent uint64 `json:"-" gate:"info"`
	// The mutator-visible stop-the-world pause distribution, in
	// nanoseconds. For stw rows each sample is a full collection's
	// Duration; for concurrent rows each sample is one cycle's final
	// pause (the root-rescan, drain and sweep stop).
	PauseP50Ns float64 `json:"-" gate:"info"`
	PauseP99Ns float64 `json:"-" gate:"info"`
	PauseMaxNs float64 `json:"-" gate:"info"`
	// SnapshotP99Ns is the concurrent rows' other, shorter pause (root
	// scan at cycle start); 0 for stw rows.
	SnapshotP99Ns float64 `json:"-" gate:"info"`
}

// PauseBenchResult is the measurement with the options it ran under;
// its Info is the stw row's p99 full-collection pause over the
// concurrent row's p99 final pause at the widest measured width.
type PauseBenchResult = BenchResult[PauseBenchOptions, PauseBenchRow]

// pausePercentile returns the p-th percentile (nearest-rank) of ns.
func pausePercentile(ns []float64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]float64(nil), ns...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// PauseBench measures the pause profile of mostly-concurrent marking
// against the same collector run fully stop-the-world. The workload
// keeps a growing linked structure live (rooted allocations plus links
// between rooted objects, no frees), so full collections mark an
// ever-larger graph while the concurrent finale only rescans the roots
// — the gap between the two p99 columns is the tentpole's payoff.
func PauseBench(opts PauseBenchOptions) (*PauseBenchResult, *stats.Table, error) {
	if opts.Mutators == 0 {
		opts.Mutators = 8
	}
	if opts.Ops == 0 {
		opts.Ops = 40000
	}
	if len(opts.Widths) == 0 {
		opts.Widths = []int{1, 4}
	}
	res := &PauseBenchResult{Options: opts}
	modes := []struct {
		label string
		cfg   Config
	}{
		{"stw", Config{
			InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
			GCDivisor: 16,
		}},
		// MarkQuantum is the slow-path assist's chunk: 4096 keeps each
		// lock hold short (~0.1ms) while letting the assists keep the
		// cycle's marking in pace with allocation.
		{"concurrent", Config{
			InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
			GCDivisor: 16, ConcurrentMark: true, MarkQuantum: 4096,
		}},
	}
	for _, width := range opts.Widths {
		prev := runtime.GOMAXPROCS(width)
		for _, mode := range modes {
			row, err := pauseBenchRun(opts, mode.label, mode.cfg)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return nil, nil, err
			}
			res.Rows = append(res.Rows, *row)
		}
		runtime.GOMAXPROCS(prev)
	}
	// Every row replays the same deterministic tape; liveness is a
	// property of the tape, not of when cycles fired or how wide the
	// scheduler ran, so the live counts must all agree exactly — a
	// divergence means the barrier or the finale lost or floated an
	// object past teardown.
	for _, r := range res.Rows[1:] {
		if r.ObjectsLive != res.Rows[0].ObjectsLive {
			return nil, nil, fmt.Errorf("pausebench: live sets diverge: %d (%s@%d) vs %d (%s@%d)",
				res.Rows[0].ObjectsLive, res.Rows[0].PauseMode, res.Rows[0].GoMaxProcs,
				r.ObjectsLive, r.PauseMode, r.GoMaxProcs)
		}
	}
	// Headline ratio from the widest width's mode pair.
	byKey := make(map[string]PauseBenchRow)
	for _, r := range res.Rows {
		byKey[fmt.Sprintf("%s@%d", r.PauseMode, r.GoMaxProcs)] = r
	}
	widest := opts.Widths[len(opts.Widths)-1]
	stw := byKey[fmt.Sprintf("stw@%d", widest)]
	conc := byKey[fmt.Sprintf("concurrent@%d", widest)]
	if stw.PauseP99Ns > 0 && conc.PauseP99Ns > 0 {
		res.Info = fmt.Sprintf("p99 pause, stw over concurrent at GOMAXPROCS=%d on this machine: %.1fx",
			widest, stw.PauseP99Ns/conc.PauseP99Ns)
	}
	tab := stats.NewTable(
		fmt.Sprintf("Mutator-visible pauses: stop-the-world vs concurrent marking (%d mutators x %d allocs, NumCPU=%d)",
			opts.Mutators, opts.Ops, runtime.NumCPU()),
		"mode", "gomaxprocs", "cycles", "pause p50", "pause p99", "pause max", "snapshot p99", "live at end")
	ms := func(ns float64) string { return fmt.Sprintf("%.3fms", ns/1e6) }
	for _, r := range res.Rows {
		snap := "-"
		if r.PauseMode != "stw" {
			snap = ms(r.SnapshotP99Ns)
		}
		tab.AddF(r.PauseMode, r.GoMaxProcs, r.Collections,
			ms(r.PauseP50Ns), ms(r.PauseP99Ns), ms(r.PauseMaxNs),
			snap, r.ObjectsLive)
	}
	return res, tab, nil
}

func pauseBenchRun(opts PauseBenchOptions, label string, cfg Config) (*PauseBenchRow, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.SetTracer(opts.Trace)
	n := opts.Mutators
	const slots = 8
	data, err := w.Space.MapNew("roots", KindData, 0x2000, n*slots*4, n*slots*4)
	if err != nil {
		return nil, err
	}
	// Pause sampling: the hook fires under the central lock, so the
	// appends are serialized. For a concurrent cycle the mutators were
	// stopped twice (snapshot, finale); for everything else Duration is
	// the whole stop.
	var finals, snaps []float64
	var markedConc uint64
	w.SetCollectionHook(func(st CollectionStats) {
		if st.Concurrent {
			finals = append(finals, float64(st.PauseFinalNs))
			snaps = append(snaps, float64(st.PauseSnapshotNs))
			markedConc += st.MarkedConcurrent
		} else {
			finals = append(finals, float64(st.Duration.Nanoseconds()))
		}
	})
	muts := make([]*Mutator, n)
	for g := range muts {
		muts[g] = w.NewMutator()
	}
	sizes := []int{2, 4, 8, 16}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := muts[g]
			base := Addr(0x2000 + g*slots*4)
			// Every allocation is rooted in one of this goroutine's
			// private slots and points back at the object in the next
			// slot over (rooted, hence certainly still allocated — and
			// the store writes into the brand-new object, so it can
			// never land in reclaimed memory). The stride-7 backward
			// chains from the 8 final roots cover every residue class,
			// so the whole allocation history stays reachable: the live
			// graph grows throughout the run, full stop-the-world marks
			// get steadily more expensive, and the concurrent finale
			// stays a root rescan. Liveness is a property of the tape
			// alone and replays identically in either mode.
			var roots [slots]Addr
			for i := 0; i < opts.Ops; i++ {
				slot := i % slots
				p, err := m.AllocateRooted(data, base+Addr(4*slot), sizes[i&3], false)
				if err != nil {
					errs[g] = err
					return
				}
				if prev := roots[(slot+1)%slots]; prev != 0 {
					if err := m.Store(p, Word(prev)); err != nil {
						errs[g] = err
						return
					}
				}
				roots[slot] = p
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pausebench: mutator %d: %w", g, err)
		}
	}
	// Teardown: finish any in-flight concurrent cycle while the hook is
	// still attached (its finale is a genuine bounded pause and belongs
	// in the sample), then stop sampling and run two full collections —
	// the first may inherit the finished cycle's floating garbage, the
	// second leaves exactly the tape-reachable objects.
	w.FinishConcurrentCycle()
	cycles := len(finals)
	w.SetCollectionHook(nil)
	w.Collect()
	w.Collect()
	if err := w.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("pausebench: %w", err)
	}
	total := uint64(n * opts.Ops)
	hs := w.Heap.Stats()
	if hs.ObjectsAllocated != total {
		return nil, fmt.Errorf("pausebench: %d objects allocated centrally, mutators performed %d",
			hs.ObjectsAllocated, total)
	}
	return &PauseBenchRow{
		PauseMode:        label,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		ObjectsAllocated: total,
		ObjectsLive:      hs.ObjectsLive,
		Collections:      cycles,
		MarkedConcurrent: markedConc,
		PauseP50Ns:       pausePercentile(finals, 50),
		PauseP99Ns:       pausePercentile(finals, 99),
		PauseMaxNs:       pausePercentile(finals, 100),
		SnapshotP99Ns:    pausePercentile(snaps, 99),
	}, nil
}
