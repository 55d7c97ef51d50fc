package repro

import (
	"fmt"
	"runtime"

	"repro/internal/stats"
)

// AllocBenchOptions parameterises the allocation-profile comparison:
// the free-list profile against the Immix-style line heap
// (Config.LineAlloc), at each requested mutator count.
type AllocBenchOptions struct {
	Mutators []int `json:"mutators"` // mutator counts to measure (default {1, 8})
	Allocs   int   `json:"allocs"`   // allocations per mutator (default 40000)
	// Trace, when non-nil, records collector events (span refills,
	// safepoints, cycles) from every measured world (cmd/gcbench -trace).
	Trace *TraceRecorder `json:"-"`
}

// AllocBenchRow is one (profile, mutator count) measurement.
type AllocBenchRow struct {
	Profile  string `json:"profile" gate:"key"` // "freelist" | "line"
	Mutators int    `json:"mutators" gate:"key"`
	// ObjectsAllocated is deterministic — every goroutine performs
	// exactly Allocs allocations — so the regression gate checks it
	// exactly, in both profiles: a span double-carved or a slot lost
	// through a safepoint flush breaks conservation here.
	ObjectsAllocated uint64  `json:"objects_allocated" gate:"exact"`
	NsPerAlloc       float64 `json:"-" gate:"info"`
	AllocsPerSec     float64 `json:"-" gate:"info"`
	// FastFraction is the share of allocations served from the
	// per-mutator cache (free-list runs or bump spans) without the
	// central lock.
	FastFraction float64 `json:"-" gate:"info"`
	Collections  int     `json:"-" gate:"info"`
	// Line-heap space accounting after the final collection; zero for
	// the free-list profile. WasteBytes is the paper-style overhead
	// figure: free slots stranded inside live lines, unreachable by any
	// bump span until the rest of the line dies. Informational (cycle
	// timing decides which objects die together), not gated.
	LineLiveLines  int    `json:"-" gate:"info"`
	LineFreeLines  int    `json:"-" gate:"info"`
	LineWasteBytes uint64 `json:"-" gate:"info"`
}

// AllocBenchResult is the measurement with the options it ran under.
type AllocBenchResult = BenchResult[AllocBenchOptions, AllocBenchRow]

// AllocBench measures allocation throughput of the free-list profile
// against the line heap under the MutBench churn script (mostly
// garbage, every eighth object rooted), at each mutator count. The
// workload and collector configuration are identical across profiles;
// only Config.LineAlloc differs, so the ns/alloc gap is the cost of
// free-list threading versus bump-span carving.
func AllocBench(opts AllocBenchOptions) (*AllocBenchResult, *stats.Table, error) {
	if len(opts.Mutators) == 0 {
		opts.Mutators = []int{1, 8}
	}
	if opts.Allocs == 0 {
		opts.Allocs = 40000
	}
	res := &AllocBenchResult{Options: opts}
	for _, profile := range []string{"freelist", "line"} {
		for _, n := range opts.Mutators {
			w, err := NewWorld(Config{
				InitialHeapBytes: 16 << 20, ReserveHeapBytes: 64 << 20,
				GCDivisor: 8, LazySweep: true, LineAlloc: profile == "line",
			})
			if err != nil {
				return nil, nil, err
			}
			w.SetTracer(opts.Trace)
			muts, elapsed, err := churnMutators(w, n, opts.Allocs)
			if err != nil {
				return nil, nil, fmt.Errorf("allocbench %s: %w", profile, err)
			}
			// The final collection publishes every handle's counters and
			// flushes outstanding bump spans; the integrity audit would
			// catch a double-carved or leaked slot in either profile.
			w.Collect()
			w.FinishSweep()
			if err := w.VerifyIntegrity(); err != nil {
				return nil, nil, fmt.Errorf("allocbench %s: %w", profile, err)
			}
			total := uint64(n * opts.Allocs)
			if got := w.Heap.Stats().ObjectsAllocated; got != total {
				return nil, nil, fmt.Errorf("allocbench %s: %d objects allocated centrally, mutators performed %d",
					profile, got, total)
			}
			var fast uint64
			for _, m := range muts {
				fast += m.Stats().FastAllocs
			}
			ns := float64(elapsed.Nanoseconds()) / float64(total)
			ls := w.Heap.LineStats()
			res.Rows = append(res.Rows, AllocBenchRow{
				Profile:          profile,
				Mutators:         n,
				ObjectsAllocated: total,
				NsPerAlloc:       ns,
				AllocsPerSec:     1e9 / ns,
				FastFraction:     float64(fast) / float64(total),
				Collections:      w.Collections(),
				LineLiveLines:    ls.LiveLines,
				LineFreeLines:    ls.FreeLines,
				LineWasteBytes:   ls.WasteBytes,
			})
		}
	}
	tab := stats.NewTable(
		fmt.Sprintf("Allocation profiles: free list vs line heap (%d allocs each, GOMAXPROCS=%d, NumCPU=%d)",
			opts.Allocs, runtime.GOMAXPROCS(0), runtime.NumCPU()),
		"profile", "mutators", "ns/alloc", "Mallocs/s", "fast%", "waste KB")
	for _, r := range res.Rows {
		tab.AddF(r.Profile, r.Mutators,
			fmt.Sprintf("%.1f", r.NsPerAlloc),
			fmt.Sprintf("%.2f", r.AllocsPerSec/1e6),
			fmt.Sprintf("%.1f", r.FastFraction*100),
			fmt.Sprintf("%.1f", float64(r.LineWasteBytes)/1024))
	}
	return res, tab, nil
}
