package repro

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/stats"
)

// MutBenchOptions parameterises the concurrent-mutator throughput
// measurement.
type MutBenchOptions struct {
	Mutators []int `json:"mutators"` // mutator counts to measure; default powers of two up to GOMAXPROCS
	Allocs   int   `json:"allocs"`   // allocations per mutator (default 40000)
	// Trace, when non-nil, records collector events (safepoints, cache
	// refills, cycles) from every measured world (cmd/gcbench -trace).
	Trace *TraceRecorder `json:"-"`
}

// MutBenchRow is one mutator count's measurement.
type MutBenchRow struct {
	Mutators int `json:"mutators" gate:"key"`
	// ObjectsAllocated is deterministic — every goroutine performs
	// exactly Allocs allocations — so the regression gate checks it
	// exactly: a missed cache flush or double-carve breaks conservation
	// and shows up here or in the world's integrity audit.
	ObjectsAllocated uint64  `json:"objects_allocated" gate:"exact"`
	NsPerAlloc       float64 `json:"-" gate:"info"`
	AllocsPerSec     float64 `json:"-" gate:"info"`
	// FastFraction is the share of allocations served from per-mutator
	// caches without the central lock. It and Collections depend on
	// goroutine interleaving (automatic triggers), so the gate does not
	// compare them.
	FastFraction float64 `json:"-" gate:"info"`
	Collections  int     `json:"-" gate:"info"`
}

// MutBenchResult is the measurement with the options it ran under.
type MutBenchResult = BenchResult[MutBenchOptions, MutBenchRow]

// churnMutators is the allocation script MutBench and AllocBench share:
// n goroutines, each with its own handle on w, perform allocs
// allocations apiece — mostly garbage, every eighth object rooted in
// the goroutine's private data slots. It returns the handles and the
// wall time of the allocating phase.
func churnMutators(w *World, n, allocs int) ([]*Mutator, time.Duration, error) {
	const slots = 8
	data, err := w.Space.MapNew("roots", KindData, 0x2000, n*slots*4, n*slots*4)
	if err != nil {
		return nil, 0, err
	}
	muts := make([]*Mutator, n)
	for g := range muts {
		muts[g] = w.NewMutator()
	}
	sizes := []int{2, 4, 8, 16}
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := muts[g]
			base := Addr(0x2000 + g*slots*4)
			for i := 0; i < allocs; i++ {
				size := sizes[i&3]
				if i&7 == 0 {
					slot := Addr(4 * ((i >> 3) % slots))
					if _, err := m.AllocateRooted(data, base+slot, size, false); err != nil {
						errs[g] = err
						return
					}
				} else if _, err := m.Allocate(size, false); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for g, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("mutator %d: %w", g, err)
		}
	}
	return muts, elapsed, nil
}

// MutBench measures allocation throughput against the mutator count:
// every goroutine churns through the same per-goroutine allocation
// script (mostly garbage, every eighth object rooted in its private
// data slot), so contention on the central lock and safepoint stops
// are the only things that change between rows.
func MutBench(opts MutBenchOptions) (*MutBenchResult, *stats.Table, error) {
	if len(opts.Mutators) == 0 {
		for n := 1; n <= runtime.GOMAXPROCS(0); n *= 2 {
			opts.Mutators = append(opts.Mutators, n)
		}
	}
	if opts.Allocs == 0 {
		opts.Allocs = 40000
	}
	res := &MutBenchResult{Options: opts}
	for _, n := range opts.Mutators {
		w, err := NewWorld(Config{
			InitialHeapBytes: 16 << 20, ReserveHeapBytes: 64 << 20,
			GCDivisor: 8, LazySweep: true,
		})
		if err != nil {
			return nil, nil, err
		}
		w.SetTracer(opts.Trace)
		muts, elapsed, err := churnMutators(w, n, opts.Allocs)
		if err != nil {
			return nil, nil, fmt.Errorf("mutbench: %w", err)
		}
		// The final collection publishes every handle's counters; the
		// integrity audit would catch a double-carved or leaked slot.
		w.Collect()
		if err := w.VerifyIntegrity(); err != nil {
			return nil, nil, fmt.Errorf("mutbench: %w", err)
		}
		total := uint64(n * opts.Allocs)
		if got := w.Heap.Stats().ObjectsAllocated; got != total {
			return nil, nil, fmt.Errorf("mutbench: %d objects allocated centrally, mutators performed %d", got, total)
		}
		var fast uint64
		for _, m := range muts {
			fast += m.Stats().FastAllocs
		}
		ns := float64(elapsed.Nanoseconds()) / float64(total)
		res.Rows = append(res.Rows, MutBenchRow{
			Mutators:         n,
			ObjectsAllocated: total,
			NsPerAlloc:       ns,
			AllocsPerSec:     1e9 / ns,
			FastFraction:     float64(fast) / float64(total),
			Collections:      w.Collections(),
		})
	}
	tab := stats.NewTable(
		fmt.Sprintf("Concurrent mutator throughput (%d allocs each, GOMAXPROCS=%d, NumCPU=%d)",
			opts.Allocs, runtime.GOMAXPROCS(0), runtime.NumCPU()),
		"mutators", "ns/alloc", "Mallocs/s", "fast%", "collections")
	for _, r := range res.Rows {
		tab.AddF(r.Mutators,
			fmt.Sprintf("%.1f", r.NsPerAlloc),
			fmt.Sprintf("%.2f", r.AllocsPerSec/1e6),
			fmt.Sprintf("%.1f", r.FastFraction*100),
			r.Collections)
	}
	return res, tab, nil
}
