package repro

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// MarkBenchOptions parameterises the parallel-mark scaling measurement.
type MarkBenchOptions struct {
	Workers []int `json:"workers"` // worker counts to measure; default powers of two up to GOMAXPROCS
	Lists   int   `json:"lists"`   // rooted lists (default 64)
	Nodes   int   `json:"nodes"`   // nodes per list (default 4000)
	Iters   int   `json:"iters"`   // mark phases per measurement (default 10)
	// Trace, when non-nil, records collector events from every measured
	// world into the given ring buffer (cmd/gcbench -trace).
	Trace *TraceRecorder `json:"-"`
}

// MarkBenchRow is one worker count's measurement. The marked set is the
// same at every worker count; the timing columns are a reading on the
// machine the run happened on (on one CPU the workers serialise and
// the multi-worker rows measure coordination overhead).
type MarkBenchRow struct {
	Workers       int     `json:"workers" gate:"key"`
	ObjectsMarked uint64  `json:"objects_marked" gate:"exact"`
	NsPerMark     float64 `json:"-" gate:"info"`
	MBPerSec      float64 `json:"-" gate:"info"`
}

// MarkBenchResult is the measurement with the options it ran under.
type MarkBenchResult = BenchResult[MarkBenchOptions, MarkBenchRow]

// MarkBench measures mark-phase wall-clock time against the worker
// count over a heap of rooted lists: the same marked object set every
// time (the differential tests assert this), so any time difference is
// the parallelisation itself.
func MarkBench(opts MarkBenchOptions) (*MarkBenchResult, *stats.Table, error) {
	if len(opts.Workers) == 0 {
		// Default to worker counts the machine can actually run in
		// parallel; explicit larger counts are honoured.
		for w := 1; w <= runtime.GOMAXPROCS(0); w *= 2 {
			opts.Workers = append(opts.Workers, w)
		}
	}
	if opts.Lists == 0 {
		opts.Lists = 64
	}
	if opts.Nodes == 0 {
		opts.Nodes = 4000
	}
	if opts.Iters == 0 {
		opts.Iters = 10
	}
	res := &MarkBenchResult{Options: opts}
	bytesPerMark := float64(opts.Lists * opts.Nodes * 8)
	for _, workers := range opts.Workers {
		w, err := NewWorld(Config{
			InitialHeapBytes: 16 << 20, ReserveHeapBytes: 32 << 20,
			GCDivisor: -1, MarkWorkers: workers,
		})
		if err != nil {
			return nil, nil, err
		}
		w.SetTracer(opts.Trace)
		data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < opts.Lists; i++ {
			head, err := workload.MakeList(w, opts.Nodes)
			if err != nil {
				return nil, nil, err
			}
			data.Store(0x2000+Addr(i*8), Word(head))
		}
		w.MarkOnly() // warm up caches and the worker pool
		var objs uint64
		start := time.Now()
		for i := 0; i < opts.Iters; i++ {
			objs, _ = w.MarkOnly()
		}
		elapsed := time.Since(start)
		if want := uint64(opts.Lists * opts.Nodes); objs != want {
			return nil, nil, fmt.Errorf("markbench: marked %d objects, want %d", objs, want)
		}
		ns := float64(elapsed.Nanoseconds()) / float64(opts.Iters)
		res.Rows = append(res.Rows, MarkBenchRow{
			Workers:       workers,
			ObjectsMarked: objs,
			NsPerMark:     ns,
			MBPerSec:      bytesPerMark / ns * 1e3, // ns → MB/s
		})
	}
	tab := stats.NewTable(
		fmt.Sprintf("Parallel mark scaling (%d lists x %d nodes, GOMAXPROCS=%d, NumCPU=%d)",
			opts.Lists, opts.Nodes, runtime.GOMAXPROCS(0), runtime.NumCPU()),
		"workers", "ms/mark", "MB/s")
	for _, r := range res.Rows {
		tab.AddF(r.Workers,
			fmt.Sprintf("%.2f", r.NsPerMark/1e6),
			fmt.Sprintf("%.1f", r.MBPerSec))
	}
	return res, tab, nil
}
