package repro

import (
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// PauseRow is one collector mode's pause profile (E16).
type PauseRow struct {
	Mode        string        `json:"mode" gate:"key"`
	Collections int           `json:"collections" gate:"exact"`
	MaxPause    time.Duration `json:"-" gate:"info"` // longest single Allocate call
	TotalGCWork time.Duration `json:"-" gate:"info"`
	// FinalLiveObj is what the heap holds once the last cycle landed.
	// Every mode runs on the one allocating goroutine — a concurrent
	// cycle is marked by its assists, not by a goroutine of its own — so
	// where in the churn each cycle snapshots and closes is fixed, and so
	// is this count (the concurrent row's exceeds the others' by the
	// objects born black while its last cycle marked).
	FinalLiveObj uint64 `json:"final_live_obj" gate:"exact"`
	// ChurnCycles counts the cycles the churn itself triggered, and
	// MaxReported is the longest the collector's own phase timers say
	// one of them kept the mutator stopped (see reportedPause). Unlike
	// MaxPause it includes no wait for a lock or a processor.
	ChurnCycles int           `json:"churn_cycles" gate:"exact"`
	MaxReported time.Duration `json:"-" gate:"info"`
	// MaxStoppedMarked is the most objects one churn cycle marked with
	// the mutator stopped: all of a stop-the-world cycle's marks, and
	// those of a concurrent cycle's snapshot and final pauses (all but
	// MarkedConcurrent). It is the pause's work as a count, which no load
	// on the machine moves.
	MaxStoppedMarked uint64 `json:"max_stopped_marked" gate:"exact"`
}

// reportedPause is how long one cycle stopped the mutator by the
// collector's account: the safepoint stop plus, for a stop-the-world
// cycle, its mark and sweep; for a concurrent one, the longer of its
// snapshot and final pauses.
func reportedPause(st CollectionStats) time.Duration {
	ns := st.PauseMarkNs + st.PauseSweepNs
	if st.Concurrent {
		ns = max(st.PauseSnapshotNs, st.PauseFinalNs)
	}
	return time.Duration(st.PauseStopNs + ns)
}

// PausesOptions configures the experiment.
type PausesOptions struct {
	LiveObjects int    `json:"live_objects"` // long-lived list length (default 150000)
	Churn       int    `json:"churn"`        // short-lived allocations (default 300000)
	Seed        uint64 `json:"seed"`
}

// Pauses compares mutator-visible pause times across the collector
// modes: stop-the-world (the paper's collector), concurrent (after its
// reference [8], "concurrent collectors that greatly reduce client
// pause times", but marked in 64-object chunks by the mutator's own
// allocation assists: nothing marks beside it), and generational
// (reference [13], cheap minor cycles). The mutator churns short-lived objects
// over a large long-lived structure; the pause is the latency of the
// worst single allocation call.
func Pauses(opt PausesOptions) (*BenchResult[PausesOptions, PauseRow], *stats.Table, error) {
	if opt.LiveObjects == 0 {
		opt.LiveObjects = 150000
	}
	if opt.Churn == 0 {
		opt.Churn = 300000
	}
	configs := []struct {
		label string
		cfg   Config
	}{
		{"stop-the-world", Config{GCDivisor: 2}},
		{"concurrent, marked by allocation assists", Config{ConcurrentMark: true, GCDivisor: 2, MarkQuantum: 64}},
		{"generational", Config{Generational: true, MinorDivisor: 4, FullEvery: 16}},
	}
	res := &BenchResult[PausesOptions, PauseRow]{Options: opt}
	for _, c := range configs {
		row, err := pausesRun(opt, c.label, c.cfg)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	tab := stats.NewTable("Pause times: stop-the-world vs assist-marked concurrent vs generational",
		"Mode", "Collections", "Worst pause", "Total GC-bearing time", "Live at end", "Most marked stopped")
	for _, r := range res.Rows {
		tab.AddF(r.Mode, r.Collections,
			fmt.Sprintf("%.2fms", float64(r.MaxPause.Microseconds())/1000),
			fmt.Sprintf("%.2fms", float64(r.TotalGCWork.Microseconds())/1000),
			r.FinalLiveObj, r.MaxStoppedMarked)
	}
	return res, tab, nil
}

func pausesRun(opt PausesOptions, label string, cfg Config) (*PauseRow, error) {
	cfg.InitialHeapBytes = 4 << 20
	cfg.ReserveHeapBytes = 64 << 20
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
	if err != nil {
		return nil, err
	}
	// The long-lived structure, kept rooted while it is built so that
	// mid-build collections (certain in generational mode) cannot eat
	// the partial list.
	head, err := workload.MakeListRooted(w, opt.LiveObjects, data, 0x2000)
	if err != nil {
		return nil, err
	}
	if err := data.Store(0x2000, Word(head)); err != nil {
		return nil, err
	}
	w.Collect() // settle (and, if generational, tenure) the structure

	// Every cycle from here on is one the churn triggered. The hook runs
	// under the world lock, which FinishConcurrentCycle takes below.
	var cycles int
	var maxReported time.Duration
	var maxMarked uint64
	w.SetCollectionHook(func(st CollectionStats) {
		cycles++
		maxReported = max(maxReported, reportedPause(st))
		maxMarked = max(maxMarked, st.Mark.ObjectsMarked-st.MarkedConcurrent)
	})
	var maxPause, total time.Duration
	for i := 0; i < opt.Churn; i++ {
		start := time.Now()
		if _, err := w.Allocate(2, false); err != nil {
			return nil, err
		}
		d := time.Since(start)
		total += d
		if d > maxPause {
			maxPause = d
		}
	}
	// A concurrent cycle may still be open, its marking left to
	// allocations that will not come; land it before reading the heap
	// (a no-op in the other modes).
	w.FinishConcurrentCycle()
	st := w.Heap.Stats()
	return &PauseRow{
		Mode:             label,
		Collections:      w.Collections(),
		MaxPause:         maxPause,
		TotalGCWork:      total,
		FinalLiveObj:     st.ObjectsLive,
		ChurnCycles:      cycles,
		MaxReported:      maxReported,
		MaxStoppedMarked: maxMarked,
	}, nil
}
