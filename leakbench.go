package repro

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// LeakBenchOptions parameterises the leak-detection measurement.
type LeakBenchOptions struct {
	Rounds      int `json:"rounds"`       // collection rounds per workload (default 24)
	LeakCells   int `json:"leak_cells"`   // cons cells the leak appends per round (default 64)
	ChurnSlots  int `json:"churn_slots"`  // root slots holding churning lists (default 8)
	SampleEvery int `json:"sample_every"` // watcher sampling divisor (default 2)
	Window      int `json:"window"`       // watcher trend window in samples (default 6)
	// MinGrowthBytes is the watcher alert floor (default 2048).
	MinGrowthBytes uint64 `json:"min_growth_bytes"`
	// Trace, when non-nil, records collector events (cycles, provenance
	// harvests, leak alerts) from the measured world.
	Trace *TraceRecorder `json:"-"`
}

// LeakBenchRow is one workload's outcome. Every count is deterministic
// — the workloads are single-threaded with automatic collection off,
// the watcher's confidence model is pure arithmetic over retained
// totals, and attribution keys come from fixed root-segment slots — so
// the regression gate checks the detection counts exactly: a watcher
// change that fires one alert late, or attributes growth to the wrong
// slot, diverges here.
type LeakBenchRow struct {
	Workload       string `json:"workload" gate:"key"` // "leak" or "churn"
	Rounds         int    `json:"rounds" gate:"exact"`
	Collections    int    `json:"collections" gate:"exact"`
	WatchedSamples uint64 `json:"watched_samples" gate:"exact"`
	AlertsTotal    int    `json:"alerts_total" gate:"exact"`
	// LeakKeyAlerts counts alerts attributed to the planted leak slot;
	// FalsePositives counts alerts on any other key.
	LeakKeyAlerts   int `json:"leak_key_alerts" gate:"exact"`
	FalsePositives  int `json:"false_positives" gate:"exact"`
	FirstAlertCycle int `json:"first_alert_cycle" gate:"exact"` // 0: never alerted
	// LeakGrowthBytes sums the windowed growth the leak key's alerts
	// reported; LeakLastBytes is its final trend level.
	LeakGrowthBytes int64   `json:"leak_growth_bytes" gate:"exact"`
	LeakLastBytes   uint64  `json:"leak_last_bytes" gate:"exact"`
	TrendKeys       int     `json:"trend_keys" gate:"exact"` // series live at stop
	LiveObjects     uint64  `json:"live_objects" gate:"exact"`
	ElapsedMs       float64 `json:"-" gate:"info"`
}

// LeakBenchResult is the measurement with the options it ran under.
type LeakBenchResult = BenchResult[LeakBenchOptions, LeakBenchRow]

// leakBenchWorld runs one leak-detection workload: a root segment with
// a leak slot (slot 0) and ChurnSlots churning slots; each round
// appends LeakCells cons cells to the leak list (when leaking),
// rebuilds every churn list at a length that oscillates sample-to-
// sample far above MinGrowthBytes, and collects manually. The watcher
// samples at the collection barrier; its alert stream decides the row.
func leakBenchWorld(opts LeakBenchOptions, leaking bool, tr *TraceRecorder) (LeakBenchRow, error) {
	row := LeakBenchRow{Workload: "churn", Rounds: opts.Rounds}
	if leaking {
		row.Workload = "leak"
	}
	// Automatic collection off (GCDivisor < 0): collections happen only
	// at the per-round barrier, so sample cycles are reproducible.
	w, err := NewWorld(Config{Blacklisting: BlacklistDense, LazySweep: true, GCDivisor: -1})
	if err != nil {
		return row, err
	}
	w.SetTracer(tr)
	const rootBase = Addr(0x2000)
	roots, err := w.Space.MapNew("roots", KindData, rootBase, 4096, 4096)
	if err != nil {
		return row, err
	}
	alerts, err := w.StartRetentionWatch(WatchConfig{
		SampleEvery:    opts.SampleEvery,
		Window:         opts.Window,
		MinGrowthBytes: opts.MinGrowthBytes,
		Buffer:         4 * opts.Rounds,
	})
	if err != nil {
		return row, err
	}
	// The planted leak's attribution key: root-segment slot 0.
	leakKey := RootSlotID{Kind: RootSegment, Src: 0, Index: 0, Addr: rootBase}.String()

	cons := func(car, cdr Word) (Addr, error) {
		cell, err := w.Allocate(2, false)
		if err != nil {
			return 0, err
		}
		if err := w.Store(cell, car); err != nil {
			return 0, err
		}
		return cell, w.Store(cell+WordBytes, cdr)
	}
	list := func(n int) (Addr, error) {
		var head Word
		for i := n; i >= 1; i-- {
			cell, err := cons(Word(i), head)
			if err != nil {
				return 0, err
			}
			head = Word(cell)
		}
		return Addr(head), nil
	}

	start := time.Now()
	var leakHead Word
	for round := 1; round <= opts.Rounds; round++ {
		if leaking {
			for i := 0; i < opts.LeakCells; i++ {
				cell, err := cons(Word(round), leakHead)
				if err != nil {
					return row, err
				}
				leakHead = Word(cell)
				if err := roots.Store(rootBase, leakHead); err != nil {
					return row, err
				}
			}
		}
		// Churn: every slot drops its old list and takes a fresh one whose
		// length flips between samples (round/SampleEvery parity), so the
		// retained level oscillates by ~ChurnSlots*40*8 bytes — well above
		// MinGrowthBytes, but with zero sustained growth.
		churnLen := 20
		if (round/opts.SampleEvery)%2 == 1 {
			churnLen = 60
		}
		for s := 1; s <= opts.ChurnSlots; s++ {
			head, err := list(churnLen)
			if err != nil {
				return row, err
			}
			if err := roots.Store(rootBase+Addr(s*WordBytes), Word(head)); err != nil {
				return row, err
			}
		}
		w.Collect()
		row.Collections++
	}
	row.ElapsedMs = float64(time.Since(start).Nanoseconds()) / 1e6

	trends := w.StopRetentionWatch()
	row.TrendKeys = len(trends)
	for _, t := range trends {
		if t.Key == leakKey {
			row.LeakLastBytes = t.LastBytes
		}
	}
	for a := range alerts { // closed by StopRetentionWatch
		row.AlertsTotal++
		if a.Key == leakKey {
			row.LeakKeyAlerts++
			row.LeakGrowthBytes += a.GrowthBytes
			if row.FirstAlertCycle == 0 {
				row.FirstAlertCycle = a.Cycle
			}
		} else {
			row.FalsePositives++
		}
	}
	row.WatchedSamples = w.Metrics().Counter("leak_watched_cycles").Load()
	st := w.Collect()
	row.LiveObjects = st.Sweep.ObjectsLive

	// Self-check: the planted leak must be flagged within one extra
	// window of the earliest possible cycle, with no alerts on the
	// churning or stable keys; the control must stay silent.
	detectBy := 2 * opts.SampleEvery * opts.Window
	if leaking {
		switch {
		case row.LeakKeyAlerts == 0:
			return row, fmt.Errorf("leakbench: planted leak never alerted (%d trend keys)", row.TrendKeys)
		case row.FirstAlertCycle > detectBy:
			return row, fmt.Errorf("leakbench: first alert at cycle %d, want <= %d", row.FirstAlertCycle, detectBy)
		case row.FalsePositives > 0:
			return row, fmt.Errorf("leakbench: %d false-positive alerts", row.FalsePositives)
		}
	} else if row.AlertsTotal != 0 {
		return row, fmt.Errorf("leakbench: churn-only control raised %d alerts", row.AlertsTotal)
	}
	return row, nil
}

// LeakBench measures the online retention watcher on a planted
// slow-leak-plus-churn scenario: the "leak" workload grows a linked
// list from one root slot while eight other slots churn whole lists
// every round; the "churn" workload is the same world without the
// leak. The watcher must flag the leaking slot within a bounded number
// of collections and stay silent on everything else — both outcomes
// are exact and self-checked, and the regression gate pins them.
func LeakBench(opts LeakBenchOptions) (*LeakBenchResult, *stats.Table, error) {
	if opts.Rounds == 0 {
		opts.Rounds = 24
	}
	if opts.LeakCells == 0 {
		opts.LeakCells = 64
	}
	if opts.ChurnSlots == 0 {
		opts.ChurnSlots = 8
	}
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 2
	}
	if opts.Window == 0 {
		opts.Window = 6
	}
	if opts.MinGrowthBytes == 0 {
		opts.MinGrowthBytes = 2048
	}
	res := &LeakBenchResult{Options: opts}
	for _, leaking := range []bool{true, false} {
		row, err := leakBenchWorld(opts, leaking, opts.Trace)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	tab := stats.NewTable(
		fmt.Sprintf("Leak watch: planted leak vs churn control (%d rounds, sample every %d, window %d)",
			opts.Rounds, opts.SampleEvery, opts.Window),
		"workload", "samples", "alerts", "leak-key", "false-pos", "first@cycle", "growth KB", "elapsed ms")
	for _, r := range res.Rows {
		tab.AddF(r.Workload, r.WatchedSamples, r.AlertsTotal, r.LeakKeyAlerts, r.FalsePositives,
			r.FirstAlertCycle,
			fmt.Sprintf("%.1f", float64(r.LeakGrowthBytes)/1024),
			fmt.Sprintf("%.2f", r.ElapsedMs))
	}
	return res, tab, nil
}
