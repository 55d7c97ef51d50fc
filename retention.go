package repro

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// RetentionBenchOptions parameterises the retention-attribution
// measurement.
type RetentionBenchOptions struct {
	Rounds int `json:"rounds"` // report rounds (default 4)
	Steps  int `json:"steps"`  // lazy-stream steps per round (default 1500)
	// Trace, when non-nil, records collector events (cycles, provenance
	// harvests, retention reports) from the measured world.
	Trace *TraceRecorder `json:"-"`
}

// RetentionBenchRow is one round's report. Every count is deterministic
// — the workload is single-threaded and the stream grows by exactly
// Steps cells per round — so the regression gate checks them all
// exactly: a marker change that retains one extra object, or a
// provenance change that loses one record, diverges here.
type RetentionBenchRow struct {
	Round             int     `json:"round" gate:"key"`
	Steps             int     `json:"steps" gate:"exact"` // cumulative stream steps
	LiveObjects       uint64  `json:"live_objects" gate:"exact"`
	LiveBytes         uint64  `json:"live_bytes" gate:"exact"`
	GenuineObjects    uint64  `json:"genuine_objects" gate:"exact"`
	SpuriousObjects   uint64  `json:"spurious_objects" gate:"exact"`
	SpuriousBytes     uint64  `json:"spurious_bytes" gate:"exact"`
	CensoredRoots     int     `json:"censored_roots" gate:"exact"`
	RootSlots         int     `json:"root_slots" gate:"exact"`
	TopSoleObjects    uint64  `json:"top_sole_objects" gate:"exact"`
	ProvenanceRecords uint64  `json:"provenance_records" gate:"exact"`
	ReportMs          float64 `json:"-" gate:"info"`
}

// RetentionBenchResult is the measurement with the options it ran
// under; its Info is the world's gctrace summary.
type RetentionBenchResult = BenchResult[RetentionBenchOptions, RetentionBenchRow]

// RetentionBench measures the retention-provenance subsystem on the
// paper's section-4 lazy-stream scenario: a stale stack slot holds the
// stream's first cell, so the memoised chain grows by Steps cells every
// round while the genuine live set stays O(1). Each round collects with
// provenance recording on and runs a retention report with the planted
// slot declared false; the spurious counts must track the chain
// exactly.
func RetentionBench(opts RetentionBenchOptions) (*RetentionBenchResult, *stats.Table, error) {
	if opts.Rounds == 0 {
		opts.Rounds = 4
	}
	if opts.Steps == 0 {
		opts.Steps = 1500
	}
	w, err := NewWorld(Config{Blacklisting: BlacklistDense, LazySweep: true})
	if err != nil {
		return nil, nil, err
	}
	w.SetTracer(opts.Trace)
	roots, err := w.Space.MapNew("roots", KindData, 0x2000, 4096, 4096)
	if err != nil {
		return nil, nil, err
	}
	mach, err := NewMachine(w, MachineConfig{
		StackTop: 0x100000, StackBytes: 64 << 10, Clear: ClearNone,
	})
	if err != nil {
		return nil, nil, err
	}
	frame, err := mach.PushFrame(8)
	if err != nil {
		return nil, nil, err
	}

	s := NewLazyStream(w)
	first, err := s.First()
	if err != nil {
		return nil, nil, err
	}
	if err := frame.Store(0, Word(first)); err != nil {
		return nil, nil, err
	}
	slotAddr := frame.Addr(0)
	w.EnableProvenance(true)

	res := &RetentionBenchResult{Options: opts}
	cur := first
	for round := 1; round <= opts.Rounds; round++ {
		for i := 0; i < opts.Steps; i++ {
			if err := roots.Store(0x2000, Word(cur)); err != nil {
				return nil, nil, err
			}
			if cur, err = s.Force(cur); err != nil {
				return nil, nil, err
			}
		}
		st := w.Collect()
		start := time.Now()
		rep := w.GetRetentionReport(RetentionOptions{FalseRefs: []Addr{slotAddr}})
		reportMs := float64(time.Since(start).Nanoseconds()) / 1e6
		var topSole uint64
		if len(rep.SoleRetainers) > 0 {
			topSole = rep.SoleRetainers[0].Objects
		}
		res.Rows = append(res.Rows, RetentionBenchRow{
			Round:             round,
			Steps:             round * opts.Steps,
			LiveObjects:       rep.LiveObjects,
			LiveBytes:         rep.LiveBytes,
			GenuineObjects:    rep.GenuineObjects,
			SpuriousObjects:   rep.SpuriousObjects,
			SpuriousBytes:     rep.SpuriousBytes,
			CensoredRoots:     rep.CensoredRoots,
			RootSlots:         rep.RootSlots,
			TopSoleObjects:    topSole,
			ProvenanceRecords: st.ProvenanceRecords,
			ReportMs:          reportMs,
		})
	}
	res.Info = w.GCTraceSummary()

	tab := stats.NewTable(
		fmt.Sprintf("Retention attribution: lazy stream + planted false stack ref (%d steps/round)",
			opts.Steps),
		"round", "live objs", "genuine", "spurious", "spurious KB", "slots", "report ms")
	for _, r := range res.Rows {
		tab.AddF(r.Round, r.LiveObjects, r.GenuineObjects, r.SpuriousObjects,
			fmt.Sprintf("%.1f", float64(r.SpuriousBytes)/1024),
			r.RootSlots,
			fmt.Sprintf("%.2f", r.ReportMs))
	}
	return res, tab, nil
}
