package repro

import (
	"repro/internal/stats"
	"repro/internal/workload"
)

// GridsOptions configures the figure-3/4 experiment (E4).
type GridsOptions struct {
	Rows   int    `json:"rows"`   // default 100
	Cols   int    `json:"cols"`   // default 100
	Trials int    `json:"trials"` // default 500
	Seed   uint64 `json:"seed"`
}

// GridRow is one grid representation's retention summary.
type GridRow struct {
	Kind            GridKind `json:"kind" gate:"key"`
	TotalObjects    int      `json:"total_objects" gate:"exact"`
	MeanRetained    float64  `json:"mean_retained" gate:"exact"`
	MaxRetained     uint64   `json:"max_retained" gate:"exact"`
	MeanFractionPct float64  `json:"mean_fraction_pct" gate:"exact"`
}

// Grids reproduces figures 3 and 4: the expected consequence of a
// single false reference into a rectangular grid represented with
// embedded links versus separate cons cells. "In the former case, a
// false reference can be expected to result in the retention of a
// large fraction of the structure. In the latter case, at most a
// single row or column is affected."
func Grids(opt GridsOptions) (*BenchResult[GridsOptions, GridRow], *stats.Table, error) {
	if opt.Rows == 0 {
		opt.Rows = 100
	}
	if opt.Cols == 0 {
		opt.Cols = 100
	}
	if opt.Trials == 0 {
		opt.Trials = 500
	}
	res := &BenchResult[GridsOptions, GridRow]{Options: opt}
	for _, kind := range []GridKind{GridEmbedded, GridSeparate} {
		w, err := NewWorld(Config{
			InitialHeapBytes: 8 << 20,
			ReserveHeapBytes: 32 << 20,
			GCDivisor:        -1,
		})
		if err != nil {
			return nil, nil, err
		}
		st, err := workload.MeasureGridRetention(w, opt.Rows, opt.Cols, kind, opt.Trials, opt.Seed)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, GridRow{
			Kind:            kind,
			TotalObjects:    st.TotalObjects,
			MeanRetained:    st.MeanRetained,
			MaxRetained:     st.MaxRetained,
			MeanFractionPct: st.MeanFractionPct,
		})
	}
	tab := stats.NewTable("Figures 3/4: retention from one false reference into a grid",
		"Representation", "Objects", "Mean retained", "Max retained", "Mean % of structure")
	for _, r := range res.Rows {
		tab.AddF(r.Kind, r.TotalObjects, int(r.MeanRetained+0.5), r.MaxRetained,
			stats.Pct(r.MeanFractionPct/100))
	}
	return res, tab, nil
}

// StructuresOptions configures the section-4 structures (E6).
type StructuresOptions struct {
	Depths []int  `json:"depths"` // balanced-tree depths (default 8, 12, 16)
	Trials int    `json:"trials"` // false references per tree (default 2000)
	Window int    `json:"window"` // queue window (default 100)
	Steps  int    `json:"steps"`  // queue and stream steps (default 50000)
	Seed   uint64 `json:"seed"`
}

// StructureRow is one structure's retention under one false
// reference (E6): a balanced tree of one depth, or a queue or lazy
// stream with or without the paper's mitigation.
type StructureRow struct {
	Structure string `json:"structure" gate:"key"` // "tree", "queue + false ref" or "lazy stream"
	Depth     int    `json:"depth" gate:"key"`     // trees only
	Mitigated bool   `json:"mitigated" gate:"key"` // links cleared / no false ref
	// Trees: the expected retention against the paper's prediction
	// that it is "approximately equal to the height of the tree".
	Nodes          int     `json:"nodes" gate:"exact"`
	MeanRetained   float64 `json:"mean_retained" gate:"exact"`
	TheoryRetained float64 `json:"theory_retained" gate:"exact"`
	// Queues and streams: how far one false reference lets them grow.
	PeakLiveObjects  uint64 `json:"peak_live_objects" gate:"exact"`
	FinalLiveObjects uint64 `json:"final_live_objects" gate:"exact"`
}

// Structures measures section 4's data structures: the expected
// retention from a single false reference into balanced binary trees
// of several depths, then its unbounded-growth pathologies — a
// bounded-window queue and a memoising lazy stream, each pinned by a
// single false reference, with and without the paper's mitigation
// (clearing the link field on removal). It prints the trees and the
// queues and streams as two tables.
func Structures(opt StructuresOptions) (*BenchResult[StructuresOptions, StructureRow], *stats.Table, error) {
	if len(opt.Depths) == 0 {
		opt.Depths = []int{8, 12, 16}
	}
	if opt.Trials == 0 {
		opt.Trials = 2000
	}
	if opt.Window == 0 {
		opt.Window = 100
	}
	if opt.Steps == 0 {
		opt.Steps = 50000
	}
	res := &BenchResult[StructuresOptions, StructureRow]{Options: opt}
	trees := stats.NewTable("Section 4: balanced-tree retention from one false reference",
		"Depth", "Nodes", "Mean retained", "Theory (~height)")
	for _, d := range opt.Depths {
		w, err := NewWorld(Config{
			InitialHeapBytes: 16 << 20,
			ReserveHeapBytes: 64 << 20,
			GCDivisor:        -1,
		})
		if err != nil {
			return nil, nil, err
		}
		st, err := workload.MeasureTreeRetention(w, d, opt.Trials, opt.Seed)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, StructureRow{
			Structure:      "tree",
			Depth:          d,
			Nodes:          st.Nodes,
			MeanRetained:   st.MeanRetained,
			TheoryRetained: st.TheoryRetained,
		})
		trees.AddF(d, st.Nodes, fmtF(st.MeanRetained), fmtF(st.TheoryRetained))
	}

	world := func() (*World, *Segment, error) {
		w, err := NewWorld(Config{
			InitialHeapBytes: 4 << 20,
			ReserveHeapBytes: 64 << 20,
			GCDivisor:        -1,
		})
		if err != nil {
			return nil, nil, err
		}
		root, err := w.Space.MapNew("roots", KindData, 0x2000, 4096, 4096)
		return w, root, err
	}
	for _, clear := range []bool{false, true} {
		w, root, err := world()
		if err != nil {
			return nil, nil, err
		}
		q, err := workload.RunQueueChurn(w, opt.Window, opt.Steps, clear, root, 0x2000)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, StructureRow{
			Structure:        "queue + false ref",
			Mitigated:        clear,
			PeakLiveObjects:  q.PeakLiveObjects,
			FinalLiveObjects: q.FinalLiveObjects,
		})
	}
	for _, falseRef := range []bool{true, false} {
		w, root, err := world()
		if err != nil {
			return nil, nil, err
		}
		l, err := workload.RunLazyStream(w, opt.Steps, falseRef, root, 0x2000)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, StructureRow{
			Structure:        "lazy stream",
			Mitigated:        !falseRef,
			PeakLiveObjects:  l.PeakLiveObjects,
			FinalLiveObjects: l.FinalLiveObjects,
		})
	}
	queues := stats.NewTable("Section 4: unbounded structures pinned by one false reference",
		"Structure", "Mitigated?", "Peak live objects", "Final live objects")
	for _, r := range res.Rows[len(opt.Depths):] {
		queues.AddF(r.Structure, r.Mitigated, r.PeakLiveObjects, r.FinalLiveObjects)
	}
	res.More = []*stats.Table{queues}
	return res, trees, nil
}

func fmtF(f float64) string {
	return stats.Pct(f / 100) // reuse the 1-decimal formatter
}
