package repro

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// DualRunRow is one marking of the footnote-4 experiment (E11): a
// plain conservative mark ("single") or one with offset certification
// ("dual").
type DualRunRow struct {
	Run                string `json:"run" gate:"key"`
	ListsRetained      int    `json:"lists_retained" gate:"exact"`
	CandidatesRejected uint64 `json:"candidates_rejected" gate:"exact"` // 0 for the single run
}

// DualRunOptions configures the experiment.
type DualRunOptions struct {
	Lists        int    `json:"lists"`          // default 100
	NodesPerList int    `json:"nodes_per_list"` // default 2000
	FalseRoots   int    `json:"false_roots"`    // static false references (default 400)
	DeltaBytes   int    `json:"delta_bytes"`    // heap-base offset between the twin worlds (default 16 MiB)
	Seed         uint64 `json:"seed"`
}

// DualRun implements the paper's footnote 4: "under suitable conditions,
// we could run two copies of the same program with heap starting
// addresses that differ by n. Any two corresponding locations whose
// values do not differ by n are then known not to be pointers."
//
// Two identical worlds are built whose heaps differ by DeltaBytes; the
// same deterministic program runs in both. A plain conservative mark of
// world 1's polluted roots retains many dead lists; the certified mark
// — which accepts a root word only when the twin world's corresponding
// word differs by exactly DeltaBytes — rejects every static false
// reference and retains none.
func DualRun(opt DualRunOptions) (*BenchResult[DualRunOptions, DualRunRow], *stats.Table, error) {
	if opt.Lists == 0 {
		opt.Lists = 100
	}
	if opt.NodesPerList == 0 {
		opt.NodesPerList = 2000
	}
	if opt.FalseRoots == 0 {
		opt.FalseRoots = 400
	}
	if opt.DeltaBytes == 0 {
		opt.DeltaBytes = 16 << 20
	}
	delta := mem.Addr(opt.DeltaBytes)

	heapBytes := opt.Lists*opt.NodesPerList*WordBytes*2 + (4 << 20)
	build := func(base Addr) (*World, [][]Addr, error) {
		w, err := NewWorld(Config{
			HeapBase:         base,
			InitialHeapBytes: heapBytes,
			ReserveHeapBytes: heapBytes,
			Pointer:          PointerInterior,
			GCDivisor:        -1,
		})
		if err != nil {
			return nil, nil, err
		}
		// Identical pollution in both worlds: values relative to each
		// world's own static data are the same absolute numbers, so a
		// false reference into world 1's heap is NOT shifted in world 2
		// — that asymmetry is what certification detects.
		seg, err := w.Space.MapNew("polluted", KindData, 0x2000,
			opt.FalseRoots*WordBytes, opt.FalseRoots*WordBytes)
		if err != nil {
			return nil, nil, err
		}
		rng := simrand.New(opt.Seed)
		for i := 0; i < opt.FalseRoots; i++ {
			v := 0x400000 + rng.Uint32n(uint32(heapBytes))
			if err := seg.Store(0x2000+Addr(4*i), Word(v)); err != nil {
				return nil, nil, err
			}
		}
		// The deterministic program: build dead circular lists.
		var lists [][]Addr
		for i := 0; i < opt.Lists; i++ {
			var nodes []Addr
			var prev Addr
			var first Addr
			for j := 0; j < opt.NodesPerList; j++ {
				n, err := w.Allocate(1, false)
				if err != nil {
					return nil, nil, err
				}
				if prev == 0 {
					first = n
				} else if err := w.Store(prev, Word(n)); err != nil {
					return nil, nil, err
				}
				nodes = append(nodes, n)
				prev = n
			}
			if err := w.Store(prev, Word(first)); err != nil {
				return nil, nil, err
			}
			lists = append(lists, nodes)
		}
		return w, lists, nil
	}

	w1, lists1, err := build(0x400000)
	if err != nil {
		return nil, nil, err
	}
	w2, _, err := build(0x400000 + delta)
	if err != nil {
		return nil, nil, err
	}

	countRetained := func() int {
		retained := 0
		for _, nodes := range lists1 {
			if w1.Heap.Marked(nodes[0]) {
				retained++
			}
		}
		return retained
	}

	// Plain conservative mark of world 1.
	single, _ := func() (int, uint64) {
		w1.Marker.Reset()
		w1.Marker.MarkRootSegments(w1.Space)
		w1.Marker.Drain()
		n := countRetained()
		w1.Heap.ClearMarks()
		return n, 0
	}()

	// Certified mark: zip the twin root segments.
	s1 := w1.Space.Segment("polluted")
	s2 := w2.Space.Segment("polluted")
	if s1 == nil || s2 == nil {
		return nil, nil, fmt.Errorf("dualrun: root segments missing")
	}
	w1.Marker.Reset()
	var rejected uint64
	words1, words2 := s1.Words(), s2.Words()
	for i := range words1 {
		v1, v2 := words1[i], words2[i]
		if v2-v1 == Word(delta) {
			w1.Marker.MarkValue(v1)
		} else if w1.Heap.InVicinity(Addr(v1)) {
			rejected++
		}
	}
	w1.Marker.Drain()
	dual := countRetained()
	w1.Heap.ClearMarks()

	tab := stats.NewTable("Footnote 4: dual-run offset certification",
		"Configuration", "Lists retained", "Candidates rejected")
	tab.AddF("single run, conservative", single, "-")
	tab.AddF(fmt.Sprintf("dual run, delta=%d MB", opt.DeltaBytes>>20), dual, rejected)
	return &BenchResult[DualRunOptions, DualRunRow]{Options: opt, Rows: []DualRunRow{
		{Run: "single", ListsRetained: single},
		{Run: "dual", ListsRetained: dual, CandidatesRejected: rejected},
	}}, tab, nil
}
