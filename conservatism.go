package repro

import (
	"repro/internal/alloc"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// DescID identifies a registered typed-object layout.
type DescID = alloc.DescID

// ConservatismRow is one heap-scanning regime's result (E15).
type ConservatismRow struct {
	Regime        string `json:"regime" gate:"key"`
	DeadRetained  uint64 `json:"dead_retained" gate:"exact"`  // garbage pinned by the live structure's data words
	FieldsScanned uint64 `json:"fields_scanned" gate:"exact"` // heap words examined during the mark
	LiveObjects   uint64 `json:"live_objects" gate:"exact"`
}

// ConservatismOptions configures the experiment.
type ConservatismOptions struct {
	Nodes     int    `json:"nodes"`      // live list nodes (default 30000)
	DeadCells int    `json:"dead_cells"` // dead objects exposed (default 30000)
	Seed      uint64 `json:"seed"`
}

// DegreesOfConservatism measures the spectrum the paper's introduction
// describes: implementations "vary greatly in their degree of
// conservativism, i.e. in how much information about data structure
// layout they maintain. Some maintain complete information on the
// location of pointers in the heap, and only scan the stack
// conservatively. Others also treat the heap conservatively."
//
// A live linked structure whose nodes carry a pointer and a random
// integer payload shares the heap with a large dead structure. Under
// fully conservative heap scanning the payloads act as false
// references into the dead structure; with registered layout
// descriptors (typed allocation) the payload words are never examined.
func DegreesOfConservatism(opt ConservatismOptions) (*BenchResult[ConservatismOptions, ConservatismRow], *stats.Table, error) {
	if opt.Nodes == 0 {
		opt.Nodes = 30000
	}
	if opt.DeadCells == 0 {
		opt.DeadCells = 30000
	}
	res := &BenchResult[ConservatismOptions, ConservatismRow]{Options: opt}
	for _, typed := range []bool{false, true} {
		row, err := conservatismRun(opt, typed)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	tab := stats.NewTable("Introduction: degrees of conservativism (heap scanning)",
		"Heap regime", "Dead objects retained", "Heap words scanned")
	for _, r := range res.Rows {
		tab.AddF(r.Regime, r.DeadRetained, r.FieldsScanned)
	}
	return res, tab, nil
}

func conservatismRun(opt ConservatismOptions, typed bool) (*ConservatismRow, error) {
	heapBytes := (opt.Nodes*3+opt.DeadCells)*2*WordBytes + (2 << 20)
	w, err := NewWorld(Config{
		InitialHeapBytes: heapBytes,
		ReserveHeapBytes: 2 * heapBytes,
		Pointer:          PointerInterior,
		GCDivisor:        -1,
	})
	if err != nil {
		return nil, err
	}
	root, err := w.Space.MapNew("roots", KindData, 0x2000, 4096, 4096)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(opt.Seed)

	// The dead structure, exposed first so its addresses are in range
	// of the live payloads.
	var dead []Addr
	for i := 0; i < opt.DeadCells; i++ {
		cell, err := w.Allocate(2, false)
		if err != nil {
			return nil, err
		}
		dead = append(dead, cell)
	}

	// The live structure: node = (next pointer, integer payload drawn
	// from a range that overlaps the heap).
	var layout DescID
	if typed {
		layout, err = w.RegisterLayout([]bool{true, false})
		if err != nil {
			return nil, err
		}
	}
	heapLo, heapHi := uint32(w.Heap.Base()), uint32(w.Heap.Limit())
	var head Addr
	for i := 0; i < opt.Nodes; i++ {
		var node Addr
		if typed {
			node, err = w.AllocateTyped(layout)
		} else {
			node, err = w.Allocate(2, false)
		}
		if err != nil {
			return nil, err
		}
		if err := w.Store(node, Word(head)); err != nil {
			return nil, err
		}
		// The payload: "seemingly random integer values" that often
		// land heap-shaped, like sizes, hashes, packed flags.
		payload := rng.Uint32()
		if payload%2 == 0 {
			payload = heapLo + payload%(heapHi-heapLo)
		}
		if err := w.Store(node+4, Word(payload)); err != nil {
			return nil, err
		}
		head = node
	}
	if err := root.Store(0x2000, Word(head)); err != nil {
		return nil, err
	}

	st := w.Collect()
	var retained uint64
	for _, cell := range dead {
		if w.Heap.IsAllocated(cell) {
			retained++
		}
	}
	regime := "conservative heap"
	if typed {
		regime = "typed heap (exact layouts)"
	}
	return &ConservatismRow{
		Regime:        regime,
		DeadRetained:  retained,
		FieldsScanned: st.Mark.FieldsScanned,
		LiveObjects:   st.Sweep.ObjectsLive,
	}, nil
}
