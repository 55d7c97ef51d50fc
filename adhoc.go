package repro

import (
	"fmt"

	"repro/internal/simrand"
	"repro/internal/stats"
)

// PlacementRow is one heap position's misidentification result (E13).
type PlacementRow struct {
	Label         string `json:"label" gate:"key"`
	HeapBase      Addr   `json:"heap_base" gate:"exact"`
	Misidentified uint64 `json:"misidentified" gate:"exact"` // garbage objects retained by the polluted roots
	BytesRetained uint64 `json:"bytes_retained" gate:"exact"`
}

// HeapPlacementOptions configures the experiment.
type HeapPlacementOptions struct {
	RootWords     int    `json:"root_words"`      // polluted root words per category (default 16384)
	HeapFillBytes int    `json:"heap_fill_bytes"` // garbage objects exposed to the roots (default 4 MiB)
	Seed          uint64 `json:"seed"`
}

// HeapPlacement reproduces section 2's ad-hoc advice: "an adequate
// solution sometimes consists of properly positioning the heap in the
// address space. If the high order bits of addresses are neither all
// zeros or all ones, then conflicts with integer data are unlikely.
// Similarly, likely character codes and floating point values can be
// avoided."
//
// The same root pollution — small integers, negative counters, ASCII
// text, and common IEEE-754 floats — is scanned against a garbage heap
// placed at four different bases. Each base collides with exactly one
// category, except the recommended high placement, which collides with
// none.
func HeapPlacement(opt HeapPlacementOptions) (*BenchResult[HeapPlacementOptions, PlacementRow], *stats.Table, error) {
	if opt.RootWords == 0 {
		opt.RootWords = 8192
	}
	if opt.HeapFillBytes == 0 {
		opt.HeapFillBytes = 4 << 20
	}
	placements := []struct {
		label string
		base  Addr
	}{
		{"low (integer range)", 0x00040000},
		{"float range (1.0..64.0)", 0x3F800000},
		{"ASCII text range", 0x61000000},
		{"high, mixed bits (recommended)", 0xA0000000},
	}
	res := &BenchResult[HeapPlacementOptions, PlacementRow]{Options: opt}
	for _, pl := range placements {
		row, err := placementRun(opt, pl.label, pl.base)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	tab := stats.NewTable("Section 2: heap placement vs misidentification from typical data",
		"Heap base", "Address", "Objects retained", "KB retained")
	for _, r := range res.Rows {
		tab.AddF(r.Label, fmt.Sprintf("%#08x", uint32(r.HeapBase)), r.Misidentified, r.BytesRetained/1024)
	}
	return res, tab, nil
}

func placementRun(opt HeapPlacementOptions, label string, base Addr) (*PlacementRow, error) {
	w, err := NewWorld(Config{
		HeapBase:         base,
		InitialHeapBytes: opt.HeapFillBytes + (1 << 20),
		ReserveHeapBytes: opt.HeapFillBytes + (8 << 20),
		Pointer:          PointerInterior, // the unfavourable operating point
		GCDivisor:        -1,
	})
	if err != nil {
		return nil, err
	}
	seg, err := w.Space.MapNew("typicaldata", KindData, 0x2000,
		4*opt.RootWords*WordBytes, 4*opt.RootWords*WordBytes)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(opt.Seed)
	off := Addr(0x2000)
	store := func(v uint32) error {
		err := seg.Store(off, Word(v))
		off += WordBytes
		return err
	}
	for i := 0; i < opt.RootWords; i++ {
		// Small counters and sizes.
		if err := store(rng.Uint32n(1 << 20)); err != nil {
			return nil, err
		}
		// Small negative numbers (two's complement: 0xFFFF....).
		if err := store(uint32(-(1 + int32(rng.Uint32n(1<<20))))); err != nil {
			return nil, err
		}
		// Four printable ASCII characters.
		text := uint32(rng.PrintableByte())<<24 | uint32(rng.PrintableByte())<<16 |
			uint32(rng.PrintableByte())<<8 | uint32(rng.PrintableByte())
		if err := store(text); err != nil {
			return nil, err
		}
		// Common float magnitudes: 1.0..64.0 single precision, whose bit
		// patterns occupy 0x3F800000..0x42800000.
		f := uint32(0x3F800000) + rng.Uint32n(0x03000000)
		if err := store(f); err != nil {
			return nil, err
		}
	}
	// Garbage heap for the roots to falsely retain.
	for n := 0; n < opt.HeapFillBytes; n += WordBytes {
		if _, err := w.Allocate(1, false); err != nil {
			return nil, err
		}
	}
	objs, bytes := w.MarkOnly()
	return &PlacementRow{
		Label:         label,
		HeapBase:      base,
		Misidentified: objs,
		BytesRetained: bytes,
	}, nil
}

// AtomicRow is one configuration of the pointer-free allocation
// experiment (E14).
type AtomicRow struct {
	Atomic        bool   `json:"atomic" gate:"key"`
	DeadRetained  uint64 `json:"dead_retained" gate:"exact"`  // dead list cells pinned by bitmap contents
	FieldsScanned uint64 `json:"fields_scanned" gate:"exact"` // heap words the marker had to examine
	BytesRetained uint64 `json:"bytes_retained" gate:"exact"`
}

// AtomicDataOptions configures the experiment.
type AtomicDataOptions struct {
	Bitmaps     int    `json:"bitmaps"`      // number of "compressed bitmaps" (default 16)
	BitmapBytes int    `json:"bitmap_bytes"` // size of each (default 128 KiB)
	DeadCells   int    `json:"dead_cells"`   // dead cons cells exposed (default 50000)
	Seed        uint64 `json:"seed"`
}

// AtomicData reproduces section 2's requirement that "it is essential
// to provide some way to communicate to the collector at least the
// fact that an entire large object contains no pointers. Otherwise
// certain kinds of objects (most notably large amounts of compressed
// data, such as compressed bitmaps) introduce false pointers with
// excessively high probability."
//
// Live "compressed bitmaps" full of random bytes share the heap with a
// large dead structure. Allocated as ordinary objects their contents
// are scanned and pin much of the dead structure; allocated atomically
// they pin nothing and the marker does far less work.
func AtomicData(opt AtomicDataOptions) (*BenchResult[AtomicDataOptions, AtomicRow], *stats.Table, error) {
	if opt.Bitmaps == 0 {
		opt.Bitmaps = 16
	}
	if opt.BitmapBytes == 0 {
		opt.BitmapBytes = 128 * 1024
	}
	if opt.DeadCells == 0 {
		opt.DeadCells = 50000
	}
	res := &BenchResult[AtomicDataOptions, AtomicRow]{Options: opt}
	for _, atomic := range []bool{false, true} {
		row, err := atomicRun(opt, atomic)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	tab := stats.NewTable("Section 2: compressed data as ordinary vs pointer-free objects",
		"Allocation", "Dead cells retained", "Heap words scanned", "KB retained")
	for _, r := range res.Rows {
		label := "ordinary (scanned)"
		if r.Atomic {
			label = "atomic (pointer-free)"
		}
		tab.AddF(label, r.DeadRetained, r.FieldsScanned, r.BytesRetained/1024)
	}
	return res, tab, nil
}

func atomicRun(opt AtomicDataOptions, atomic bool) (*AtomicRow, error) {
	heapBytes := opt.Bitmaps*opt.BitmapBytes + opt.DeadCells*8 + (4 << 20)
	w, err := NewWorld(Config{
		InitialHeapBytes: heapBytes,
		ReserveHeapBytes: heapBytes * 2,
		Pointer:          PointerInterior,
		GCDivisor:        -1,
	})
	if err != nil {
		return nil, err
	}
	root, err := w.Space.MapNew("bitmaps", KindData, 0x2000, 4096, 4096)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(opt.Seed)

	// The dead structure: cons cells chained into lists, then dropped.
	var dead []Addr
	var prev Addr
	for i := 0; i < opt.DeadCells; i++ {
		cell, err := w.Allocate(2, false)
		if err != nil {
			return nil, err
		}
		if prev != 0 {
			if err := w.Store(prev+4, Word(cell)); err != nil {
				return nil, err
			}
		}
		dead = append(dead, cell)
		prev = cell
	}

	// Live compressed bitmaps: high-entropy words, exactly the content
	// the paper warns about. Their values are drawn uniformly over the
	// committed heap's span so that, when scanned, they point everywhere.
	heapLo, heapHi := uint32(w.Heap.Base()), uint32(w.Heap.Limit())
	for i := 0; i < opt.Bitmaps; i++ {
		bm, err := w.Allocate(opt.BitmapBytes/WordBytes, atomic)
		if err != nil {
			return nil, err
		}
		for wd := 0; wd < opt.BitmapBytes/WordBytes; wd++ {
			v := rng.Uint32()
			if v%4 == 0 { // a quarter of the entropy lands heap-shaped
				v = heapLo + v%(heapHi-heapLo)
			}
			if err := w.Store(bm+Addr(4*wd), Word(v)); err != nil {
				return nil, err
			}
		}
		if err := root.Store(0x2000+Addr(4*i), Word(bm)); err != nil {
			return nil, err
		}
	}

	w.Collect()
	st := w.LastCollection()
	var retained uint64
	for _, cell := range dead {
		if w.Heap.IsAllocated(cell) {
			retained++
		}
	}
	return &AtomicRow{
		Atomic:        atomic,
		DeadRetained:  retained,
		FieldsScanned: st.Mark.FieldsScanned,
		BytesRetained: st.Sweep.BytesLive,
	}, nil
}
