package repro

import (
	"fmt"

	"repro/internal/simrand"
	"repro/internal/stats"
)

// Figure1Row is one configuration of the figure-1 experiment (E2).
type Figure1Row struct {
	Alignment        AlignPolicy `json:"alignment" gate:"key"`
	SkipBoundarySlot bool        `json:"skip_boundary_slot" gate:"key"`
	Candidates       uint64      `json:"candidates" gate:"exact"`    // candidate values tested during the root scan
	Misidentified    uint64      `json:"misidentified" gate:"exact"` // garbage objects retained by false references
	BytesRetained    uint64      `json:"bytes_retained" gate:"exact"`
	Blacklisted      int         `json:"blacklisted" gate:"exact"` // pages blacklisted by near-heap misses
}

// Figure1Options configures the experiment.
type Figure1Options struct {
	// StaticWords of small integers (< 4096) scanned as roots
	// (default 16384 = 64 KiB of counters and table entries).
	StaticWords int `json:"static_words"`
	// HeapFillBytes of garbage 1-word objects to expose (default 3 MiB).
	HeapFillBytes int    `json:"heap_fill_bytes"`
	Seed          uint64 `json:"seed"`
}

// Figure1 reproduces the paper's figure 1: "two small integers turn
// into the address (hex) 00090000". A static segment holds only small
// integers — harmless to a word-aligned scan — yet when the collector
// must consider every byte offset, the concatenation of the low half
// of one integer with the high half of the next forms addresses of the
// form h<<16, which land in the heap.
//
// The experiment scans the same polluted roots over a garbage-filled
// heap under three configurations: word-aligned candidates, any byte
// offset, and any byte offset with the allocator declining to place
// objects at block boundaries — the paper's observation that the
// "impact of this problem can be greatly reduced if objects are not
// allocated at addresses containing a large number of trailing zeroes"
// (all the concatenated addresses here end in 16 zero bits).
func Figure1(opt Figure1Options) (*BenchResult[Figure1Options, Figure1Row], *stats.Table, error) {
	if opt.StaticWords == 0 {
		opt.StaticWords = 16384
	}
	if opt.HeapFillBytes == 0 {
		opt.HeapFillBytes = 3 << 20
	}

	configs := []struct {
		align AlignPolicy
		skip  bool
	}{
		{AlignedWords, false},
		{AnyByteOffset, false},
		{AnyByteOffset, true},
	}
	res := &BenchResult[Figure1Options, Figure1Row]{Options: opt}
	for _, cfg := range configs {
		row, err := figure1Run(opt, cfg.align, cfg.skip)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
	}

	tab := stats.NewTable("Figure 1: small-integer concatenation misidentification",
		"Candidate alignment", "Skip boundary slots", "Candidates", "Objects retained", "Pages blacklisted")
	for _, r := range res.Rows {
		tab.AddF(r.Alignment, r.SkipBoundarySlot, r.Candidates, r.Misidentified, r.Blacklisted)
	}
	return res, tab, nil
}

func figure1Run(opt Figure1Options, align AlignPolicy, skip bool) (*Figure1Row, error) {
	// Heap at 1 MiB: with all static values < 4096, only the offset-2
	// concatenation h<<16 can reach it (h<<8 stays below 1 MiB, h<<24
	// overshoots a sub-16 MiB heap), which is exactly figure 1's shape.
	w, err := NewWorld(Config{
		HeapBase:             0x100000,
		InitialHeapBytes:     4 << 20,
		ReserveHeapBytes:     8 << 20,
		Pointer:              PointerBase,
		Alignment:            align,
		Blacklisting:         BlacklistDense,
		GCDivisor:            -1,
		SkipPageBoundarySlot: skip,
	})
	if err != nil {
		return nil, err
	}
	seg, err := w.Space.MapNew("smallints", KindData, 0x2000,
		opt.StaticWords*WordBytes, opt.StaticWords*WordBytes)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(opt.Seed)
	for i := 0; i < opt.StaticWords; i++ {
		if err := seg.Store(0x2000+Addr(4*i), Word(rng.Uint32n(4096))); err != nil {
			return nil, err
		}
	}
	// Fill the heap with unreferenced 1-word objects.
	for allocated := 0; allocated < opt.HeapFillBytes; allocated += WordBytes {
		if _, err := w.Allocate(1, false); err != nil {
			return nil, fmt.Errorf("figure1 fill: %w", err)
		}
	}
	// One marking pass over the roots.
	objs, bytes := w.MarkOnly()
	st := w.Marker.Stats()
	return &Figure1Row{
		Alignment:        align,
		SkipBoundarySlot: skip,
		Candidates:       st.Candidates,
		Misidentified:    objs,
		BytesRetained:    bytes,
		Blacklisted:      w.Blacklist.Len(),
	}, nil
}
