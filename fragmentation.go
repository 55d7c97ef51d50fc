package repro

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// FragmentationRow summarises one free-block policy's state after churn
// (E10).
type FragmentationRow struct {
	Policy           FreeBlockPolicy `json:"policy" gate:"key"`
	FreeSpans        int             `json:"free_spans" gate:"exact"`
	LargestFreeSpan  int             `json:"largest_free_span" gate:"exact"`  // blocks
	MaxAllocatableKB int             `json:"max_allocatable_kb" gate:"exact"` // largest single object placeable afterwards
	// Space buckets every committed byte (live, free slots, free
	// blocks, headers, large-object slack); Space.Sum() equals
	// Space.HeapBytes identically.
	Space alloc.SpaceBreakdown `json:"space" gate:"exact"`
	// Lines was the line heap's accounting; with the line heap folded
	// into the one small-object allocator it is always zero.
	Lines alloc.LineStats `json:"lines" gate:"exact"`
}

// FragmentationOptions configures the churn.
type FragmentationOptions struct {
	HeapBytes int    `json:"heap_bytes"` // default 16 MiB
	Rounds    int    `json:"rounds"`     // default 8
	Seed      uint64 `json:"seed"`
	// LineAlloc is passed to Config.LineAlloc, which selects nothing.
	LineAlloc bool `json:"line_alloc"`
	// SmallWords, when non-empty, interleaves small objects of these
	// word sizes with the block-span churn, so dedicated small blocks
	// appear in the space accounting. Empty keeps the paper's pure
	// block-span churn.
	SmallWords []int `json:"small_words"`
}

// Fragmentation operationalises the paper's concluding argument: "even
// a completely nonmoving conservative collector should gain a slight
// advantage over a malloc/free implementation, in that it is usually
// much less expensive to keep free lists sorted by address. This
// increases the probability that related objects are allocated
// together, and thus increases the probability of large chunks of
// adjacent space becoming available in the future, decreasing
// fragmentation."
//
// Both allocators run the same random allocate/free churn of block-
// sized objects; afterwards we compare the shape of the free store and
// the largest object each can still place.
func Fragmentation(opt FragmentationOptions) (*BenchResult[FragmentationOptions, FragmentationRow], *stats.Table, error) {
	if opt.HeapBytes == 0 {
		opt.HeapBytes = 16 << 20
	}
	if opt.Rounds == 0 {
		opt.Rounds = 8
	}

	run := func(policy FreeBlockPolicy) (*FragmentationRow, error) {
		space := mem.NewAddressSpace()
		a, err := alloc.New(space, alloc.Config{
			HeapBase:     0x400000,
			InitialBytes: opt.HeapBytes,
			ReserveBytes: opt.HeapBytes,
			FreeBlocks:   policy,
			LineAlloc:    opt.LineAlloc,
		})
		if err != nil {
			return nil, err
		}
		rng := simrand.New(opt.Seed)
		var live, small []mem.Addr
		for round := 0; round < opt.Rounds; round++ {
			// Allocate block-span objects of 1..4 blocks until ~70% full,
			// interleaving small objects when requested.
			for {
				if len(opt.SmallWords) > 0 {
					p, err := a.Alloc(opt.SmallWords[rng.Intn(len(opt.SmallWords))], false)
					if err != nil && !errors.Is(err, alloc.ErrNeedMemory) {
						return nil, err
					}
					if err == nil {
						small = append(small, p)
					}
				}
				blocks := 1 + rng.Intn(4)
				p, err := a.Alloc(blocks*mem.PageWords, false)
				if errors.Is(err, alloc.ErrNeedMemory) {
					break
				}
				if err != nil {
					return nil, err
				}
				live = append(live, p)
			}
			// Free a random 60% of each population.
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			keep := len(live) * 2 / 5
			for _, p := range live[keep:] {
				if err := a.Free(p); err != nil {
					return nil, err
				}
			}
			live = live[:keep]
			rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
			keepSmall := len(small) * 2 / 5
			for _, p := range small[keepSmall:] {
				if err := a.Free(p); err != nil {
					return nil, err
				}
			}
			small = small[:keepSmall]
		}
		// Probe the largest object still placeable.
		maxKB := 0
		for kb := 4; kb <= opt.HeapBytes/1024; kb *= 2 {
			p, err := a.Alloc(kb*1024/mem.WordBytes, false)
			if errors.Is(err, alloc.ErrNeedMemory) {
				break
			}
			if err != nil {
				return nil, err
			}
			maxKB = kb
			if err := a.Free(p); err != nil {
				return nil, err
			}
		}
		return &FragmentationRow{
			Policy:           policy,
			FreeSpans:        len(a.FreeSpans()),
			LargestFreeSpan:  a.LargestFreeSpan(),
			MaxAllocatableKB: maxKB,
			Space:            a.SpaceBreakdown(),
			Lines:            a.LineStats(),
		}, nil
	}

	res := &BenchResult[FragmentationOptions, FragmentationRow]{Options: opt}
	for _, policy := range []FreeBlockPolicy{AddressOrdered, LIFO} {
		r, err := run(policy)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *r)
	}
	tab := stats.NewTable("Conclusions: free-block policy vs fragmentation after churn",
		"Policy", "Free spans", "Largest span (blocks)", "Max allocatable")
	for _, r := range res.Rows {
		name := "address-ordered"
		if r.Policy == LIFO {
			name = "LIFO (malloc-like)"
		}
		tab.AddF(name, r.FreeSpans, r.LargestFreeSpan, fmt.Sprintf("%d KB", r.MaxAllocatableKB))
	}
	return res, tab, nil
}
