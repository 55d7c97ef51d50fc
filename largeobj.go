package repro

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// LargeObjectRow is one size's allocatability under a polluted
// blacklist (E8, the paper's observation 7).
type LargeObjectRow struct {
	ObjectKB         int `json:"object_kb" gate:"key"`
	CapacityInterior int `json:"capacity_interior" gate:"exact"` // objects placed before the heap refused
	CapacityOffPage  int `json:"capacity_off_page" gate:"exact"` // interior policy + AllocIgnoreOffPage promise
	CapacityBase     int `json:"capacity_base" gate:"exact"`     // with base-pointers-only validity
	CapacityIdeal    int `json:"capacity_ideal" gate:"exact"`    // with an empty blacklist
}

// LargeObjectsOptions configures the experiment.
type LargeObjectsOptions struct {
	HeapBytes int    `json:"heap_bytes"` // fixed heap size (default 8 MiB)
	FalseRefs int    `json:"false_refs"` // static false references into the heap (default 100)
	SizesKB   []int  `json:"sizes_kb"`   // object sizes to probe (default 50..800 KB)
	Seed      uint64 `json:"seed"`
}

// LargeObjects reproduces observation 7: "a quick examination of the
// blacklist in a statically linked SPARC executable suggests that if
// all interior pointers are considered valid, it becomes difficult to
// allocate individual objects larger than about 100 Kbytes... This is
// never a problem if addresses that do not point to the first page of
// an object can be considered invalid."
//
// A fixed-size heap is salted with static false references (about one
// blacklisted page per 80 KB, the density the paper describes), then
// packed with objects of one size until allocation fails. Interior
// mode must avoid whole spans; base mode only first pages; the ideal
// column uses no blacklist at all.
func LargeObjects(opt LargeObjectsOptions) (*BenchResult[LargeObjectsOptions, LargeObjectRow], *stats.Table, error) {
	if opt.HeapBytes == 0 {
		opt.HeapBytes = 8 << 20
	}
	if opt.FalseRefs == 0 {
		opt.FalseRefs = opt.HeapBytes / (80 * 1024) // ~1 per 80 KB
	}
	if len(opt.SizesKB) == 0 {
		opt.SizesKB = []int{50, 100, 200, 400, 800}
	}

	capacity := func(sizeKB int, pointer PointerPolicy, pollute, offPage bool) (int, error) {
		w, err := NewWorld(Config{
			HeapBase:         0x400000,
			InitialHeapBytes: opt.HeapBytes,
			ReserveHeapBytes: opt.HeapBytes,
			Pointer:          pointer,
			Blacklisting:     BlacklistDense,
			GCDivisor:        -1,
		})
		if err != nil {
			return 0, err
		}
		if pollute {
			seg, err := w.Space.MapNew("falserefs", KindData, 0x2000,
				opt.FalseRefs*WordBytes, opt.FalseRefs*WordBytes)
			if err != nil {
				return 0, err
			}
			rng := simrand.New(opt.Seed)
			for i := 0; i < opt.FalseRefs; i++ {
				v := uint32(w.Heap.Base()) + rng.Uint32n(uint32(opt.HeapBytes))
				if err := seg.Store(0x2000+Addr(4*i), Word(v)); err != nil {
					return 0, err
				}
			}
			w.Collect() // startup collection blacklists them
		}
		words := sizeKB * 1024 / WordBytes
		n := 0
		for {
			var err error
			if offPage {
				_, err = w.Heap.AllocIgnoreOffPage(words, false)
			} else {
				_, err = w.Heap.Alloc(words, false)
			}
			if errors.Is(err, alloc.ErrNeedMemory) {
				return n, nil
			}
			if err != nil {
				return 0, err
			}
			n++
		}
	}

	res := &BenchResult[LargeObjectsOptions, LargeObjectRow]{Options: opt}
	for _, kb := range opt.SizesKB {
		interior, err := capacity(kb, PointerInterior, true, false)
		if err != nil {
			return nil, nil, err
		}
		offPage, err := capacity(kb, PointerInterior, true, true)
		if err != nil {
			return nil, nil, err
		}
		base, err := capacity(kb, PointerBase, true, false)
		if err != nil {
			return nil, nil, err
		}
		ideal, err := capacity(kb, PointerInterior, false, false)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, LargeObjectRow{
			ObjectKB:         kb,
			CapacityInterior: interior,
			CapacityOffPage:  offPage,
			CapacityBase:     base,
			CapacityIdeal:    ideal,
		})
	}
	tab := stats.NewTable("Observation 7: large objects vs a polluted blacklist (objects placed in an 8 MiB heap)",
		"Object size", "Interior pointers", "Interior + ignore-off-page", "Base pointers only", "No blacklist")
	for _, r := range res.Rows {
		tab.AddF(fmt.Sprintf("%d KB", r.ObjectKB), r.CapacityInterior, r.CapacityOffPage, r.CapacityBase, r.CapacityIdeal)
	}
	return res, tab, nil
}
