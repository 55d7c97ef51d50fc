package main

import (
	"time"

	"repro/internal/blacklist"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// Layer probes run after a traced tape, on the settled world with its
// roots still in place. Each is repeated three times and the median
// kept. They read the workload's heap but never write it; probes that
// must allocate do so on a fresh world of the same Config.

const (
	probeReps = 3
	probeOps  = 1 << 20
	probeObjs = 1 << 17 // allocation probes: objects (or slots) per repetition
)

// sink keeps probe loops from being optimised away.
var sink uint64

// timeOps returns the median nanoseconds per operation of three runs of
// fn, which reports how many operations it performed. A run that has
// set-up of its own calls start when the set-up is done.
func timeOps(fn func(start func()) int) float64 {
	v := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		n := fn(func() { t0 = time.Now() })
		ns := time.Since(t0).Nanoseconds()
		if n > 0 {
			v = append(v, float64(ns)/float64(n))
		}
	}
	return stats.Median(v)
}

// probe fills r.probes. m is program_t's last machine, nil elsewhere.
func (r *result) probe(w *core.World, m *machine.Machine, seed uint64) {
	rng := simrand.New(seed + 32)
	p := r.probes
	probeMem(p, rng)
	probeBlacklist(p, w.Config(), rng)
	probeFindObject(p, w, rng)
	probeAlloc(p, w.Config())

	p["mark.mark_only_ns_per_object"] = timeOps(func(func()) int {
		objects, _ := w.MarkOnly()
		return int(objects)
	})
	p["core.verify_integrity_ms"] = timeOps(func(func()) int {
		if err := w.VerifyIntegrity(); err != nil {
			return 0
		}
		return 1
	}) / 1e6
	if m != nil {
		p["machine.push_pop_ns"] = timeOps(func(func()) int {
			for i := 0; i < probeObjs; i++ {
				if _, err := m.PushFrame(8); err != nil {
					return i
				}
				if err := m.PopFrame(); err != nil {
					return i
				}
			}
			return probeObjs
		})
	} else {
		p["machine.push_pop_ns"] = 0
	}
}

// probeMem times word loads and stores on a 4 MiB segment mapped among
// three others, so that the address-space form pays a real lookup.
func probeMem(p map[string]float64, rng *simrand.Rand) {
	const segBytes = 4 << 20
	space := mem.NewAddressSpace()
	var seg *mem.Segment
	for i, name := range []string{"low", "probe", "high", "higher"} {
		s, err := space.MapNew(name, mem.KindOther, mem.Addr(0x100000+i*2*segBytes), segBytes, segBytes)
		if err != nil {
			return
		}
		if name == "probe" {
			seg = s
		}
	}
	tape := make([]mem.Addr, probeOps)
	for i := range tape {
		tape[i] = seg.Base() + mem.Addr(rng.Intn(segBytes/mem.WordBytes)*mem.WordBytes)
	}
	p["mem.load_ns"] = timeOps(func(func()) int {
		for _, a := range tape {
			v, _ := seg.Load(a)
			sink += uint64(v)
		}
		return len(tape)
	})
	p["mem.store_ns"] = timeOps(func(func()) int {
		for _, a := range tape {
			_ = seg.Store(a, mem.Word(a)) // every tape address is in the segment
		}
		return len(tape)
	})
	p["mem.space_load_ns"] = timeOps(func(func()) int {
		for _, a := range tape {
			v, _ := space.Load(a)
			sink += uint64(v)
		}
		return len(tape)
	})
}

// newBlacklist builds a fresh list of the world's mode and geometry,
// the way core.NewWorld does.
func newBlacklist(cfg core.Config) blacklist.List {
	var bl blacklist.List
	var err error
	switch cfg.Blacklisting {
	case core.BlacklistDense:
		bl, err = blacklist.NewDense(cfg.HeapBase, cfg.HeapBase+mem.Addr(cfg.ReserveHeapBytes), cfg.Granule)
	case core.BlacklistHashed:
		bl, err = blacklist.NewHashed(cfg.HashBuckets, cfg.Granule)
	}
	if bl == nil || err != nil {
		return blacklist.Disabled{}
	}
	return bl
}

// probeBlacklist times add, contains and contains-range over a tape of
// addresses in the heap's reservation; every second granule is present.
func probeBlacklist(p map[string]float64, cfg core.Config, rng *simrand.Rand) {
	tape := make([]mem.Addr, probeOps)
	for i := range tape {
		tape[i] = cfg.HeapBase + mem.Addr(rng.Intn(cfg.ReserveHeapBytes/mem.WordBytes)*mem.WordBytes)
	}
	present := func(a mem.Addr) bool { return (uint32(a)/cfg.Granule)&1 == 0 }
	var bl blacklist.List
	p["blacklist.add_ns"] = timeOps(func(start func()) int {
		bl = newBlacklist(cfg)
		start()
		n := 0
		for _, a := range tape {
			if present(a) {
				bl.Add(a)
				n++
			}
		}
		return n
	})
	p["blacklist.contains_ns"] = timeOps(func(func()) int {
		for _, a := range tape {
			if bl.Contains(a) {
				sink++
			}
		}
		return len(tape)
	})
	p["blacklist.contains_range_ns"] = timeOps(func(func()) int {
		for _, a := range tape {
			if bl.ContainsRange(a, a+mem.PageBytes) {
				sink++
			}
		}
		return len(tape)
	})
}

// probeFindObject times the pointer validity test on the world's own
// heap: hits are live bases (and interiors where the policy accepts
// them), misses are addresses in the heap's hull that resolve to
// nothing.
func probeFindObject(p map[string]float64, w *core.World, rng *simrand.Rand) {
	interior := w.Config().Pointer == mark.PointerInterior
	var bases []mem.Addr
	w.Heap.ForEachObject(func(base mem.Addr) { bases = append(bases, base) })
	lo, hi := w.Heap.Hull()
	hits := make([]mem.Addr, 0, probeOps)
	misses := make([]mem.Addr, 0, probeOps)
	for i := 0; i < probeOps && len(bases) > 0; i++ {
		a := bases[rng.Intn(len(bases))]
		if interior {
			words, _ := w.Heap.ObjectSpan(a)
			a += mem.Addr(rng.Intn(words) * mem.WordBytes)
		}
		hits = append(hits, a)
	}
	for i := 0; i < 4*probeOps && len(misses) < probeOps; i++ {
		a := lo + mem.Addr(rng.Intn(int(hi-lo)/mem.WordBytes)*mem.WordBytes)
		if _, ok := w.Heap.FindObject(a, interior); !ok {
			misses = append(misses, a)
		}
	}
	find := func(tape []mem.Addr) float64 {
		return timeOps(func(func()) int {
			for _, a := range tape {
				if _, ok := w.Heap.FindObject(a, interior); ok {
					sink++
				}
			}
			return len(tape)
		})
	}
	p["alloc.find_object_hit_ns"] = find(hits)
	p["alloc.find_object_miss_ns"] = find(misses)
}

// probeAlloc times the allocator's two entry points on fresh worlds of
// the workload's Config: one object at a time, and a mutator cache's
// batched carve (a bump span under LineAlloc), per slot carved.
func probeAlloc(p map[string]float64, cfg core.Config) {
	const words = 4
	p["alloc.direct_alloc_ns"] = timeOps(func(start func()) int {
		w, err := core.NewWorld(nil, cfg)
		if err != nil {
			return 0
		}
		start()
		for i := 0; i < probeObjs; i++ {
			if _, err := w.Heap.Alloc(words, false); err != nil {
				return i
			}
		}
		return probeObjs
	})
	p["alloc.alloc_run_ns_per_slot"] = timeOps(func(start func()) int {
		w, err := core.NewWorld(nil, cfg)
		if err != nil {
			return 0
		}
		buf := make([]mem.Addr, 0, 32)
		start()
		n := 0
		for n < probeObjs {
			if cfg.LineAlloc {
				s, err := w.Heap.AllocSpan(words, false)
				if err != nil {
					break
				}
				n += int(s.Limit-s.Cursor) / (words * mem.WordBytes)
				continue
			}
			run, err := w.Heap.AllocRun(words, false, cap(buf), buf[:0])
			if err != nil {
				break
			}
			n += len(run)
		}
		return n
	})
}
