package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/stats"
)

// programTSeeds is how many environments program_t builds at scale 1.
const programTSeeds = 250

// programTGroup is how many consecutive environments make a segment:
// they share one slowdown factor and one set of latency statistics.
const programTGroup = 10

// programTProfile returns the profile program_t runs. Below one seed's
// worth of work (tests) the lists shrink instead of the seed count.
func programTProfile(scale float64) (platform.Profile, int) {
	p := platform.SPARCStatic(false)
	p.NLists, p.InitialHeap, p.HeapReserve = 8, 1<<20, 4<<20
	seeds := scaled(programTSeeds, scale)
	if perSeed := scale * programTSeeds; perSeed < 1 {
		p.NodesPerList = scaled(p.NodesPerList, perSeed)
	}
	return p, seeds
}

// runProgramT runs the paper's own workload: per seed, build the
// polluted process image (that is the set-up) and time one RunProgramT
// call (that is the request). It is the only workload on the direct
// World.Allocate path, with machine frames, conservative root scanning
// of polluted statics and a busy blacklist.
func runProgramT(o options) (*result, error) {
	runtime.GOMAXPROCS(procs)
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	prof, seeds := programTProfile(o.scale)

	r := newResult("program_t", o)
	cal := newCalibrator(now)
	cyc := &cycleLog{now: now}
	r.cyc = cyc
	// A traced run plays the first three fifths of the environments, the
	// first fifth without spans.
	plan := make([]bool, seeds)
	var tr *tracer
	if o.traced {
		lead := max(1, seeds/5)
		plan = make([]bool, max(lead, seeds*3/5))
		for i := lead; i < len(plan); i++ {
			plan[i] = true
		}
		tr = newTracer(now, o.seed+16, 1<<28)
		cyc.tr = tr
	}
	allocsPerSeed := uint64(prof.NLists * (prof.NodesPerList + 2))
	var peaks []float64
	var blAdds, blQueries, blHits uint64
	var lastEnv *platform.Env
	// The running segment: its requests' latencies and time, and how many
	// of r.setups are its builds.
	var lat hist
	var seg segment
	var builds int
	r.segs = [][]segment{nil}

	for s, traced := range plan {
		lastEnv = nil
		runtime.GC()
		b0 := now()
		env, err := prof.Build(o.seed+uint64(s), true)
		if err != nil {
			return nil, fmt.Errorf("program_t: %w", err)
		}
		build := now() - b0
		env.World.SetCollectionHook(cyc.hook)
		cyc.peakHeap = 0
		before := readCounters(env.World, nil)

		q0 := now()
		if traced {
			tr.beginRequest()
			tr.begin(spRunProgramT)
		}
		res, err := env.RunProgramT()
		if traced {
			tr.end()
			tr.end()
		}
		ns := now() - q0
		if err != nil {
			return nil, fmt.Errorf("program_t: seed %d: %w", o.seed+uint64(s), err)
		}
		// There is no tape to interleave the reference kernel with: it
		// runs after each environment, and a segment's builds, requests
		// and cycles share the factor of all its samples.
		cal.burst()
		r.setups = append(r.setups, timed{ns: float64(build)})
		builds++
		lat.add(ns)
		seg.ns += ns
		seg.allocs += allocsPerSeed
		if last := s == len(plan)-1; lat.n == programTGroup || last || plan[s+1] != traced {
			seg.f, seg.fLow = cal.close()
			seg.lat = latStatsOf(&lat)
			for i := len(r.setups) - builds; i < len(r.setups); i++ {
				r.setups[i].f = seg.f
			}
			r.segs[0] = append(r.segs[0], seg)
			r.segTraced = append(r.segTraced, traced)
			lat.reset()
			seg, builds = segment{}, 0
		}
		r.wallNs += ns
		r.requests++

		after := readCounters(env.World, nil)
		r.ledger.add(before, after)
		if got := after.heap.ObjectsAllocated - before.heap.ObjectsAllocated; got != allocsPerSeed {
			return nil, fmt.Errorf("program_t: heap counted %d allocations, program T performs %d", got, allocsPerSeed)
		}
		if err := env.World.VerifyIntegrity(); err != nil {
			return nil, fmt.Errorf("program_t: VerifyIntegrity: %w", err)
		}
		if after.heap.DesperateAllocs != 0 {
			return nil, fmt.Errorf("program_t: %d desperate allocations", after.heap.DesperateAllocs)
		}
		r.allocs += allocsPerSeed
		r.stores += allocsPerSeed // one link store per node
		r.retainedLists += res.RetainedLists
		r.totalLists += res.TotalLists
		r.runCollections += res.Collections
		peaks = append(peaks, float64(cyc.peakHeap))
		blAdds += cyc.blacklist.Adds
		blQueries += cyc.blacklist.Queries
		blHits += cyc.blacklist.Hits
		lastEnv = env
	}
	cyc.stamp(cal)
	r.attempted = r.allocs + r.stores
	cyc.blacklist.Adds, cyc.blacklist.Queries, cyc.blacklist.Hits = blAdds, blQueries, blHits

	// The tape's live bytes are the lists program T builds; each seed
	// has its own heap, so the footprint is the median seed's peak.
	r.liveBytes = uint64(prof.NLists * prof.ListBytes())
	r.peakHeap = int(stats.Median(peaks))
	w := lastEnv.World
	r.liveObjects = w.Heap.Stats().ObjectsLive
	if o.traced {
		r.staticRootWords = w.Space.Segment("static").Size() / mem.WordBytes
		stack, _ := lastEnv.Machine.LiveStack()
		r.stackWords = len(stack)
		r.registers = len(lastEnv.Machine.Registers())
		r.probe(w, lastEnv.Machine, o.seed)
		r.requestSelf = tr.self[spRequest]
		r.spansRecorded, r.spansDropped = tr.recorded, tr.dropped
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, r.workload, o.seed, []*tracer{tr}); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}
