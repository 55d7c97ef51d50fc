package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// options are what one run of one workload is asked to do.
type options struct {
	seed uint64
	// scale multiplies every operation count of the tape: 1 is the tape
	// BENCHMARK.json's run_seconds was sized for. World sizes (root
	// slots, preloaded nodes, tenants) do not scale.
	scale    float64
	traced   bool
	traceOut string
	// heapMult, when non-zero, fixes the heap at this multiple of the
	// tape's nominal live bytes (InitialHeapBytes == ReserveHeapBytes):
	// the -heapx space–time mode.
	heapMult float64
	// wallClock reports durations as the wall clock saw them, not on the
	// calibrated clock (calib.go). The reference kernel runs all the same.
	wallClock bool
	// dump adds every segment's and cycle's wall-clock values and factors
	// to the summary line.
	dump bool
}

const (
	// timedSegments is how many equal pieces the timed tape is played
	// in; each has a slowdown factor of its own (calib.go).
	timedSegments = 50
	// A traced run plays the first tracedSegments of them, the first
	// untracedLead without spans.
	tracedSegments = 30
	untracedLead   = 10
	setUps         = 3
	warmUpShare    = 10 // the warm-up is 1/10 of the timed tape
	rootsBase      = mem.Addr(0x2000)
	procs          = 2
)

// A spec describes one of the four tape workloads (program_t has its
// own driver). The fields are plain values so that tests can shrink a
// copy.
type spec struct {
	name   string
	config core.Config
	// requests is the timed tape length per worker at scale 1.
	requests int
	// nominalLive is the designed live size in bytes, the unit of the
	// -heapx axis.
	nominalLive int
	// build constructs a fresh world with its roots, handles and
	// preloaded data, up to but not including the warm-up.
	build func(sp *spec, cfg core.Config, seed uint64) (*tape, error)
	// Sizes the builders read.
	slots, tenants, nodes int
	// minConcurrent is the share of cycles that must report Concurrent
	// (catches the silent fall-back to stop-the-world cycles).
	minConcurrent float64
}

// A tape is one built world with the workers that drive it.
type tape struct {
	sp      *spec
	w       *core.World
	roots   *mem.Segment // every root slot the harness owns
	workers []*worker
	muts    []*core.Mutator
	tenants []*core.Tenant
	cyc     cycleLog
	cycOn   atomic.Bool
	// reach checks that no object the tape still reaches was freed.
	reach func() error
}

// A segment is one piece of one worker's timed tape, on the wall clock:
// the time its requests took, what they allocated, their latencies, and
// the slowdown factor the worker measured meanwhile.
type segment struct {
	ns      int64
	allocs  uint64
	f, fLow float64
	lat     latStats
}

// latStats are one segment's request latencies in nanoseconds: the
// median, the mean of the slowest 1 % and the p99. The run reports the
// median of each over its segments, so that a stall of the whole machine
// — they come a few times an hour and last a tenth of a second or more —
// colours one segment's tail and not the run's.
type latStats struct{ p50, tail1, p99 float64 }

func latStatsOf(h *hist) latStats {
	return latStats{h.quantile(0.5), h.tailMean(0.01), h.quantile(0.99)}
}

// on returns the statistics on the calibrated clock, measured while the
// kernel's factor was f and its low factor fLow.
func (l latStats) on(f, fLow float64, g gammas) latStats {
	p50 := timed{timed{l.p50, f}.on(g.p50), fLow}.on(g.p50Low)
	return latStats{p50, timed{l.tail1, f}.on(g.tail), timed{l.p99, f}.on(g.tail)}
}

// A worker is one closed-loop client: its next request starts when the
// previous one returns.
type worker struct {
	roots   *mem.Segment
	rng     *simrand.Rand
	request func(tr *tracer)
	tr      *tracer // traced runs only
	cal     *calibrator

	// lat collects the running segment's request latencies on the wall
	// clock.
	lat                               hist
	attempted, failed, allocs, stores uint64
	requests                          uint64
	segs                              []segment
}

func newWorker(roots *mem.Segment, seed uint64) *worker {
	return &worker{roots: roots, rng: simrand.New(seed), segs: make([]segment, 0, timedSegments)}
}

// alloc is the harness's one call site for rooted allocation.
func (wk *worker) alloc(m *core.Mutator, slot mem.Addr, nwords int, tr *tracer) mem.Addr {
	if tr != nil {
		tr.begin(spAlloc)
	}
	p, err := m.AllocateRooted(wk.roots, slot, nwords, false)
	if tr != nil {
		tr.end()
	}
	wk.attempted++
	if err != nil {
		wk.failed++
		return 0
	}
	wk.allocs++
	return p
}

// store is the harness's one call site for stores. Root slots are
// written through the handle too: a direct segment write could race
// with a root scan started by another goroutine.
func (wk *worker) store(m *core.Mutator, a mem.Addr, v mem.Word, k spanKind, tr *tracer) {
	if tr != nil {
		tr.begin(k)
	}
	err := m.Store(a, v)
	if tr != nil {
		tr.end()
	}
	wk.attempted++
	if err != nil {
		wk.failed++
		return
	}
	if k == spStore {
		wk.stores++
	}
}

// drive issues n requests back to back and returns the time they took.
// One clock reading per request: a request's end is the next one's
// start. Every probeEveryNs it times the reference kernel, which is
// left out of the requests' time.
func (wk *worker) drive(n int, now func() int64, tr *tracer, lat *hist) int64 {
	var busy int64
	prev := now()
	nextProbe := prev + probeEveryNs
	for i := 0; i < n; i++ {
		if tr != nil {
			tr.beginRequest()
		}
		wk.request(tr)
		if tr != nil {
			tr.end()
		}
		t := now()
		busy += t - prev
		if lat != nil {
			lat.add(t - prev)
		}
		prev = t
		if t >= nextProbe {
			wk.cal.probe()
			prev = now()
			nextProbe = prev + probeEveryNs
		}
	}
	wk.requests += uint64(n)
	return busy
}

func (wk *worker) resetCounts() {
	wk.attempted, wk.failed, wk.allocs, wk.stores, wk.requests = 0, 0, 0, 0, 0
}

// each runs fn for every worker, on its own goroutine when there is
// more than one, and waits.
func (tp *tape) each(fn func(wk *worker)) {
	if len(tp.workers) == 1 {
		fn(tp.workers[0])
		return
	}
	var wg sync.WaitGroup
	for _, wk := range tp.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			fn(wk)
		}(wk)
	}
	wg.Wait()
}

// settle brings the world to rest: no cycle in flight, no sweep
// pending, every handle's statistics published.
func settle(w *core.World) {
	w.FinishConcurrentCycle()
	w.Collect()
	w.FinishSweep()
	runtime.GC()
}

func scaled(n int, scale float64) int {
	m := int(float64(n)*scale + 0.5)
	if m < 1 {
		m = 1
	}
	return m
}

// configFor applies the -heapx override to the workload's config.
func (sp *spec) configFor(o options) core.Config {
	cfg := sp.config
	if o.heapMult > 0 {
		b := int(mem.AlignPageUp(mem.Addr(o.heapMult * float64(sp.nominalLive))))
		cfg.InitialHeapBytes, cfg.ReserveHeapBytes = b, b
	}
	return cfg
}

// setUp is everything before the timed phase: build, warm up, settle.
// Worker i probes with cals[i].
func (sp *spec) setUp(o options, now func() int64, cals []*calibrator) (*tape, error) {
	tp, err := sp.build(sp, sp.configFor(o), o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	tp.sp = sp
	for i, wk := range tp.workers {
		wk.cal = cals[i]
	}
	tp.cyc.now = now
	tp.w.SetCollectionHook(func(st core.CollectionStats) {
		if tp.cycOn.Load() {
			tp.cyc.hook(st)
		}
	})
	warm := scaled(sp.requests, o.scale) / warmUpShare
	tp.each(func(wk *worker) { wk.drive(warm, now, nil, nil) })
	for _, wk := range tp.workers {
		wk.resetCounts()
	}
	settle(tp.w)
	return tp, nil
}

// counters is the cumulative state the per-layer ledger takes deltas of.
type counters struct {
	heap alloc.Stats
	mut  core.MutatorStats
	met  map[string]int64
}

func readCounters(w *core.World, muts []*core.Mutator) counters {
	c := counters{heap: w.Heap.Stats(), met: map[string]int64{}}
	for _, m := range muts {
		s := m.Stats()
		c.mut.FastAllocs += s.FastAllocs
		c.mut.SlowAllocs += s.SlowAllocs
		c.mut.Refills += s.Refills
		c.mut.RunSlots += s.RunSlots
		c.mut.FlushedSlots += s.FlushedSlots
	}
	for _, s := range w.MetricsSnapshot() {
		c.met[s.Name] = s.Value
	}
	return c
}

// runTape runs one tape workload end to end and returns its result.
func runTape(sp *spec, o options) (*result, error) {
	runtime.GOMAXPROCS(procs)
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }

	// One calibrator per worker goroutine; the first also calibrates
	// what no worker timed (set-ups, collection cycles).
	cals := []*calibrator{newCalibrator(now), newCalibrator(now)}
	cal := cals[0]

	// Set-up runs three times on fresh worlds; the third world is timed.
	// Its factor is that of the probes its warm-up took.
	var tp *tape
	setups := make([]timed, 0, setUps)
	for i := 0; i < setUps; i++ {
		tp = nil
		runtime.GC()
		t0 := now()
		var err error
		if tp, err = sp.setUp(o, now, cals); err != nil {
			return nil, err
		}
		ns := now() - t0
		cals[1].close()
		f, _ := cal.close()
		setups = append(setups, timed{float64(ns), f})
	}

	plan := make([]bool, timedSegments)
	var trs []*tracer
	if o.traced {
		plan = make([]bool, tracedSegments)
		for i := untracedLead; i < len(plan); i++ {
			plan[i] = true
		}
		for i, wk := range tp.workers {
			wk.tr = newTracer(now, o.seed+16+uint64(i), uint32(i+1)<<28)
			trs = append(trs, wk.tr)
		}
		if len(tp.workers) == 1 && !tp.w.Config().ConcurrentMark {
			tp.cyc.tr = tp.workers[0].tr
		} else {
			tp.cyc.tr = newTracer(now, 0, 0)
			trs = append(trs, tp.cyc.tr)
		}
	}
	// A traced run's segments are as long as an untraced run's, so it
	// plays the first three fifths of the same tape.
	per := scaled(sp.requests, o.scale) / timedSegments
	if per < 1 {
		per = 1
	}

	before := readCounters(tp.w, tp.muts)
	tp.cycOn.Store(true)
	tp.each(func(wk *worker) {
		for _, traced := range plan {
			var tr *tracer
			if traced {
				tr = wk.tr
			}
			a0 := wk.allocs
			ns := wk.drive(per, now, tr, &wk.lat)
			f, fLow := wk.cal.close()
			wk.segs = append(wk.segs, segment{ns: ns, allocs: wk.allocs - a0, f: f, fLow: fLow, lat: latStatsOf(&wk.lat)})
			wk.lat.reset()
		}
	})
	tp.cycOn.Store(false)
	settle(tp.w)
	after := readCounters(tp.w, tp.muts)
	tp.cyc.stamp(cal)

	r := newResult(sp.name, o)
	r.setups = setups
	r.cyc = &tp.cyc
	r.segTraced = plan
	for _, wk := range tp.workers {
		// The timed wall is the tape's own time: the slowest worker's
		// requests, the probes between them left out.
		var wall int64
		for _, sg := range wk.segs {
			wall += sg.ns
		}
		r.wallNs = max(r.wallNs, wall)
		r.segs = append(r.segs, wk.segs)
		r.attempted += wk.attempted
		r.failed += wk.failed
		r.allocs += wk.allocs
		r.stores += wk.stores
		r.requests += wk.requests
	}
	r.ledger.add(before, after)

	if err := tp.check(r, after.heap.ObjectsAllocated-before.heap.ObjectsAllocated); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}

	if o.traced {
		r.probe(tp.w, nil, o.seed)
		for _, t := range trs {
			r.spansRecorded += t.recorded
			r.spansDropped += t.dropped
		}
		for _, wk := range tp.workers {
			r.allocSelf.merge(&wk.tr.self[spAlloc])
			r.storeDur.merge(&wk.tr.dur[spStore])
			r.requestSelf.merge(&wk.tr.self[spRequest])
		}
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, sp.name, o.seed, trs); err != nil {
				return nil, err
			}
		}
	}

	// Retention: drop every root the harness owns; nothing may survive.
	tp.roots.Fill(0)
	tp.w.Collect()
	tp.w.Collect()
	tp.w.FinishSweep()
	r.retainedBytes = tp.w.Heap.Stats().BytesLive
	if r.retainedBytes != 0 {
		return nil, fmt.Errorf("%s: %d bytes survived dropping every root", sp.name, r.retainedBytes)
	}
	return r, nil
}

// check runs the output checks on the settled world, every root still
// in place, and records what they read. allocated is the heap's own
// count of objects allocated during the timed phase.
func (tp *tape) check(r *result, allocated uint64) error {
	st := tp.w.Heap.Stats()
	r.liveBytes, r.liveObjects = st.BytesLive, st.ObjectsLive
	r.peakHeap = max(tp.cyc.peakHeap, st.HeapBytes)
	if tp.w.Config().LineAlloc {
		r.lineWaste = tp.w.Heap.LineStats().WasteBytes
	}
	if err := tp.w.VerifyIntegrity(); err != nil {
		return fmt.Errorf("VerifyIntegrity: %w", err)
	}
	if allocated != r.allocs {
		return fmt.Errorf("heap counted %d allocations, the tape performed %d", allocated, r.allocs)
	}
	if err := tp.reach(); err != nil {
		return err
	}
	if st.DesperateAllocs != 0 {
		return fmt.Errorf("%d desperate allocations", st.DesperateAllocs)
	}
	if n := tp.cyc.n; n > 0 && float64(tp.cyc.concurrent) < tp.sp.minConcurrent*float64(n) {
		return fmt.Errorf("only %d of %d cycles ran concurrently", tp.cyc.concurrent, n)
	}
	// The serving layer's books: no denial, and the budgets' view of
	// live bytes equal to the allocator's ownership table.
	var live, owned uint64
	for _, t := range tp.tenants {
		s := t.Stats()
		live += s.LiveBytes
		owned += t.OwnedBytes()
		r.tenantDenials += s.BudgetDenials
		r.tenantForced += s.ForcedCollections
	}
	if r.tenantDenials != 0 {
		return fmt.Errorf("%d budget denials", r.tenantDenials)
	}
	if live != owned {
		return fmt.Errorf("tenants charge %d live bytes, the ownership table holds %d", live, owned)
	}
	return nil
}
