package main

import (
	"math"
	"slices"
	"sort"
)

// The calibrated clock.
//
// The reference box is a small guest on a shared host, and its two
// virtual processors share their physical cores' issue slots with other
// guests' threads. When a neighbour is busy on the sibling thread, the
// same instructions take up to twice as long (dense independent
// arithmetic; about 1.5× for the workloads here, 1.1× for a dependent
// chain), for anything from a millisecond to twenty minutes, with no
// steal time reported and nothing in the guest that can see it. Inside a
// steady phase runs agree to a few per cent; across its edge they differ
// by a third to a half. No statistic taken inside a run removes a
// slowdown that outlasts the run.
//
// So the harness measures the slowdown and divides by it. Every few
// milliseconds of a tape it times a small fixed piece of plain Go — the
// reference kernel below — and the ratio of the kernel's time to its
// time on the calm reference box is the slowdown factor f of that
// stretch of the run. Every duration behind an end-to-end metric is
// divided by a power of the factor of the segment it was measured in
// (gammas, below). A metric in microseconds therefore reads
// "microseconds on the reference box when it is calm". -wallclock
// reports the durations as they were measured.
//
// The kernel is collector-shaped (bump allocation of four-word objects,
// a mark bitmap, an explicit mark stack, data-dependent branches) and
// works in 16 KiB, inside the first-level cache: it was picked among
// five candidates because a busy neighbour slows it by 1.45–1.5×, the
// middle of what it does to the five workloads (1.3–1.6×). It shares no
// code with the collector, so a change to the collector moves a metric
// and not its unit.

const (
	refArenaWords = 4 << 10 // 16 KiB of uint32
	refObjWords   = 4
	refRoots      = 16
	// refCycles kernel cycles make one sample, about 60 µs.
	refCycles = 4
	// refNominalNs is what one sample takes on the reference box with an
	// idle neighbour. It is a constant, not measured at start-up, so that
	// two runs share one unit whatever the weather at their start.
	refNominalNs = 59500.0
	// probeEveryNs is how much of a tape runs between two samples.
	probeEveryNs = 2_000_000
	// burstSamples are taken where there is no tape to interleave with
	// (after each environment of program_t).
	burstSamples = 8
)

// A gammas says how much more, or less, than the reference kernel each
// kind of measurement loses to a busy neighbour: a duration measured
// while the kernel ran f times slower than nominal is divided by f^γ.
// The kernel tracks the workloads closely but not one for one: dense
// straight-line code (the allocation fast path) loses more issue slots
// to the sibling thread than the kernel does, code that waits on loads
// or on a lock (the mark loop, a hand-over between two workers) fewer.
// The exponents were fitted on the reference box, per workload and kind
// of measurement, with refit.py over 34 runs a workload in weather that
// came and went (README, "The calibrated clock"). They are properties of the
// code a measurement spends its time in, not of a version of the
// collector; the zero value is the wall clock.
type gammas struct {
	p50    float64 // median request latency
	p50Low float64 // the same, as a power of the segment's low factor
	tail   float64 // slowest requests: refills and collections
	rate   float64 // throughput of a segment: all of it
	pause  float64 // collection pauses: root scan and mark loop
	wall   float64 // cycle walls: the pause, or a concurrent cycle's phases
	setup  float64
}

var workloadGammas = map[string]gammas{
	// serve_churn's median request is the allocation fast path and
	// nothing else, a microsecond of the densest code here: it goes with
	// the segment's low factor (see calibrator.close).
	"serve_churn":     {p50Low: 1.65, tail: 1.8, rate: 1.6, pause: 1.95, wall: 1.95, setup: 1.5},
	"serve_tenants":   {p50: 0.75, tail: 1.25, rate: 1.25, pause: 1.35, wall: 1.35, setup: 1.3},
	"live_graph_stw":  {p50: 0.85, tail: 1.2, rate: 1.25, pause: 1.35, wall: 1.35, setup: 1.4},
	"live_graph_conc": {p50: 0.65, tail: 1.3, rate: 1.25, pause: 1.9, wall: 1.2, setup: 1.3},
	// program_t's requests are whole RunProgramT calls: allocation
	// through the central lock and machine frames, dense code throughout.
	"program_t": {p50: 2.15, tail: 1.2, rate: 1.9, pause: 1.2, wall: 1.2, setup: 1.6},
}

// A timed is a duration on the wall clock with the slowdown factor of
// the stretch of the run it was measured in.
type timed struct {
	ns float64
	f  float64
}

// on returns the duration on the calibrated clock with exponent gamma.
func (t timed) on(gamma float64) float64 { return t.ns / math.Pow(t.f, gamma) }

// A refKernel is a miniature collector over a private arena: every cycle
// it fills the arena with four-word objects that point at two random
// others, clears its mark bitmap, and marks from sixteen roots with an
// explicit stack.
type refKernel struct {
	arena []uint32
	mark  []uint64
	stack []uint32
	rng   uint64
}

func newRefKernel() *refKernel {
	objs := refArenaWords / refObjWords
	return &refKernel{
		arena: make([]uint32, refArenaWords),
		mark:  make([]uint64, (objs+63)/64),
		stack: make([]uint32, 0, 2*objs+refRoots),
		rng:   88172645463325252,
	}
}

func (k *refKernel) rand() uint32 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return uint32(k.rng >> 32)
}

// cycle runs one allocate-and-mark cycle and returns how many objects it
// marked.
func (k *refKernel) cycle() uint32 {
	objs := uint32(len(k.arena) / refObjWords)
	for i := uint32(0); i < objs; i++ {
		o := i * refObjWords
		k.arena[o] = (k.rand() % objs) * refObjWords
		k.arena[o+1] = (k.rand() % objs) * refObjWords
		k.arena[o+2] = i
		k.arena[o+3] = 0
	}
	clear(k.mark)
	k.stack = k.stack[:0]
	for r := 0; r < refRoots; r++ {
		k.stack = append(k.stack, (k.rand()%objs)*refObjWords)
	}
	var marked uint32
	for len(k.stack) > 0 {
		o := k.stack[len(k.stack)-1]
		k.stack = k.stack[:len(k.stack)-1]
		idx := o / refObjWords
		w, b := idx/64, uint64(1)<<(idx%64)
		if k.mark[w]&b != 0 {
			continue
		}
		k.mark[w] |= b
		marked++
		k.stack = append(k.stack, k.arena[o])
		if idx&1 == 0 {
			k.stack = append(k.stack, k.arena[o+1])
		}
	}
	return marked
}

// A calSpan is one closed stretch of a run with its slowdown factor.
type calSpan struct {
	end    int64 // on the harness clock
	f, low float64
}

// A calibrator belongs to one goroutine. probe times the kernel once;
// close ends the current stretch, gives it a factor from its samples and
// remembers it, so that a duration another goroutine measured (a
// collection pause) can be calibrated afterwards by when it happened.
type calibrator struct {
	k       *refKernel
	now     func() int64
	samples []int64
	spans   []calSpan
}

// newCalibrator returns a calibrator on the harness clock now.
func newCalibrator(now func() int64) *calibrator {
	c := &calibrator{k: newRefKernel(), now: now, samples: make([]int64, 0, 1024), spans: make([]calSpan, 0, 1024)}
	c.burst() // pays for the kernel's cold caches
	c.samples = c.samples[:0]
	return c
}

// probe times the reference kernel once.
func (c *calibrator) probe() {
	t0 := c.now()
	for i := 0; i < refCycles; i++ {
		sink += uint64(c.k.cycle())
	}
	c.samples = append(c.samples, c.now()-t0)
}

func (c *calibrator) burst() {
	for i := 0; i < burstSamples; i++ {
		c.probe()
	}
}

// close ends the current stretch and returns its slowdown factor: the
// mean of its samples over the nominal sample. The mean, because a busy
// neighbour comes and goes within microseconds as well as within
// minutes, and the time a stretch of work takes is the sum of what each
// part of it was slowed by (the mean explains 0.94 of the variance of a
// segment's throughput on serve_churn, the median 0.77); without the
// samples over three times the median, because those are the few in a
// thousand during which the guest's thread was descheduled for
// milliseconds, which the requests' own statistics shrug off too.
//
// low is the first decile of the samples over the nominal sample. A
// request of serve_churn lasts a microsecond, shorter than the
// neighbour's bursts, which a 60 µs sample averages over: the median
// request of a segment is as slow as the segment's calmer moments, not as
// its mean, until the bursts fill it. The first decile tracks it (runs
// in mixed weather put serve_churn's median request 1 % apart with it,
// 5–7 % with the mean). On the other tapes, where a collection or a
// hand-over is never more than a few hundred requests away, the median
// request goes with the mean like everything else.
//
// A stretch without samples takes the factors of the one before it.
func (c *calibrator) close() (f, low float64) {
	f, low = 1, 1
	switch {
	case len(c.samples) > 0:
		slices.Sort(c.samples)
		limit := 3 * c.samples[len(c.samples)/2]
		var sum, n int64
		for _, v := range c.samples {
			if v > limit {
				break
			}
			sum, n = sum+v, n+1
		}
		f = float64(sum) / float64(n) / refNominalNs
		low = float64(c.samples[len(c.samples)/10]) / refNominalNs
		c.samples = c.samples[:0]
	case len(c.spans) > 0:
		last := c.spans[len(c.spans)-1]
		f, low = last.f, last.low
	}
	c.spans = append(c.spans, calSpan{end: c.now(), f: f, low: low})
	return f, low
}

// at returns the factor of the stretch that t falls in; the last
// stretch's after it.
func (c *calibrator) at(t int64) float64 {
	s := c.spans
	if len(s) == 0 {
		return 1
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].end >= t })
	if i == len(s) {
		i--
	}
	return s[i].f
}
