package main

import (
	"repro/internal/blacklist"
	"repro/internal/core"
)

// A cycleLog accumulates every collection cycle of the timed phase from
// the SetCollectionHook callback. The hook runs with the world lock
// held — on a mutator's goroutine for stop-the-world cycles, on a
// background goroutine for some concurrent finales — so calls are
// serialised; the harness reads the log only after a settle.
type cycleLog struct {
	n          int
	concurrent int

	// now is the harness clock; recs holds, per cycle, when the hook
	// fired and the two durations the end-to-end metrics are made of, on
	// the wall clock. stamp gives each the slowdown factor of its time.
	now  func() int64
	recs []cycleRec

	// Per-cycle distributions of the phases, wall-clock nanoseconds.
	stop, snapshot, final, concPhase hist

	// Running sums, nanoseconds: stopped is all time mutators were held
	// (what gc_wall_share charges).
	stopped                       int64
	sumStop, sumMark, sumSweep    int64
	sumSnapshot, sumConcPhase     int64
	objectsMarked, markedConc     uint64
	fields, rootWords, candidates uint64
	falseNear, interior           uint64
	objectsFreed, sweptBlocks     uint64
	rescanPasses, finalDirty      uint64

	peakHeap  int
	blacklist blacklist.Stats // cumulative, as of the last cycle

	// tr receives cycle spans in a traced run. On a workload whose
	// cycles all run inside its single worker's calls it is that
	// worker's tracer, so the cycle nests under the call that paid for
	// it; otherwise it is a tracer of the log's own.
	tr *tracer
}

type cycleRec struct {
	t           int64
	pause, wall timed
}

// stamp gives every cycle the slowdown factor of the stretch of the run
// it ended in.
func (c *cycleLog) stamp(cal *calibrator) {
	for i := range c.recs {
		r := &c.recs[i]
		r.pause.f = cal.at(r.t)
		r.wall.f = r.pause.f
	}
}

// pauseWall returns the distributions of the cycles' pauses and walls
// on the calibrated clock.
func (c *cycleLog) pauseWall(g gammas) (pause, wall *hist) {
	pause, wall = new(hist), new(hist)
	for _, r := range c.recs {
		pause.add(int64(r.pause.on(g.pause) + 0.5))
		wall.add(int64(r.wall.on(g.wall) + 0.5))
	}
	return pause, wall
}

func (c *cycleLog) hook(st core.CollectionStats) {
	c.n++
	stopNs := st.PauseStopNs
	dur := st.Duration.Nanoseconds()
	var pause, wall int64
	if st.Concurrent {
		c.concurrent++
		longest := st.PauseSnapshotNs
		if st.PauseFinalNs > longest {
			longest = st.PauseFinalNs
		}
		pause = longest + stopNs
		wall = st.PauseSnapshotNs + st.ConcPhaseNs + st.PauseFinalNs
		c.snapshot.add(st.PauseSnapshotNs)
		c.final.add(st.PauseFinalNs)
		c.concPhase.add(st.ConcPhaseNs)
		c.sumSnapshot += st.PauseSnapshotNs
		c.sumConcPhase += st.ConcPhaseNs
	} else {
		pause = stopNs + dur
		wall = pause
	}
	c.recs = append(c.recs, cycleRec{t: c.now(), pause: timed{ns: float64(pause), f: 1}, wall: timed{ns: float64(wall), f: 1}})
	c.stop.add(stopNs)
	c.stopped += stopNs + dur
	c.sumStop += stopNs
	c.sumMark += st.PauseMarkNs
	c.sumSweep += st.PauseSweepNs
	c.objectsMarked += st.Mark.ObjectsMarked
	c.markedConc += st.MarkedConcurrent
	c.fields += st.Mark.FieldsScanned
	c.rootWords += st.Mark.WordsScanned
	c.candidates += st.Mark.Candidates
	c.falseNear += st.Mark.FalseNearHeap
	c.interior += st.Mark.InteriorResolved
	c.objectsFreed += st.Sweep.ObjectsFreed
	c.sweptBlocks += uint64(st.Sweep.BlocksKept + st.Sweep.BlocksReleased)
	c.rescanPasses += uint64(st.RescanPasses)
	c.finalDirty += uint64(st.FinalDirtyBlocks)
	if st.HeapBytes > c.peakHeap {
		c.peakHeap = st.HeapBytes
	}
	c.blacklist = st.Blacklist
	if c.tr != nil {
		c.spans(st, stopNs)
	}
}

// spans lays the cycle out backwards from now, the moment the hook
// fired: the phases CollectionStats times, in the order they ran.
func (c *cycleLog) spans(st core.CollectionStats, stopNs int64) {
	t := c.tr
	end := t.now()
	if !st.Concurrent {
		start := end - stopNs - st.Duration.Nanoseconds()
		t.beginAt(spCycle, start)
		t.leaf(spStop, start, start+stopNs)
		markEnd := start + stopNs + st.PauseMarkNs
		t.leaf(spMark, start+stopNs, markEnd)
		t.leaf(spSweep, markEnd, markEnd+st.PauseSweepNs)
		t.endAt(end)
		return
	}
	// ConcPhaseNs runs up to the start of the final pause, so the stop
	// that precedes that pause is its tail. (The snapshot's own stop is
	// not reported anywhere.)
	finalStart := end - st.PauseFinalNs
	concStart := finalStart - st.ConcPhaseNs
	start := concStart - st.PauseSnapshotNs
	t.beginAt(spCycle, start)
	t.leaf(spSnapshot, start, concStart)
	t.beginAt(spConcPhase, concStart)
	t.leaf(spStop, finalStart-stopNs, finalStart)
	t.endAt(finalStart)
	t.beginAt(spFinal, finalStart)
	t.leaf(spMark, finalStart, finalStart+st.PauseMarkNs)
	t.leaf(spSweep, finalStart+st.PauseMarkNs, finalStart+st.PauseMarkNs+st.PauseSweepNs)
	t.endAt(end)
	t.endAt(end)
}
