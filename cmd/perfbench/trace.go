package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/simrand"
)

// Spans are recorded by the harness around its own calls into a layer's
// public functions; nothing inside the collector is instrumented. A
// collection cycle becomes a span after the fact, from the phase
// durations its CollectionStats reports (see cycleLog.hook).

type spanKind uint8

const (
	spRequest spanKind = iota
	spAlloc
	spStore
	spRootClear
	spRunProgramT
	// Kinds from spCycle on describe collection cycles and are always
	// kept; the kinds before it are kept for sampled requests only.
	spCycle
	spStop
	spSnapshot
	spConcPhase
	spFinal
	spMark
	spSweep
	numSpanKinds
)

// spanNames carry the layer (module) a span is charged to as a prefix.
var spanNames = [numSpanKinds]string{
	"workload.request",
	"core.AllocateRooted",
	"core.Store",
	"core.Store(root)",
	"platform.RunProgramT",
	"core.cycle",
	"core.stop",
	"core.snapshot_pause",
	"mark.concurrent_phase",
	"core.final_pause",
	"mark.pause",
	"alloc.sweep",
}

// sampleOneIn is the request sampling rate for whole span trees.
const sampleOneIn = 1024

// maxKeptSpans bounds the kept-span buffer; a span that does not fit is
// counted in dropped (its histograms are still updated).
const maxKeptSpans = 1 << 17

type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Req    uint64 `json:"request"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

type openSpan struct {
	kind         spanKind
	id           uint32
	start, child int64
}

// A tracer belongs to one goroutine. Spans nest by a stack: a span's
// self time is its duration minus the time its child spans cover, and
// because children of one parent are opened and closed in sequence they
// never overlap, so the covered time is the sum of their durations.
type tracer struct {
	now     func() int64
	open    []openSpan
	nextID  uint32
	req     uint64
	sampled bool
	rng     *simrand.Rand

	dur, self [numSpanKinds]hist
	kept      []span
	recorded  uint64
	dropped   uint64
}

// newTracer returns a tracer whose span ids start at idBase (so that
// several tracers can share one output file) and whose request sample
// is drawn from seed.
func newTracer(now func() int64, seed uint64, idBase uint32) *tracer {
	return &tracer{
		now:    now,
		open:   make([]openSpan, 0, 8),
		nextID: idBase,
		rng:    simrand.New(seed),
		kept:   make([]span, 0, maxKeptSpans),
	}
}

func (t *tracer) beginRequest() {
	t.req++
	t.sampled = t.rng.Intn(sampleOneIn) == 0
	t.begin(spRequest)
}

func (t *tracer) begin(k spanKind) { t.beginAt(k, t.now()) }
func (t *tracer) end()             { t.endAt(t.now()) }

func (t *tracer) beginAt(k spanKind, start int64) {
	t.nextID++
	t.open = append(t.open, openSpan{kind: k, id: t.nextID, start: start})
}

func (t *tracer) endAt(end int64) {
	s := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := end - s.start
	self := d - s.child
	t.dur[s.kind].add(d)
	t.self[s.kind].add(self)
	var parent uint32
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
		parent = t.open[n-1].id
	}
	t.recorded++
	if !t.sampled && s.kind < spCycle {
		return
	}
	if len(t.kept) == cap(t.kept) {
		t.dropped++
		return
	}
	t.kept = append(t.kept, span{
		ID: s.id, Parent: parent, Req: t.req, Name: spanNames[s.kind],
		Start: s.start, End: end, Self: self,
	})
}

// leaf records a childless span with known bounds.
func (t *tracer) leaf(k spanKind, start, end int64) {
	t.beginAt(k, start)
	t.endAt(end)
}

type spanSummary struct {
	N      uint64  `json:"n"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	SelfNs float64 `json:"self_mean_ns"`
}

// writeTrace merges the tracers' kept spans and per-name histograms
// into one JSON file.
func writeTrace(path, workload string, seed uint64, trs []*tracer) error {
	out := struct {
		Workload   string                 `json:"workload"`
		Seed       uint64                 `json:"seed"`
		SampleRate int                    `json:"request_sample_one_in"`
		Histograms map[string]spanSummary `json:"histograms"`
		Spans      []span                 `json:"spans"`
	}{Workload: workload, Seed: seed, SampleRate: sampleOneIn, Histograms: map[string]spanSummary{}}
	for k := spanKind(0); k < numSpanKinds; k++ {
		var d, s hist
		for _, t := range trs {
			d.merge(&t.dur[k])
			s.merge(&t.self[k])
		}
		if d.n == 0 {
			continue
		}
		out.Histograms[spanNames[k]] = spanSummary{
			N: d.n, MeanNs: d.mean(), P50Ns: d.quantile(0.5), P99Ns: d.quantile(0.99), SelfNs: s.mean(),
		}
	}
	for _, t := range trs {
		out.Spans = append(out.Spans, t.kept...)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
