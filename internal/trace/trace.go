// Package trace is the collector's structured event trace: a fixed
// capacity ring buffer of typed, timestamped events emitted from the
// collection pipeline (internal/core), the marker (internal/mark) and
// the allocator (internal/alloc).
//
// The design constraints come from where the emit sites sit:
//
//   - Hot paths. Emit sites include the marker's blacklist branch and
//     the lazy sweep's per-block drain, so an emit must not allocate:
//     events are fixed-size values copied into a preallocated buffer.
//   - Always compiled in, usually off. A disabled recorder is a nil
//     *Recorder; every method nil-checks its receiver, so the disabled
//     fast path is a single compare and emits from un-traced worlds
//     cost (and allocate) nothing. The allocation tests assert this.
//   - Shared recorders. Worlds traced together, and the mutator
//     goroutines of each, emit into one recorder from several
//     goroutines, so Emit is guarded by a mutex. A lock per event is
//     cheap against the work it annotates, and keeps the buffer free of
//     torn events under the race detector.
//
// The buffer wraps: once Emitted exceeds the capacity, the oldest
// events are overwritten and counted as dropped. Events returns the
// survivors in emission order; WriteJSON exports them with symbolic
// kind names for offline analysis (cmd/gcbench -trace).
package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Kind identifies an event type. The three argument words A0..A2 are
// interpreted per kind, as documented on the constants (and in
// DESIGN.md's event schema table).
type Kind uint8

// Event kinds. Cycle kinds (the "cycle kind" argument below) are
// 0 = full, 1 = generational minor, 3 = concurrent full, 4 = concurrent
// minor; 2 was the incremental cycle's and is retired, not reused.
const (
	// EvNone is the zero Kind; it is never emitted.
	EvNone Kind = iota
	// EvCycleBegin opens a collection. A0 cycle number (1-based, the
	// cycle being started), A1 committed heap bytes, A2 cycle kind.
	EvCycleBegin
	// EvCycleEnd closes a collection. A0 cycle number, A1 objects
	// live after the sweep, A2 bytes live after the sweep.
	EvCycleEnd
	// EvMarkBegin opens the mark phase. A0 cycle number, A1 markers
	// (always 1: every mark phase is serial), A2 cycle kind.
	EvMarkBegin
	// EvMarkEnd closes the mark phase. A0 objects marked, A1 bytes
	// marked, A2 root words scanned.
	EvMarkEnd
	// EvSweepBegin opens the sweep phase (the in-pause part). A0 cycle
	// number, A1 1 under lazy sweeping else 0, A2 cycle kind.
	EvSweepBegin
	// EvSweepEnd closes the sweep phase. A0 objects freed, A1 bytes
	// freed, A2 blocks deferred to the lazy sweep (0 when eager).
	EvSweepEnd
	// EvBlacklistPage records a near-heap false reference being
	// blacklisted (figure 2's bold lines). A0 the candidate address.
	EvBlacklistPage
	// EvSweepDrain records the deferred sweep of one block completing
	// outside the pause (allocator refill or FinishSweep). A0 block
	// index, A1 blocks still pending.
	EvSweepDrain
	// EvAllocTrigger records an allocation crossing the collection
	// threshold, immediately before the cycle it triggers. A0 bytes
	// allocated since the last collection, A1 committed heap bytes,
	// A2 cycle kind about to run.
	EvAllocTrigger
	// EvHeapExpand records heap growth. A0 bytes added, A1 new
	// committed heap bytes, A2 cumulative expansion count.
	EvHeapExpand
	// EvDesperateAlloc records an allocation forced onto blacklisted
	// pages (the real collector's "needed to allocate blacklisted
	// block" warning). A0 the span's base address.
	EvDesperateAlloc
	// EvSafepoint records a stop-the-world safepoint: every registered
	// mutator parked and its counts published. A0 mutators stopped, A1
	// carved slots their caches hold across the stop (none is flushed),
	// A2 stop duration in nanoseconds.
	EvSafepoint
	// EvCacheRefill records a mutator allocation cache refilling with
	// one carve of its class's next hole. A0 list index (class,
	// +NumClasses when atomic), A1 slots carved, A2 object words per
	// slot.
	EvCacheRefill
	// EvProvenance records the harvest of a provenance-recording mark
	// phase. A0 first-mark records captured this cycle, A1 total records
	// now held (after a minor-cycle merge), A2 cycle kind.
	EvProvenance
	// EvRetention records a retention report. A0 live objects, A1
	// objects attributed as spuriously retained, A2 root slots analysed
	// for sole retention.
	EvRetention
	// EvBarrierShade records the concurrent-mark write barrier marking
	// the target of a store: the stored value was the address of an
	// object no marker had reached yet. A0 the stored-to address, A1 the
	// stored value.
	EvBarrierShade
	// EvFinalPause records a concurrent cycle's final pause. A0 pause
	// duration in nanoseconds, A1 objects marked inside the pause.
	EvFinalPause
	// EvPacerAssist records one mutator slow-path assist repaying mark
	// debt to the pacer. A0 assist duration in nanoseconds, A1 bytes of
	// debt that triggered it, A2 the pacer credit after repayment.
	EvPacerAssist
	// EvBudgetExceeded records a tenant allocation denied by its heap
	// budget after the over-budget policy ran out of remedies. A0 tenant
	// id, A1 requested bytes, A2 the tenant's live bytes at denial.
	EvBudgetExceeded
	// EvTenantEvict records a tenant eviction: every object the tenant
	// still owned was freed and the tenant was cancelled. A0 tenant id,
	// A1 objects freed, A2 bytes freed.
	EvTenantEvict
	// EvLeakAlert records the retention watcher raising a leak alert
	// for one attribution key. A0 collection cycle, A1 windowed growth
	// bytes, A2 confidence in per-mille (750 = 0.75).
	EvLeakAlert

	numKinds // sentinel: keep last
)

var kindNames = [numKinds]string{
	EvNone:           "none",
	EvCycleBegin:     "cycle_begin",
	EvCycleEnd:       "cycle_end",
	EvMarkBegin:      "mark_begin",
	EvMarkEnd:        "mark_end",
	EvSweepBegin:     "sweep_begin",
	EvSweepEnd:       "sweep_end",
	EvBlacklistPage:  "blacklist_page",
	EvSweepDrain:     "sweep_drain",
	EvAllocTrigger:   "alloc_trigger",
	EvHeapExpand:     "heap_expand",
	EvDesperateAlloc: "desperate_alloc",
	EvSafepoint:      "safepoint",
	EvCacheRefill:    "cache_refill",
	EvProvenance:     "provenance",
	EvRetention:      "retention",
	EvBarrierShade:   "barrier_shade",
	EvFinalPause:     "final_pause",
	EvPacerAssist:    "pacer_assist",
	EvBudgetExceeded: "budget_exceeded",
	EvTenantEvict:    "tenant_evict",
	EvLeakAlert:      "leak_alert",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record: a kind, a nanosecond timestamp relative
// to the recorder's creation, and three kind-interpreted arguments.
type Event struct {
	TimeNs int64
	Kind   Kind
	A0     int64
	A1     int64
	A2     int64
}

// Recorder is a concurrency-safe ring buffer of events. The zero
// *Recorder (nil) is the disabled state: Emit and the accessors are
// nil-receiver no-ops, so call sites need no separate enabled flag.
type Recorder struct {
	mu    sync.Mutex
	buf   []Event
	count uint64 // total events emitted, including overwritten ones
	epoch time.Time
	// histSrc, when set, is consulted at WriteJSON time for the
	// distribution metrics to embed alongside the events (core wires it
	// to the traced world's Registry.HistogramSnapshot, so a -trace
	// dump carries the pause histograms of the last world traced).
	histSrc func() []metrics.HistogramSample
}

// DefaultCapacity is the buffer size New uses for capacity <= 0.
const DefaultCapacity = 1 << 14

// New creates a recorder holding the last capacity events
// (DefaultCapacity if capacity <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, capacity), epoch: time.Now()}
}

// Enabled reports whether the recorder records (i.e. is non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event. On a nil recorder it is a no-op; in both
// cases it performs no heap allocation.
func (r *Recorder) Emit(k Kind, a0, a1, a2 int64) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.buf[r.count%uint64(len(r.buf))] = Event{TimeNs: now, Kind: k, A0: a0, A1: a1, A2: a2}
	r.count++
	r.mu.Unlock()
}

// Emitted returns the total number of events emitted, including any
// that have been overwritten.
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns how many events were overwritten by wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := uint64(len(r.buf)); r.count > c {
		return r.count - c
	}
	return 0
}

// Capacity returns the buffer capacity (0 for a nil recorder).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Reset discards all recorded events (the drop count included).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.count = 0
	r.mu.Unlock()
}

// Events returns the surviving events in emission order (oldest
// first). The result is a copy; it is safe to retain.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := uint64(len(r.buf))
	if r.count <= c {
		out := make([]Event, r.count)
		copy(out, r.buf[:r.count])
		return out
	}
	// Wrapped: the oldest surviving event sits at the write cursor.
	out := make([]Event, c)
	i := r.count % c
	n := copy(out, r.buf[i:])
	copy(out[n:], r.buf[:i])
	return out
}

// jsonEvent is the export form of one event: symbolic kind, relative
// timestamp, raw argument words.
type jsonEvent struct {
	TimeNs int64    `json:"t_ns"`
	Kind   string   `json:"kind"`
	Args   [3]int64 `json:"args"`
}

// SetHistogramSource registers fn as the provider of histogram
// snapshots for WriteJSON (nil detaches). A nil recorder no-ops.
func (r *Recorder) SetHistogramSource(fn func() []metrics.HistogramSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.histSrc = fn
	r.mu.Unlock()
}

// jsonTrace is the export envelope.
type jsonTrace struct {
	Capacity int         `json:"capacity"`
	Emitted  uint64      `json:"emitted"`
	Dropped  uint64      `json:"dropped"`
	Events   []jsonEvent `json:"events"`
	// Histograms carries the traced world's distribution metrics
	// (pause, final-pause, snapshot-diff) when a histogram source is
	// attached; omitted otherwise for backward compatibility.
	Histograms []metrics.HistogramSample `json:"histograms,omitempty"`
}

// WriteJSON exports the surviving events as one indented JSON
// document: {"capacity":..,"emitted":..,"dropped":..,"events":[...]}.
// A nil recorder exports an empty trace.
func (r *Recorder) WriteJSON(w io.Writer) error {
	doc := jsonTrace{
		Capacity: r.Capacity(),
		Emitted:  r.Emitted(),
		Dropped:  r.Dropped(),
		Events:   []jsonEvent{},
	}
	if r != nil {
		r.mu.Lock()
		src := r.histSrc
		r.mu.Unlock()
		if src != nil {
			doc.Histograms = src()
		}
	}
	for _, ev := range r.Events() {
		doc.Events = append(doc.Events, jsonEvent{
			TimeNs: ev.TimeNs,
			Kind:   ev.Kind.String(),
			Args:   [3]int64{ev.A0, ev.A1, ev.A2},
		})
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
