package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/watch"
)

// Online leak detection: a retention watcher that piggybacks on the
// collection barrier. StartRetentionWatch enables provenance recording
// and, every SampleEvery-th collection, folds the harvested provenance
// map into lightweight per-attribution-key retention totals — one key
// per first-marking root slot, plus optional structure-label and
// per-tenant keys — and feeds them to an internal/watch.Watcher. The
// watcher diffs successive snapshots into windowed trend series and
// raises LeakAlerts for keys with sustained growth; alerts carry a
// bounded why-live path for a sample retained object and flow to the
// subscriber channel, the trace (EvLeakAlert), and the leak_* metrics.
//
// Cost model: an unwatched collection pays one nil compare at the
// barrier and allocates nothing (TestCollectZeroAllocsUnwatched pins
// this); a watched-but-unsampled collection adds one modulo. A sampled
// collection walks the provenance map once — O(live objects) with a
// memoized parent-chain resolution — which the leak_snapshot_diff_ns
// histogram prices. Compare GetRetentionReport: one full mark pass per
// root slot, unusable as a continuous monitor.

// WatchConfig parameterises StartRetentionWatch. The zero value is a
// usable default: sample every collection, window 8, alert on 4 KiB
// growth at 0.75 confidence.
type WatchConfig struct {
	// SampleEvery samples every Nth collection (default 1: all).
	SampleEvery int
	// Window is the trend ring size in samples (default 8); a key must
	// fill its window before it can alert.
	Window int
	// MinGrowthBytes is the windowed growth floor for an alert
	// (default 4096), and the re-arm increment after one fires.
	MinGrowthBytes uint64
	// Confidence is the minimum fraction of growing sample-to-sample
	// intervals in the window (default 0.75). Monotone leaks score 1.0;
	// churn oscillates near 0.5 and stays silent.
	Confidence float64
	// EWMAAlpha smooths the bytes-per-cycle growth rate (default 0.3).
	EWMAAlpha float64
	// TopSuspects caps RetentionSuspects' default ranking (default 5).
	TopSuspects int
	// Label, when non-nil, adds a "label:<name>" attribution key per
	// retained object. Unlike RetentionOptions.Label it is called UNDER
	// the world lock at the collection barrier, so it must classify from
	// the address alone and must not call back into the World.
	Label func(base mem.Addr) string
	// Buffer is the alert channel capacity (default 16). The barrier
	// never blocks on a slow subscriber: when the buffer is full the
	// alert is dropped and counted (leak_alerts_dropped).
	Buffer int
	// PathHops bounds the why-live path attached to each alert (default
	// 8 hops; negative disables path capture entirely).
	PathHops int
}

// LeakAlert is one sustained-growth detection, delivered on the
// channel StartRetentionWatch returns and mirrored as an EvLeakAlert
// trace event (args: cycle, growth bytes, confidence in per-mille).
type LeakAlert struct {
	// Key is the attribution key: a root slot ("segment[0+0] @0x2000"),
	// a "label:..." structure label, or a "tenant:..." owner.
	Key string
	// Cycle is the collection cycle of the sample that tripped the
	// alert.
	Cycle int
	// GrowthObjects/GrowthBytes are the retained growth across the
	// window; Cycles is the window span in collection cycles.
	GrowthObjects int64
	GrowthBytes   int64
	Cycles        int
	// Confidence is the fraction of growing intervals in the window.
	Confidence float64
	// EWMABytesPerCycle is the smoothed growth rate.
	EWMABytesPerCycle float64
	// HighWaterBytes and the Last* levels describe the key's series.
	HighWaterBytes uint64
	LastObjects    uint64
	LastBytes      uint64
	// SampleWhyLivePath is a bounded root-first retention path for one
	// sample object under the key ("" when PathHops < 0 or no sample
	// object was resolvable).
	SampleWhyLivePath string
}

// LeakTrend re-exports the watcher's per-key trend summary.
type LeakTrend = watch.Trend

// retWatch is the installed watcher state, nil on unwatched worlds.
type retWatch struct {
	cfg      WatchConfig
	watcher  *watch.Watcher
	ch       chan LeakAlert
	prevProv bool // provenance state to restore on stop
}

// StartRetentionWatch installs the retention watcher and returns its
// alert channel. It enables provenance recording (restored to its
// prior state by StopRetentionWatch); the first sampled collection
// after the next full cycle seeds the trend series. Errors if a watch
// is already running.
func (w *World) StartRetentionWatch(cfg WatchConfig) (<-chan LeakAlert, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.watch != nil {
		return nil, fmt.Errorf("core: StartRetentionWatch: watch already running")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 16
	}
	if cfg.PathHops == 0 {
		cfg.PathHops = 8
	}
	rw := &retWatch{
		cfg: cfg,
		watcher: watch.New(watch.Config{
			SampleEvery:    cfg.SampleEvery,
			Window:         cfg.Window,
			MinGrowthBytes: cfg.MinGrowthBytes,
			Confidence:     cfg.Confidence,
			EWMAAlpha:      cfg.EWMAAlpha,
			TopSuspects:    cfg.TopSuspects,
		}),
		ch:       make(chan LeakAlert, cfg.Buffer),
		prevProv: w.prov.enabled,
	}
	w.prov.enabled = true
	w.watch = rw
	return rw.ch, nil
}

// StopRetentionWatch uninstalls the watcher, closes the alert channel
// (subscribers see it drain then end), restores the provenance
// recording state StartRetentionWatch found, and returns the final
// trend series sorted by key. No-op returning nil when not watching.
func (w *World) StopRetentionWatch() []LeakTrend {
	w.mu.Lock()
	defer w.mu.Unlock()
	rw := w.watch
	if rw == nil {
		return nil
	}
	trends := rw.watcher.Trends()
	close(rw.ch)
	w.prov.enabled = rw.prevProv
	w.watch = nil
	return trends
}

// RetentionWatching reports whether a watcher is installed.
func (w *World) RetentionWatching() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.watch != nil
}

// RetentionTrends returns the current trend series sorted by key, nil
// when not watching.
func (w *World) RetentionTrends() []LeakTrend {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.watch == nil {
		return nil
	}
	return w.watch.watcher.Trends()
}

// RetentionSuspects ranks the current positive-growth keys by windowed
// growth (descending; k <= 0 applies the configured TopSuspects cap).
func (w *World) RetentionSuspects(k int) []LeakTrend {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.watch == nil {
		return nil
	}
	return w.watch.watcher.Suspects(k)
}

// watchSampleLocked runs one watcher sample at the collection barrier.
// Callers hold w.mu with the mutators stopped and w.watch non-nil.
func (w *World) watchSampleLocked() {
	rw := w.watch
	if w.collections%rw.cfg.SampleEvery != 0 {
		return
	}
	if !w.prov.valid {
		return // watch started mid-cycle: nothing harvested yet
	}
	start := time.Now()
	totals, reps := w.watchTotalsLocked(rw)
	alerts := rw.watcher.Observe(w.collections, totals)
	w.met.leakWatched.Inc()
	w.met.leakSuspects.Set(int64(len(rw.watcher.Suspects(1 << 30))))
	for _, a := range alerts {
		la := LeakAlert{
			Key:               a.Key,
			Cycle:             a.Cycle,
			GrowthObjects:     a.GrowthObjects,
			GrowthBytes:       a.GrowthBytes,
			Cycles:            a.Cycles,
			Confidence:        a.Confidence,
			EWMABytesPerCycle: a.EWMABytesPerCycle,
			HighWaterBytes:    a.HighWaterBytes,
			LastObjects:       a.LastObjects,
			LastBytes:         a.LastBytes,
		}
		if rw.cfg.PathHops > 0 {
			if base, ok := reps[a.Key]; ok {
				la.SampleWhyLivePath = w.renderPathLocked(base, rw.cfg.PathHops)
			}
		}
		w.tracer.Emit(trace.EvLeakAlert,
			int64(a.Cycle), a.GrowthBytes, int64(a.Confidence*1000))
		w.met.leakAlerts.Inc()
		if a.GrowthBytes > 0 {
			w.met.leakAlertBytes.Add(uint64(a.GrowthBytes))
		}
		select {
		case rw.ch <- la:
		default:
			w.met.leakDropped.Inc()
		}
	}
	w.met.leakDiffHist.Record(uint64(time.Since(start).Nanoseconds()))
}

// watchTotalsLocked folds the harvested provenance map into retention
// totals per attribution key, plus one representative object per key
// (the highest base address, for a deterministic why-live sample).
// Callers hold w.mu.
func (w *World) watchTotalsLocked(rw *retWatch) (map[string]watch.Totals, map[string]mem.Addr) {
	totals := make(map[string]watch.Totals)
	reps := make(map[string]mem.Addr)
	memo := make(map[mem.Addr]string, len(w.prov.records))
	add := func(key string, bytes uint64, base mem.Addr) {
		t := totals[key]
		t.Objects++
		t.Bytes += bytes
		totals[key] = t
		if base > reps[key] {
			reps[key] = base
		}
	}
	hasOwners := w.Heap.HasOwners()
	for base := range w.prov.records {
		words, _ := w.Heap.ObjectSpan(base)
		bytes := uint64(words * mem.WordBytes)
		add(w.watchRootKey(base, memo), bytes, base)
		if rw.cfg.Label != nil {
			add("label:"+rw.cfg.Label(base), bytes, base)
		}
		if hasOwners {
			if id, ok := w.Heap.OwnerOf(base); ok && id >= 1 && int(id) <= len(w.tenants) {
				add("tenant:"+w.tenants[id-1].Name(), bytes, base)
			}
		}
	}
	return totals, reps
}

// watchUnattributed keys objects whose provenance chain ends without a
// root slot (plain MarkWords scans, or records clipped by a minor).
const watchUnattributed = "(unattributed)"

// watchRootKey resolves the root slot ultimately retaining base by
// walking its parent chain, memoizing the answer for every object on
// the chain so a shared spine is walked once per sample.
func (w *World) watchRootKey(base mem.Addr, memo map[mem.Addr]string) string {
	if k, ok := memo[base]; ok {
		return k
	}
	var chain []mem.Addr
	key := watchUnattributed
	for cur := base; ; {
		if k, ok := memo[cur]; ok {
			key = k
			break
		}
		chain = append(chain, cur)
		rec, ok := w.prov.records[cur]
		if !ok || len(chain) > len(w.prov.records) {
			break // clipped record or a provenance cycle
		}
		if rec.Kind != mark.RootNone {
			key = RootSlotID{Kind: rec.Kind, Src: rec.Src, Index: rec.Index, Addr: rec.Parent}.String()
			break
		}
		if rec.Parent == 0 {
			break
		}
		cur = rec.Parent
	}
	for _, o := range chain {
		memo[o] = key
	}
	return key
}

// renderPathLocked renders a compact root-first why-live path for base,
// bounded to maxHops heap objects ("..." marks the elision). Callers
// hold w.mu with a valid provenance map.
func (w *World) renderPathLocked(base mem.Addr, maxHops int) string {
	path, _ := w.whyLiveLocked(base)
	if len(path) == 0 {
		return ""
	}
	var parts []string
	if last := path[len(path)-1]; last.Kind != mark.RootNone {
		parts = append(parts, RootSlotID{
			Kind: last.Kind, Src: last.Src, Index: last.Index, Addr: last.Parent,
		}.String())
		path = path[:len(path)-1]
	}
	if len(path) > maxHops {
		parts = append(parts, "...")
		path = path[:maxHops]
	}
	for i := len(path) - 1; i >= 0; i-- {
		parts = append(parts, fmt.Sprintf("%#x", path[i].Obj))
	}
	return strings.Join(parts, " -> ")
}
