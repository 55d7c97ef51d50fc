// Package watch is the online leak-detection mechanism: ring-buffered
// trend series over periodic retention samples, one series per
// attribution key (a root slot, a label, a tenant), with windowed
// growth, an EWMA growth rate, high-water marks, and a deterministic
// alert decision.
//
// The package is pure bookkeeping over plain numbers — it does not know
// about heaps, worlds, or provenance records. The integration layer
// (internal/core, watch.go) builds per-key retained-object totals at
// each collection barrier and feeds them to Observe; everything here is
// a function of those totals, so the alert stream for a deterministic
// workload is bit-for-bit reproducible and the leakbench regression
// gate can pin exact detected/false-positive counts.
//
// The confidence model is count-based, not statistical: confidence is
// the fraction of sampled intervals in the window where the key's
// retained bytes grew. A slow leak grows on (nearly) every interval and
// saturates toward 1; a churning root oscillates and hovers near 1/2;
// a stable root never grows and sits at 0. An alert requires a full
// window, windowed growth of at least MinGrowthBytes, and confidence at
// or above the threshold — and re-arming a key requires another
// MinGrowthBytes of growth past the alerted level, so a leak alerts
// periodically as it grows rather than on every sample.
package watch

import "sort"

// Totals is one sampled measurement for one attribution key: the
// objects and bytes the key retained at the sample's collection cycle.
type Totals struct {
	Objects uint64
	Bytes   uint64
}

// Config parameterises a Watcher. The zero value is completed by
// defaults (see New).
type Config struct {
	// SampleEvery is honoured by the caller (sample every Nth
	// collection); it is carried here so the trend cycle spans are
	// interpretable. Default 1.
	SampleEvery int
	// Window is the trend ring capacity in samples; the growth and
	// confidence tests run over this window, and no alert fires before
	// a key's ring is full. Default 8.
	Window int
	// MinGrowthBytes is the windowed growth an alert requires, and the
	// further growth that re-arms an alerted key. Default 4096.
	MinGrowthBytes uint64
	// Confidence is the minimum fraction of window intervals with
	// positive byte growth. Default 0.75.
	Confidence float64
	// EWMAAlpha is the exponential-moving-average weight for the
	// per-cycle growth rate. Default 0.3.
	EWMAAlpha float64
	// TopSuspects caps Suspects rankings. Default 5.
	TopSuspects int
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	if c.Window <= 1 {
		c.Window = 8
	}
	if c.MinGrowthBytes == 0 {
		c.MinGrowthBytes = 4096
	}
	if c.Confidence == 0 {
		c.Confidence = 0.75
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.3
	}
	if c.TopSuspects == 0 {
		c.TopSuspects = 5
	}
	return c
}

// sample is one ring entry.
type sample struct {
	cycle   int
	objects uint64
	bytes   uint64
}

// series is the per-key trend state: a fixed ring of the last Window
// samples plus running aggregates.
type series struct {
	ring []sample
	head int // next write position
	n    int // filled entries, <= len(ring)

	ewma        float64 // EWMA of bytes-per-cycle growth
	ewmaPrimed  bool
	highBytes   uint64
	highObjects uint64

	// alertedBytes is the byte level at the last alert; a key re-arms
	// only after growing MinGrowthBytes past it.
	alertedBytes uint64
	everAlerted  bool
}

func (s *series) push(sm sample) {
	s.ring[s.head] = sm
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
}

// at returns the i-th oldest retained sample, 0 <= i < n.
func (s *series) at(i int) sample {
	return s.ring[(s.head-s.n+i+2*len(s.ring))%len(s.ring)]
}

func (s *series) last() sample { return s.at(s.n - 1) }

// windowStats computes the window's growth and confidence: growth is
// newest minus oldest, confidence the fraction of adjacent intervals
// with positive byte growth.
func (s *series) windowStats() (growthObjects, growthBytes int64, confidence float64) {
	if s.n < 2 {
		return 0, 0, 0
	}
	first, lastS := s.at(0), s.last()
	growthObjects = int64(lastS.objects) - int64(first.objects)
	growthBytes = int64(lastS.bytes) - int64(first.bytes)
	pos := 0
	for i := 1; i < s.n; i++ {
		if s.at(i).bytes > s.at(i-1).bytes {
			pos++
		}
	}
	confidence = float64(pos) / float64(s.n-1)
	return growthObjects, growthBytes, confidence
}

// Alert is one leak alert: a key whose retained bytes grew by at least
// MinGrowthBytes over a full window with the required confidence.
type Alert struct {
	Key               string
	Cycle             int // the sample cycle that raised the alert
	GrowthObjects     int64
	GrowthBytes       int64 // growth over the window
	Cycles            int   // collection-cycle span of the window
	Confidence        float64
	EWMABytesPerCycle float64
	HighWaterBytes    uint64
	LastObjects       uint64
	LastBytes         uint64
}

// Trend is one key's current trend snapshot, for rendering and
// suspect ranking.
type Trend struct {
	Key               string
	Samples           int
	LastCycle         int
	LastObjects       uint64
	LastBytes         uint64
	GrowthObjects     int64 // over the retained window
	GrowthBytes       int64
	WindowCycles      int
	Confidence        float64
	EWMABytesPerCycle float64
	HighWaterBytes    uint64
	HighWaterObjects  uint64
	Alerted           bool // alerted at least once
}

// Watcher accumulates trend series per attribution key.
type Watcher struct {
	cfg     Config
	series  map[string]*series
	samples int
}

// New creates a watcher with cfg completed by defaults.
func New(cfg Config) *Watcher {
	return &Watcher{cfg: cfg.withDefaults(), series: map[string]*series{}}
}

// Config returns the effective (default-completed) configuration.
func (w *Watcher) Config() Config { return w.cfg }

// Samples returns how many Observe calls have been made.
func (w *Watcher) Samples() int { return w.samples }

// Observe folds one retention sample into the trend series and returns
// the alerts it raises, sorted by key. cycle is the collection cycle
// the sample describes. A key absent from totals that has a series is
// recorded as zero (its retention vanished); a series that has decayed
// to all-zero samples is dropped, bounding the series map by the set
// of keys with any recent retention.
func (w *Watcher) Observe(cycle int, totals map[string]Totals) []Alert {
	w.samples++
	keys := make([]string, 0, len(totals)+len(w.series))
	for k := range totals {
		keys = append(keys, k)
	}
	for k := range w.series {
		if _, ok := totals[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var alerts []Alert
	for _, key := range keys {
		t := totals[key]
		s := w.series[key]
		if s == nil {
			if t.Objects == 0 && t.Bytes == 0 {
				continue
			}
			s = &series{ring: make([]sample, w.cfg.Window)}
			w.series[key] = s
		}
		var prev sample
		hadPrev := s.n > 0
		if hadPrev {
			prev = s.last()
		}
		s.push(sample{cycle: cycle, objects: t.Objects, bytes: t.Bytes})
		if t.Bytes > s.highBytes {
			s.highBytes = t.Bytes
		}
		if t.Objects > s.highObjects {
			s.highObjects = t.Objects
		}
		if hadPrev && cycle > prev.cycle {
			rate := (float64(t.Bytes) - float64(prev.bytes)) / float64(cycle-prev.cycle)
			if !s.ewmaPrimed {
				s.ewma, s.ewmaPrimed = rate, true
			} else {
				s.ewma = w.cfg.EWMAAlpha*rate + (1-w.cfg.EWMAAlpha)*s.ewma
			}
		}

		if s.n == len(s.ring) {
			gObj, gBytes, conf := s.windowStats()
			armed := !s.everAlerted || t.Bytes >= s.alertedBytes+w.cfg.MinGrowthBytes
			if armed && gBytes >= int64(w.cfg.MinGrowthBytes) && conf >= w.cfg.Confidence {
				alerts = append(alerts, Alert{
					Key:               key,
					Cycle:             cycle,
					GrowthObjects:     gObj,
					GrowthBytes:       gBytes,
					Cycles:            cycle - s.at(0).cycle,
					Confidence:        conf,
					EWMABytesPerCycle: s.ewma,
					HighWaterBytes:    s.highBytes,
					LastObjects:       t.Objects,
					LastBytes:         t.Bytes,
				})
				s.everAlerted = true
				s.alertedBytes = t.Bytes
			}
		}

		if t.Objects == 0 && t.Bytes == 0 && s.n == len(s.ring) {
			dead := true
			for i := 0; i < s.n; i++ {
				if s.at(i).bytes != 0 || s.at(i).objects != 0 {
					dead = false
					break
				}
			}
			if dead {
				delete(w.series, key)
			}
		}
	}
	return alerts
}

// trend builds the snapshot for one series.
func (w *Watcher) trend(key string, s *series) Trend {
	gObj, gBytes, conf := s.windowStats()
	t := Trend{
		Key:               key,
		Samples:           s.n,
		GrowthObjects:     gObj,
		GrowthBytes:       gBytes,
		Confidence:        conf,
		EWMABytesPerCycle: s.ewma,
		HighWaterBytes:    s.highBytes,
		HighWaterObjects:  s.highObjects,
		Alerted:           s.everAlerted,
	}
	if s.n > 0 {
		last := s.last()
		t.LastCycle = last.cycle
		t.LastObjects = last.objects
		t.LastBytes = last.bytes
		t.WindowCycles = last.cycle - s.at(0).cycle
	}
	return t
}

// Trend returns the named key's trend, if it has a series.
func (w *Watcher) Trend(key string) (Trend, bool) {
	s, ok := w.series[key]
	if !ok {
		return Trend{}, false
	}
	return w.trend(key, s), true
}

// Trends returns every key's trend, sorted by key.
func (w *Watcher) Trends() []Trend {
	keys := make([]string, 0, len(w.series))
	for k := range w.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Trend, 0, len(keys))
	for _, k := range keys {
		out = append(out, w.trend(k, w.series[k]))
	}
	return out
}

// Suspects ranks keys with positive windowed byte growth, largest
// first (ties by key), capped at k (k <= 0 uses Config.TopSuspects).
func (w *Watcher) Suspects(k int) []Trend {
	if k <= 0 {
		k = w.cfg.TopSuspects
	}
	var out []Trend
	for key, s := range w.series {
		t := w.trend(key, s)
		if t.GrowthBytes > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GrowthBytes != out[j].GrowthBytes {
			return out[i].GrowthBytes > out[j].GrowthBytes
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
