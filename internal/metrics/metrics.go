// Package metrics is the collector's counter/gauge registry: the
// always-on, numbers-only complement to the event trace
// (internal/trace). A production collector must explain itself in the
// field without a postmortem heap dump, so the registry keeps cheap
// atomic aggregates — bytes allocated, objects swept, blacklist hits,
// barrier shades, pending-block depth — that a scraper can snapshot at
// any time, while CollectionStats remains the per-cycle view of the
// same accounting (the core tests assert the two agree).
//
// Counters are monotonic (cycle totals, pause nanoseconds); gauges
// track current levels (heap bytes, live objects, pending blocks) and
// mirrors of cumulative figures owned elsewhere (allocator and
// blacklist stats, refreshed by core on snapshot). All operations are
// lock-free atomics, safe from any goroutine, and nil receivers
// no-op so optional metrics cost one compare when absent.
package metrics

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions.
type Gauge struct{ v atomic.Int64 }

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Sample is one metric's name, kind and value at snapshot time.
type Sample struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "counter" | "gauge"
	Value int64  `json:"value"`
}

// Registry is a named collection of counters and gauges. Counter and
// Gauge are get-or-create, so independent subsystems can share a
// metric by name; Snapshot reports in registration order.
type Registry struct {
	mu       sync.Mutex
	order    []string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	// Histograms (histogram.go) keep their own namespace and ordering:
	// Snapshot stays scalar-only, so its shape is stable for scrapers.
	hists  map[string]*Histogram
	horder []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use. A name holds either a counter or a gauge, never both; a
// kind clash returns a detached metric rather than corrupting the
// registered one.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if _, clash := r.gauges[name]; clash {
		return &Counter{}
	}
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use (see Counter for the kind-clash rule).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if _, clash := r.counters[name]; clash {
		return &Gauge{}
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Value returns the named metric's current value and whether it
// exists.
func (r *Registry) Value(name string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return int64(c.Load()), true
	}
	if g, ok := r.gauges[name]; ok {
		return g.Load(), true
	}
	return 0, false
}

// Snapshot returns every metric's current value in registration order.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.order))
	for _, name := range r.order {
		if c, ok := r.counters[name]; ok {
			out = append(out, Sample{Name: name, Kind: "counter", Value: int64(c.Load())})
		} else if g, ok := r.gauges[name]; ok {
			out = append(out, Sample{Name: name, Kind: "gauge", Value: g.Load()})
		}
	}
	return out
}

// WriteJSON exports the snapshot as one indented JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = []Sample{}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
