package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/trace"
)

// watchConfigs are the collector configurations the retention watcher
// must compose with: the battery churns goroutines against each under
// -race via `make race`, and the differential pins bit-identical-off.
var watchConfigs = map[string]Config{
	"full":         {GCDivisor: -1},
	"conc":         {ConcurrentMark: true, GCDivisor: -1},
	"conc-workers": {ConcurrentMark: true, ConcMarkWorkers: 4, GCDivisor: -1},
	"line":         {LineAlloc: true, GCDivisor: -1},
	"tenant":       {GCDivisor: -1},
}

// growLeak prepends n cons cells to the list rooted at slot, via plain
// world stores (single-threaded deterministic workloads).
func growLeak(t *testing.T, w *World, data *mem.Segment, slot mem.Addr, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		prev, err := data.Load(slot)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := w.Allocate(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Store(cell+mem.WordBytes, prev); err != nil {
			t.Fatal(err)
		}
		if err := data.Store(slot, mem.Word(cell)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWatchLeakDetection pins the end-to-end alert surface on one
// world: a planted monotone leak alerts on its exact root-slot key
// with a why-live path, the alert is mirrored as an EvLeakAlert trace
// event and in the leak_* metrics, and the trends/suspects accessors
// see the same growth.
func TestWatchLeakDetection(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1, LazySweep: true})
	data := addData(t, w, "roots", 0x2000, 4096)
	r := w.EnableTracing(1024)
	alerts, err := w.StartRetentionWatch(WatchConfig{
		SampleEvery: 1, Window: 4, MinGrowthBytes: 512, Buffer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w.RetentionWatching() {
		t.Fatal("RetentionWatching() = false after start")
	}
	if _, err := w.StartRetentionWatch(WatchConfig{}); err == nil {
		t.Fatal("second StartRetentionWatch did not error")
	}
	leakKey := RootSlotID{Kind: mark.RootSegment, Src: 0, Index: 0, Addr: 0x2000}.String()
	for round := 1; round <= 8; round++ {
		growLeak(t, w, data, 0x2000, 32) // 256 B per cycle
		w.Collect()
	}
	sus := w.RetentionSuspects(0)
	if len(sus) == 0 || sus[0].Key != leakKey {
		t.Fatalf("suspects = %+v, want %q first", sus, leakKey)
	}
	trends := w.StopRetentionWatch()
	if w.RetentionWatching() {
		t.Fatal("RetentionWatching() = true after stop")
	}
	var got []LeakAlert
	for a := range alerts {
		got = append(got, a)
	}
	if len(got) == 0 {
		t.Fatal("planted leak raised no alerts")
	}
	for _, a := range got {
		if a.Key != leakKey {
			t.Fatalf("alert on key %q, want %q", a.Key, leakKey)
		}
		if a.SampleWhyLivePath == "" || !strings.HasPrefix(a.SampleWhyLivePath, leakKey) {
			t.Fatalf("alert path %q does not start with the root slot", a.SampleWhyLivePath)
		}
	}
	if got[0].Cycle != 4 { // window 4, sampling every cycle
		t.Errorf("first alert at cycle %d, want 4", got[0].Cycle)
	}
	var leakEvents int
	for _, ev := range r.Events() {
		if ev.Kind == trace.EvLeakAlert {
			leakEvents++
		}
	}
	if leakEvents != len(got) {
		t.Errorf("%d EvLeakAlert events for %d alerts", leakEvents, len(got))
	}
	reg := w.Metrics()
	if n := reg.Counter("leak_alerts").Load(); n != uint64(len(got)) {
		t.Errorf("leak_alerts = %d, want %d", n, len(got))
	}
	if n := reg.Counter("leak_watched_cycles").Load(); n != 8 {
		t.Errorf("leak_watched_cycles = %d, want 8", n)
	}
	if n := reg.Counter("leak_alerted_bytes").Load(); n == 0 {
		t.Error("leak_alerted_bytes = 0")
	}
	if reg.Histogram("leak_snapshot_diff_ns_hist").Count() != 8 {
		t.Error("leak_snapshot_diff_ns_hist did not record every sample")
	}
	var found bool
	for _, tr := range trends {
		if tr.Key == leakKey {
			found = true
			if !tr.Alerted || tr.GrowthBytes <= 0 {
				t.Errorf("leak trend %+v, want alerted with positive growth", tr)
			}
		}
	}
	if !found {
		t.Fatalf("final trends %+v missing the leak key", trends)
	}
	if !strings.Contains(w.GCTraceSummary(), "leakwatch 8 samples") {
		t.Errorf("GCTraceSummary %q missing leakwatch segment", w.GCTraceSummary())
	}
}

// TestWatchSampleEvery pins the sampling divisor: only every Nth
// collection builds a snapshot, the rest pay the modulo and return.
func TestWatchSampleEvery(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "roots", 0x2000, 4096)
	if _, err := w.StartRetentionWatch(WatchConfig{SampleEvery: 3}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 9; round++ {
		growLeak(t, w, data, 0x2000, 8)
		w.Collect()
	}
	w.StopRetentionWatch()
	if n := w.Metrics().Counter("leak_watched_cycles").Load(); n != 3 {
		t.Fatalf("leak_watched_cycles = %d over 9 collections with SampleEvery 3, want 3", n)
	}
}

// TestWatchLabelAndTenantKeys pins the optional attribution
// dimensions: a Label callback adds label: keys and a budgeted
// tenant's objects show up under its tenant: key.
func TestWatchLabelAndTenantKeys(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "roots", 0x2000, 4096)
	ten := w.NewTenant(TenantConfig{Name: "acme", BudgetBytes: 1 << 20})
	m := ten.NewMutator()
	if _, err := w.StartRetentionWatch(WatchConfig{
		SampleEvery: 1,
		Label:       func(base mem.Addr) string { return fmt.Sprintf("size-bucket-%d", base%2) },
	}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := m.AllocateRooted(data, 0x2000, 4, false); err != nil {
			t.Fatal(err)
		}
		m.Collect()
	}
	trends := w.StopRetentionWatch()
	var labels, tenants int
	for _, tr := range trends {
		if strings.HasPrefix(tr.Key, "label:") {
			labels++
		}
		if tr.Key == "tenant:acme" {
			tenants++
			if tr.LastObjects == 0 {
				t.Errorf("tenant trend %+v has no objects", tr)
			}
		}
	}
	if labels == 0 {
		t.Errorf("no label: keys in trends %+v", trends)
	}
	if tenants != 1 {
		t.Errorf("tenant:acme appears %d times in trends %+v", tenants, trends)
	}
}

// TestWatchBitIdenticalOff is the zero-cost-when-off guarantee at the
// next level up from provenance: the same workload with a retention
// watcher running and without one yields identical allocation
// addresses and identical CollectionStats up to timing and the
// provenance fields the watcher turns on, in every collector mode.
func TestWatchBitIdenticalOff(t *testing.T) {
	for name, cfg := range watchConfigs {
		cfg := cfg
		tenanted := name == "tenant"
		t.Run(name, func(t *testing.T) {
			run := func(watched bool) ([]mem.Addr, []CollectionStats) {
				w := newWorld(t, cfg)
				data := addData(t, w, "data", 0x2000, 4096)
				var m *Mutator
				if tenanted {
					m = w.NewTenant(TenantConfig{Name: "t0", BudgetBytes: 1 << 20}).NewMutator()
				}
				if watched {
					if _, err := w.StartRetentionWatch(WatchConfig{SampleEvery: 1, Buffer: 256}); err != nil {
						t.Fatal(err)
					}
				}
				var addrs []mem.Addr
				var stats []CollectionStats
				for round := 0; round < 4; round++ {
					if tenanted {
						for i := 0; i < 48; i++ {
							a, err := m.AllocateRooted(data, 0x2000+mem.Addr(4*(i%16)), 2, false)
							if err != nil {
								t.Fatal(err)
							}
							addrs = append(addrs, a)
						}
					} else {
						addrs = append(addrs, churn(t, w, data, 0x2000, 48)...)
					}
					stats = append(stats, w.Collect())
				}
				if watched {
					w.StopRetentionWatch()
				}
				return addrs, stats
			}
			offAddrs, offStats := run(false)
			onAddrs, onStats := run(true)
			if len(offAddrs) != len(onAddrs) {
				t.Fatalf("allocation counts diverge: %d off, %d on", len(offAddrs), len(onAddrs))
			}
			for i := range offAddrs {
				if offAddrs[i] != onAddrs[i] {
					t.Fatalf("allocation %d diverges: %#x off, %#x on",
						i, uint32(offAddrs[i]), uint32(onAddrs[i]))
				}
			}
			for i := range offStats {
				a, b := offStats[i], onStats[i]
				if !b.Provenance {
					t.Fatalf("cycle %d did not record provenance while watched: %+v", i, b)
				}
				if a.Provenance || a.ProvenanceRecords != 0 {
					t.Fatalf("cycle %d recorded provenance while unwatched: %+v", i, a)
				}
				normalizeTimes(&a, &b)
				b.Provenance, b.ProvenanceRecords = false, 0
				if a != b {
					t.Fatalf("cycle %d stats diverge:\noff %+v\non  %+v", i, a, b)
				}
			}
		})
	}
}

// TestWatchBattery churns goroutines against a watched world in every
// collector mode while a planted leak grows: the watcher must survive
// concurrent mutators and background marking (the race detector checks
// via `make race`) and still flag the planted slot.
func TestWatchBattery(t *testing.T) {
	for name, cfg := range watchConfigs {
		cfg := cfg
		cfg.GCDivisor = 16 // let allocation pressure trigger cycles too
		tenanted := name == "tenant"
		t.Run(name, func(t *testing.T) {
			const nMut, slots = 4, 16
			w := newWorld(t, cfg)
			if cfg.ConcurrentMark {
				installClosureOracle(t, w, nil)
			}
			data := addData(t, w, "roots", 0x2000, (nMut*slots+1)*4)
			leakSlot := mem.Addr(0x2000 + nMut*slots*4)
			alerts, err := w.StartRetentionWatch(WatchConfig{
				SampleEvery: 1, Window: 4, MinGrowthBytes: 1024, Buffer: 1024,
			})
			if err != nil {
				t.Fatal(err)
			}
			var leakKeyAlerts int
			leakKey := RootSlotID{
				Kind: mark.RootSegment, Src: 0,
				Index: int32(nMut * slots), Addr: leakSlot,
			}.String()
			maint := w.NewMutator()
			muts := make([]*Mutator, nMut)
			for g := range muts {
				if tenanted {
					muts[g] = w.NewTenant(TenantConfig{
						Name: fmt.Sprintf("t%d", g), BudgetBytes: 1 << 20,
					}).NewMutator()
				} else {
					muts[g] = w.NewMutator()
				}
			}
			for round := 1; round <= 8; round++ {
				// The planted leak: 128 cells (1 KiB) per round through a
				// mutator handle, so the concurrent write barrier applies.
				for i := 0; i < 128; i++ {
					prev, err := maint.Load(leakSlot)
					if err != nil {
						t.Fatal(err)
					}
					cell, err := maint.AllocateRooted(data, leakSlot, 2, false)
					if err != nil {
						t.Fatal(err)
					}
					if err := maint.Store(cell+mem.WordBytes, prev); err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				errs := make([]error, nMut)
				for g := 0; g < nMut; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						base := mem.Addr(0x2000 + g*slots*4)
						_, errs[g] = churnMutator(w, muts[g], data, base,
							uint32(round*nMut+g+1), 300)
					}(g)
				}
				wg.Wait()
				for g, err := range errs {
					if err != nil {
						t.Fatalf("round %d mutator %d: %v", round, g, err)
					}
				}
				w.Collect()
				for drained := false; !drained; {
					select {
					case a := <-alerts:
						if a.Key == leakKey {
							leakKeyAlerts++
						}
					default:
						drained = true
					}
				}
			}
			// Detection phase: with the churn goroutines quiesced, grow only
			// the leak for a window-plus-slack of rounds. Every sampled
			// interval from here on shows the leak key gaining, so the
			// confidence model must converge and alert regardless of how
			// many automatic collections the churn phase interleaved.
			for round := 0; round < 6; round++ {
				growLeak(t, w, data, leakSlot, 512) // 4 KiB per round
				w.Collect()
			}
			trends := w.StopRetentionWatch()
			for a := range alerts {
				if a.Key == leakKey {
					leakKeyAlerts++
				}
			}
			if leakKeyAlerts == 0 {
				t.Fatalf("planted leak never alerted (%d trend keys)", len(trends))
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCollectZeroAllocsUnwatched closes the overhead budget: after a
// watcher has run and been stopped, steady-state collections are
// allocation-free again — the barrier is back to one nil compare.
func TestCollectZeroAllocsUnwatched(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	churn(t, w, data, 0x2000, 64)
	if _, err := w.StartRetentionWatch(WatchConfig{SampleEvery: 1}); err != nil {
		t.Fatal(err)
	}
	w.Collect()
	w.Collect()
	w.StopRetentionWatch()
	w.Collect()
	avg := testing.AllocsPerRun(10, func() { w.Collect() })
	if avg != 0 {
		t.Fatalf("unwatched Collect allocates %v times per cycle, want 0", avg)
	}
}

// TestTraceJSONHistograms pins the histogram export: a recorder
// attached with SetTracer carries the world's pause distributions in
// its JSON dump.
func TestTraceJSONHistograms(t *testing.T) {
	w := newWorld(t, Config{GCDivisor: -1})
	data := addData(t, w, "data", 0x2000, 4096)
	r := w.EnableTracing(256)
	churn(t, w, data, 0x2000, 64)
	w.Collect()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"histograms"`) {
		t.Fatalf("trace JSON has no histograms section:\n%s", out)
	}
	for _, name := range []string{"mark_pause_ns_hist", "sweep_pause_ns_hist"} {
		if !strings.Contains(out, name) {
			t.Errorf("trace JSON missing histogram %q", name)
		}
	}
}
