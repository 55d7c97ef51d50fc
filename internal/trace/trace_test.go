package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestEmitAndEventsInOrder(t *testing.T) {
	r := New(16)
	for i := 0; i < 10; i++ {
		r.Emit(EvCycleBegin, int64(i), 0, 0)
	}
	evs := r.Events()
	if len(evs) != 10 {
		t.Fatalf("len(Events) = %d, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != EvCycleBegin || ev.A0 != int64(i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if i > 0 && ev.TimeNs < evs[i-1].TimeNs {
			t.Fatalf("timestamps regress at %d: %d < %d", i, ev.TimeNs, evs[i-1].TimeNs)
		}
	}
	if r.Emitted() != 10 || r.Dropped() != 0 {
		t.Fatalf("Emitted/Dropped = %d/%d", r.Emitted(), r.Dropped())
	}
}

func TestWraparoundKeepsNewest(t *testing.T) {
	r := New(8)
	for i := 0; i < 20; i++ {
		r.Emit(EvMarkEnd, int64(i), 0, 0)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("len(Events) = %d, want capacity 8", len(evs))
	}
	// The survivors are the newest 8, still oldest-first.
	for i, ev := range evs {
		if want := int64(12 + i); ev.A0 != want {
			t.Fatalf("event %d has A0 %d, want %d", i, ev.A0, want)
		}
	}
	if r.Emitted() != 20 {
		t.Fatalf("Emitted = %d, want 20", r.Emitted())
	}
	if r.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", r.Dropped())
	}
}

func TestWraparoundAtExactCapacity(t *testing.T) {
	r := New(4)
	for i := 0; i < 4; i++ {
		r.Emit(EvSweepEnd, int64(i), 0, 0)
	}
	evs := r.Events()
	if len(evs) != 4 || evs[0].A0 != 0 || evs[3].A0 != 3 {
		t.Fatalf("events at exact capacity: %+v", evs)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d at exact capacity", r.Dropped())
	}
}

func TestReset(t *testing.T) {
	r := New(4)
	for i := 0; i < 9; i++ {
		r.Emit(EvSafepoint, int64(i), 0, 0)
	}
	r.Reset()
	if len(r.Events()) != 0 || r.Emitted() != 0 || r.Dropped() != 0 {
		t.Fatalf("Reset left state: %d events, %d emitted, %d dropped",
			len(r.Events()), r.Emitted(), r.Dropped())
	}
	r.Emit(EvSafepoint, 42, 0, 0)
	if evs := r.Events(); len(evs) != 1 || evs[0].A0 != 42 {
		t.Fatalf("post-Reset events: %+v", evs)
	}
}

// The disabled state is a nil recorder; emitting through it must do
// nothing and allocate nothing — this is the fast path every un-traced
// collection takes.
func TestDisabledEmitZeroAllocs(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(EvBlacklistPage, 0xdead, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %.1f per call, want 0", allocs)
	}
	if r.Events() != nil || r.Emitted() != 0 || r.Capacity() != 0 {
		t.Fatal("nil recorder accessors not empty")
	}
	r.Reset() // must not panic
}

// Enabled emits must not allocate either: the buffer is preallocated
// and events are fixed-size values.
func TestEnabledEmitZeroAllocs(t *testing.T) {
	r := New(64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(EvSweepDrain, 1, 2, 3)
	})
	if allocs != 0 {
		t.Fatalf("enabled Emit allocates %.1f per call, want 0", allocs)
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(EvCacheRefill, int64(g), int64(i), 0)
			}
		}(g)
	}
	wg.Wait()
	if r.Emitted() != 4000 {
		t.Fatalf("Emitted = %d, want 4000", r.Emitted())
	}
	if got := len(r.Events()); got != 128 {
		t.Fatalf("surviving events = %d, want 128", got)
	}
}

func TestWriteJSON(t *testing.T) {
	r := New(8)
	r.Emit(EvCycleBegin, 1, 4096, 0)
	r.Emit(EvCycleEnd, 1, 10, 80)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Capacity int    `json:"capacity"`
		Emitted  uint64 `json:"emitted"`
		Dropped  uint64 `json:"dropped"`
		Events   []struct {
			TimeNs int64    `json:"t_ns"`
			Kind   string   `json:"kind"`
			Args   [3]int64 `json:"args"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Capacity != 8 || doc.Emitted != 2 || doc.Dropped != 0 {
		t.Fatalf("envelope = %+v", doc)
	}
	if len(doc.Events) != 2 || doc.Events[0].Kind != "cycle_begin" ||
		doc.Events[1].Kind != "cycle_end" || doc.Events[1].Args != [3]int64{1, 10, 80} {
		t.Fatalf("events = %+v", doc.Events)
	}
}

func TestNilWriteJSON(t *testing.T) {
	var r *Recorder
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"events": []`)) {
		t.Fatalf("nil export = %s", buf.String())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(255).String() != "unknown" {
		t.Fatal("out-of-range kind not reported unknown")
	}
}
