package core

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func findMetric(t *testing.T, samples []metrics.Sample, name string) metrics.Sample {
	t.Helper()
	for _, s := range samples {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("metric %q not registered", name)
	return metrics.Sample{}
}

func countPacerEvents(rec *trace.Recorder) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvPacerAssist {
			n++
		}
	}
	return n
}

// TestPacerAssistAccounting pins the rate-based assist deterministically:
// the cycle is started explicitly and nothing steps it, so the only
// thing crediting or debiting the pacer is this test's own
// allocations.
// An allocation burst against the open cycle must run proportional
// assists (trace events + pacer_assist_ns), and allocations outside a
// cycle must run none.
func TestPacerAssistAccounting(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	rec := w.EnableTracing(0)
	data := addData(t, w, "data", 0x2000, 4096)

	// Root a chain of large objects so the cycle has real marking work
	// for assists to pull.
	var prev mem.Addr
	for i := 0; i < 64; i++ {
		p, err := w.Allocate(128, false)
		if err != nil {
			t.Fatal(err)
		}
		if prev == 0 {
			if err := data.Store(0x2000, mem.Word(p)); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := w.Store(prev, mem.Word(p)); err != nil {
				t.Fatal(err)
			}
		}
		prev = p
	}

	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	// Burst: every slow-path allocation while the cycle is open debits
	// the pacer by bytes*ratio. The first allocation after the snapshot
	// carries no debt (delta accounting starts at the snapshot cursor),
	// so from the second onwards the debt is positive until assists
	// repay it. Assert at least one assist fired, not an exact count —
	// how much one chunk credits depends on object scan order.
	for i := 0; i < 16; i++ {
		if _, err := w.Allocate(600, false); err != nil {
			t.Fatal(err)
		}
	}
	burstAssists := countPacerEvents(rec)
	if burstAssists < 1 {
		t.Fatalf("allocation burst against an open cycle ran %d assists, want >= 1", burstAssists)
	}
	if s := findMetric(t, w.MetricsSnapshot(), "pacer_assist_ns"); s.Kind != "counter" {
		t.Fatalf("pacer_assist_ns registered as %q, want counter", s.Kind)
	}
	findMetric(t, w.MetricsSnapshot(), "pacer_credit_bytes")

	for steps := 0; !w.ConcurrentStep(16); steps++ {
		if steps > 1_000_000 {
			t.Fatal("cycle did not terminate")
		}
	}

	// Idle: no cycle active, so allocations must not assist at all.
	after := countPacerEvents(rec)
	for i := 0; i < 16; i++ {
		if _, err := w.Allocate(600, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := countPacerEvents(rec); got != after {
		t.Fatalf("allocations outside a cycle emitted %d assist events", got-after)
	}
}

// TestPacerScheduleFromHeadroom pins what the pacer schedules against:
// the heap's free space at the snapshot, not the allocation that
// triggers cycles. The same rooted live set sits in two heap sizes, a
// cycle is opened by hand (no goroutine), and one
// slow-path allocation after a first one of known size reads its debt
// off pacer_credit_bytes. Every object is rooted directly and holds
// only zeros, so the snapshot grays them all and scanning one marks
// nothing: the assist that slow path runs credits nothing, and the
// gauge reads the debt alone. A few of the objects are allocated after
// the last collection, as on a heap that grows. The debt per allocated
// byte must be (live + allocated since) / (pacerShare × free), where
// free is the space left at the snapshot — heap less live less
// allocated since — the larger heap must owe less, and the trigger
// divisor must not enter it at all.
func TestPacerScheduleFromHeadroom(t *testing.T) {
	// 100 KiB live (above the pacer's 64 KiB floor), the last 2 KiB of it
	// allocated after the last collection: under every trigger tested.
	const objs, since, words = 200, 4, 128
	debt := func(heapBytes, div int) (perByte float64) {
		w := newWorld(t, Config{
			ConcurrentMark: true, GCDivisor: div, MarkQuantum: 16,
			InitialHeapBytes: heapBytes, ReserveHeapBytes: heapBytes,
		})
		data := addData(t, w, "data", 0x2000, 4096)
		for i := 0; i < objs; i++ {
			p, err := w.Allocate(words, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := data.Store(0x2000+mem.Addr(4*i), mem.Word(p)); err != nil {
				t.Fatal(err)
			}
			// A collection after each object but the last few keeps a
			// positive divisor's trigger from opening a cycle of its own
			// during the build.
			if i < objs-since {
				w.Collect()
			}
		}
		st := w.Heap.Stats()
		if st.BytesLive < 64<<10 || st.BytesSinceGC == 0 {
			t.Fatalf("live set is %d bytes with %d allocated since the last collection", st.BytesLive, st.BytesSinceGC)
		}
		free := uint64(st.HeapBytes) - st.BytesLive - st.BytesSinceGC
		want := float64(st.BytesLive+st.BytesSinceGC) / (pacerShare * float64(free))
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		// The first allocation carries no debt (the pacer's cursor starts
		// at the snapshot); the second owes for it.
		before := w.Heap.Stats().BytesAllocated
		if _, err := w.Allocate(600, false); err != nil {
			t.Fatal(err)
		}
		allocated := w.Heap.Stats().BytesAllocated - before
		if _, err := w.Allocate(2, false); err != nil {
			t.Fatal(err)
		}
		owed := -findMetric(t, w.MetricsSnapshot(), "pacer_credit_bytes").Value
		if exact := int64(float64(allocated) * want); owed != exact {
			t.Fatalf("heap %d, GCDivisor %d: %d bytes allocated owe %d, want %d (%.3f per byte = (live %d + since %d) / (%.2f × free left %d))",
				heapBytes, div, allocated, owed, exact, want, st.BytesLive, st.BytesSinceGC, pacerShare, free)
		}
		if !w.ConcurrentActive() {
			t.Fatal("the assist ended the cycle: the debt was repaid by marking, not read")
		}
		w.FinishConcurrentCycle()
		return float64(owed) / float64(allocated)
	}
	small, large := 256<<10, 1<<20
	for _, heap := range []int{small, large} {
		ref := debt(heap, -1)
		for _, div := range []int{16, 64} {
			if got := debt(heap, div); got != ref {
				t.Errorf("heap %d: debt per byte %.4f at GCDivisor %d, %.4f with no trigger", heap, got, div, ref)
			}
		}
	}
	if s, l := debt(small, -1), debt(large, -1); l >= s {
		t.Errorf("the %d-byte heap owes %.4f per byte, the %d-byte heap %.4f: more free space must owe less",
			large, l, small, s)
	}
}

// TestPacerCreditSuppressesAssist pins the other direction: when marking
// is already ahead of allocation (the whole gray set drained before the
// mutator allocates), the accrued credit covers the allocation debt and
// the slow path never assists.
func TestPacerCreditSuppressesAssist(t *testing.T) {
	w := newWorld(t, Config{ConcurrentMark: true, GCDivisor: -1})
	rec := w.EnableTracing(0)
	data := addData(t, w, "data", 0x2000, 4096)
	p, err := w.Allocate(600, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.Store(0x2000, mem.Word(p)); err != nil {
		t.Fatal(err)
	}
	if err := w.StartConcurrentCycle(); err != nil {
		t.Fatal(err)
	}
	// Mark the 2400-byte root up front: its credit far exceeds the
	// debt the small allocations below accrue, so none of them assists.
	w.ConcurrentStep(16)
	for i := 0; i < 16; i++ {
		if _, err := w.Allocate(2, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := countPacerEvents(rec); got != 0 {
		t.Fatalf("mutator allocating behind a healthy mark phase saw %d assist events, want 0", got)
	}
	for steps := 0; !w.ConcurrentStep(16); steps++ {
		if steps > 1_000_000 {
			t.Fatal("cycle did not terminate")
		}
	}
}

// rootObjects allocates n objects of words words through the direct
// path, roots each in its own word of data, and collects, so the last
// close's live bytes are exactly theirs and nothing is allocated since.
func rootObjects(t *testing.T, w *World, data *mem.Segment, n, words int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := w.Allocate(words, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := data.Store(data.Base()+mem.Addr(mem.WordBytes*i), mem.Word(p)); err != nil {
			t.Fatal(err)
		}
	}
	w.Collect()
}

// TestPacerTriggerFromRunway pins when an allocation opens a concurrent
// cycle (triggerLocked): at the first allocation whose BytesSinceGC
// exceeds max(heap/GCDivisor, free − runwayShare × free), free being
// the heap less the last close's live bytes. The direct World path and one Mutator handle run the same tape
// of garbage and must open at the same allocation: the handle's fast
// path diverts exactly where the central check fires. On a roomy heap
// the runway binds, well after GCDivisor 16's interval; on a tight one
// (live past a third of the heap) GCDivisor 2's interval binds, so the
// cycle opens exactly where it did before the runway existed; and
// GCDivisor -1 opens none.
func TestPacerTriggerFromRunway(t *testing.T) {
	const heapBytes, words = 256 << 10, 4
	_, classWords := alloc.ClassFor(words)
	objBytes := uint64(classWords * mem.WordBytes)
	cases := []struct {
		name     string
		div      int
		liveObjs int // 512-byte objects rooted before the tape
		binds    string
	}{
		{"runway", 16, 40, "runway"},
		{"tight", 2, 200, "interval"},
		{"off", -1, 40, "none"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// opened runs the tape and returns the index of the allocation
			// that opened the first cycle (-1: none did) and the trigger
			// point the world's live bytes call for.
			opened := func(handle bool) (int, uint64) {
				w := newWorld(t, Config{
					ConcurrentMark: true, GCDivisor: tc.div,
					InitialHeapBytes: heapBytes, ReserveHeapBytes: heapBytes,
				})
				data := addData(t, w, "data", 0x2000, 4096)
				rootObjects(t, w, data, tc.liveObjs, 128)
				st := w.Heap.Stats()
				free := uint64(st.HeapBytes) - st.BytesLive
				at := free - uint64(runwayShare*float64(free))
				if tc.div > 0 {
					at = max(at, uint64(st.HeapBytes/tc.div))
				}
				m := w.NewMutator()
				triggered, collections := w.met.allocTriggered.Load(), w.Collections()
				for i := 0; uint64(i)*objBytes < free*15/16; i++ {
					var err error
					if handle {
						_, err = m.Allocate(words, false)
					} else {
						_, err = w.Allocate(words, false)
					}
					if err != nil {
						t.Fatal(err)
					}
					if w.met.allocTriggered.Load() > triggered {
						w.FinishConcurrentCycle()
						return i, at
					}
				}
				if w.ConcurrentActive() || w.Collections() != collections {
					t.Fatalf("a cycle ran without the trigger: %d collections, %d before the tape", w.Collections(), collections)
				}
				return -1, at
			}
			direct, at := opened(false)
			viaHandle, _ := opened(true)
			if direct != viaHandle {
				t.Fatalf("the direct path opened its cycle at allocation %d, the handle at %d", direct, viaHandle)
			}
			want := int(at/objBytes) + 1 // the first whose since (i × objBytes) exceeds at
			switch tc.binds {
			case "none":
				want = -1
			case "interval":
				if at != heapBytes/2 {
					t.Fatalf("trigger at %d bytes, want the interval heap/2 = %d", at, heapBytes/2)
				}
			case "runway":
				if at <= heapBytes/16 {
					t.Fatalf("trigger at %d bytes, not past the interval heap/16 = %d", at, heapBytes/16)
				}
			}
			if direct != want {
				t.Fatalf("cycle opened at allocation %d, want %d (trigger at %d bytes of %d-byte objects)", direct, want, at, objBytes)
			}
		})
	}
}

// TestPacerTriggerMirrorMatchesCentral pins the handle's fast-path
// trigger mirror (resyncLocked) to the central check (dueCycleLocked):
// both read triggerLocked. A mirror armed below the central trigger
// diverts every allocation past it to the slow path, where nothing
// fires, until something else resets the count. One handle allocates a
// fixed tape of 4-word garbage in a 1 MiB heap; its slow paths must
// stay within the refills the tape needs plus one diversion per
// collection.
func TestPacerTriggerMirrorMatchesCentral(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		n    int
	}{
		{"gen", Config{Generational: true, GCDivisor: 16}, 40_000},
		{"conc-runway", Config{ConcurrentMark: true, GCDivisor: 16}, 200_000},
		{"stw", Config{GCDivisor: 4}, 200_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.cfg)
			m := w.NewMutator()
			for i := 0; i < tc.n; i++ {
				if _, err := m.Allocate(4, false); err != nil {
					t.Fatal(err)
				}
			}
			w.FinishConcurrentCycle()
			st := m.Stats()
			// A refill carves a whole hole: on this all-garbage tape,
			// nearly always a fresh block of 256 slots. A quarter of that
			// is room for the holes of the blocks held caches keep mixed.
			refills, collections := uint64(tc.n/64+1), uint64(w.Collections())
			if st.SlowAllocs > refills+collections {
				t.Fatalf("%d of %d allocations took the slow path, want at most %d refills + %d collections",
					st.SlowAllocs, tc.n, refills, collections)
			}
		})
	}
}

// TestKeptTriggerMatchesFresh: the world keeps triggerLocked's result
// and recomputes it only where its inputs change, at a close and at
// heap growth. In every mode, a program whose live list keeps growing,
// beside garbage, must find the kept trigger equal to a fresh reading
// after every close (the collection hook) and after every allocation
// that grew the heap.
func TestKeptTriggerMatchesFresh(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.Name, func(t *testing.T) {
			w := newWorld(t, mode.Apply(Config{GCDivisor: 4, InitialHeapBytes: 64 << 10}))
			data := addData(t, w, "data", 0x2000, 4096)
			check := func(when string) {
				at, kind, armed := w.triggerLocked()
				if w.trigAt != at || w.trigKind != kind || w.trigArmed != armed {
					t.Fatalf("after %s: kept trigger (%d, %d, %v), fresh (%d, %d, %v)",
						when, w.trigAt, w.trigKind, w.trigArmed, at, kind, armed)
				}
			}
			closes, expansions := 0, 0
			w.SetCollectionHook(func(CollectionStats) { closes++; check("a close") })
			var head mem.Addr
			for i := 0; i < 60_000; i++ {
				before := w.Heap.Stats().Expansions
				p, err := w.Allocate(16, false)
				if err != nil {
					t.Fatal(err)
				}
				if i%3 == 0 {
					// Keep one object in three on a list rooted in data.
					if err := w.Store(p, mem.Word(head)); err != nil {
						t.Fatal(err)
					}
					if err := data.Store(0x2000, mem.Word(p)); err != nil {
						t.Fatal(err)
					}
					head = p
				}
				if w.Heap.Stats().Expansions != before {
					expansions++
					w.mu.Lock()
					check("heap growth")
					w.mu.Unlock()
				}
			}
			if closes < 5 || expansions < 3 {
				t.Fatalf("%d closes and %d expansions, want at least 5 and 3", closes, expansions)
			}
		})
	}
}

// TestPacerForcedFinales pins gc_forced_finales, the concurrent cycles
// whose finale an allocation's ErrNeedMemory forced — the cycle's own
// allocation outran its marking, which the pacer exists to prevent. A
// cycle started by hand, marked one object per chunk and never stepped,
// is starved into exhaustion by large allocations: exactly one forced
// finale, shown in GCTraceSummary's pacer segment. A run the trigger
// opens and the pacer schedules, on the same heap, forces none over a
// dozen cycles.
func TestPacerForcedFinales(t *testing.T) {
	const heapBytes = 256 << 10
	t.Run("starved", func(t *testing.T) {
		w := newWorld(t, Config{
			ConcurrentMark: true, GCDivisor: -1, MarkQuantum: 1,
			InitialHeapBytes: heapBytes, ReserveHeapBytes: heapBytes,
		})
		data := addData(t, w, "data", 0x2000, 4096)
		// A chain of 2000 small objects: a chunk of one object a round, four
		// rounds an allocation, cannot reach its end before the heap fills.
		var prev mem.Addr
		for i := 0; i < 2000; i++ {
			p, err := w.Allocate(4, false)
			if err != nil {
				t.Fatal(err)
			}
			if prev == 0 {
				err = data.Store(0x2000, mem.Word(p))
			} else {
				err = w.Store(prev, mem.Word(p))
			}
			if err != nil {
				t.Fatal(err)
			}
			prev = p
		}
		w.Collect()
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*heapBytes/2400; i++ {
			if _, err := w.Allocate(600, false); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.met.forcedFinales.Load(); got != 1 {
			t.Fatalf("gc_forced_finales = %d after one starved cycle, want 1", got)
		}
		if s := w.GCTraceSummary(); !strings.Contains(s, "forced finales 1") {
			t.Fatalf("summary does not show the forced finale: %s", s)
		}
	})
	t.Run("paced", func(t *testing.T) {
		w := newWorld(t, Config{
			ConcurrentMark: true, GCDivisor: 16,
			InitialHeapBytes: heapBytes, ReserveHeapBytes: heapBytes,
		})
		data := addData(t, w, "data", 0x2000, 4096)
		rootObjects(t, w, data, 200, 128)
		for i := 0; i < 100_000; i++ {
			if _, err := w.Allocate(4, false); err != nil {
				t.Fatal(err)
			}
		}
		w.FinishConcurrentCycle()
		if n := w.Collections(); n < 10 {
			t.Fatalf("the tape ran %d collections, want at least 10", n)
		}
		if v, ok := w.Metrics().Value("gc_forced_finales"); !ok || v != 0 {
			t.Fatalf("gc_forced_finales = %d (registered %v) over a paced run, want 0", v, ok)
		}
	})
}
