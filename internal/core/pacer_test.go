package core

import (
	"testing"

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
// the cycle is started explicitly (no background driver goroutine), so
// the only thing crediting or debiting the pacer is this test's own
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
// byte must be (live + allocated since) / (pacerShare × free), the
// larger heap must owe less, and the trigger divisor must not enter it
// at all.
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
		free := uint64(st.HeapBytes) - st.BytesLive
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
			t.Fatalf("heap %d, GCDivisor %d: %d bytes allocated owe %d, want %d (%.3f per byte = (live %d + since %d) / (%.2f × free %d))",
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
