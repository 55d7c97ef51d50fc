package inspect

import (
	"strings"
	"testing"

	"repro/internal/blacklist"
	"repro/internal/core"
	"repro/internal/mem"
)

func buildWorld(t *testing.T) *core.World {
	t.Helper()
	w, err := core.NewWorld(nil, core.Config{
		InitialHeapBytes: 64 * 1024,
		ReserveHeapBytes: 1 << 20,
		Blacklisting:     core.BlacklistDense,
		GCDivisor:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestHeapMapShapes(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.Heap.Alloc(1, false); err != nil { // 'a' block
		t.Fatal(err)
	}
	if _, err := w.Heap.Alloc(2, true); err != nil { // 'B' block (atomic)
		t.Fatal(err)
	}
	if _, err := w.Heap.Alloc(3*mem.PageWords, false); err != nil { // '#=='
		t.Fatal(err)
	}
	w.Blacklist.Add(w.Heap.Base() + 10*mem.PageBytes) // '!' on a free page

	m := HeapMap(w.Heap, w.Blacklist, 16)
	for _, want := range []string{"a", "B", "#==", "!", "."} {
		if !strings.Contains(m, want) {
			t.Errorf("map missing %q:\n%s", want, m)
		}
	}
	if !strings.Contains(m, "0x") {
		t.Error("map missing address prefixes")
	}
	// 16 blocks of committed heap -> exactly one row.
	lines := strings.Split(strings.TrimRight(m, "\n"), "\n")
	if len(lines) != 2 { // map row + legend
		t.Fatalf("expected 1 map row + legend, got %d lines:\n%s", len(lines), m)
	}
}

func TestHeapMapDesperateMarker(t *testing.T) {
	w := buildWorld(t)
	// Blacklist everything, then allocate desperately.
	for i := 0; i < w.Heap.NumBlocks(); i++ {
		w.Blacklist.Add(w.Heap.Base() + mem.Addr(i*mem.PageBytes))
	}
	if _, err := w.Heap.AllocDesperate(2, false); err != nil {
		t.Fatal(err)
	}
	m := HeapMap(w.Heap, w.Blacklist, 0)
	if !strings.Contains(m, "*") {
		t.Errorf("map missing desperate marker:\n%s", m)
	}
}

func TestSummary(t *testing.T) {
	w := buildWorld(t)
	p, _ := w.Allocate(2, false)
	data, err := w.Space.MapNew("d", mem.KindData, 0x2000, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	data.Store(0x2000, mem.Word(p))
	w.Collect()
	s := Summary(w)
	for _, want := range []string{"heap:", "live:", "collections: 1", "blacklist:"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "1 objects") {
		t.Errorf("summary should show one live object:\n%s", s)
	}
}

func TestBlacklistedPages(t *testing.T) {
	w := buildWorld(t)
	w.Blacklist.Add(w.Heap.Base() + mem.PageBytes)
	pages := BlacklistedPages(w.Blacklist)
	if len(pages) != 1 || pages[0] != w.Heap.Base()+mem.PageBytes {
		t.Fatalf("pages = %v", pages)
	}
	if BlacklistedPages(blacklist.Disabled{}) != nil {
		t.Error("disabled blacklist should report nil pages")
	}
}

func TestTraceLine(t *testing.T) {
	w := buildWorld(t)
	var lines []string
	n := 0
	w.SetCollectionHook(func(st core.CollectionStats) {
		n++
		lines = append(lines, TraceLine(n, st))
	})
	p, _ := w.Allocate(2, false)
	_ = p
	w.Collect()
	if len(lines) != 1 {
		t.Fatalf("hook fired %d times", len(lines))
	}
	if !strings.Contains(lines[0], "gc 1: full") || !strings.Contains(lines[0], "freed") {
		t.Fatalf("trace line = %q", lines[0])
	}
	// Unregister: no more lines.
	w.SetCollectionHook(nil)
	w.Collect()
	if len(lines) != 1 {
		t.Fatal("hook fired after unregister")
	}
}

func TestTraceLineMinorAndConcurrent(t *testing.T) {
	gw, err := core.NewWorld(nil, core.Config{
		Generational: true, GCDivisor: -1, MinorDivisor: -1,
		InitialHeapBytes: 64 * 1024, ReserveHeapBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Collect()
	st := gw.CollectMinor()
	if line := TraceLine(2, st); !strings.Contains(line, "minor") || !strings.Contains(line, "promoted") {
		t.Fatalf("minor trace line = %q", line)
	}
	cw, err := core.NewWorld(nil, core.Config{
		ConcurrentMark: true, GCDivisor: -1,
		InitialHeapBytes: 64 * 1024, ReserveHeapBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cw.StartConcurrentCycle()
	cst := cw.FinishConcurrentCycle()
	if line := TraceLine(1, cst); !strings.Contains(line, "gc 1: concurrent ") {
		t.Fatalf("concurrent trace line = %q", line)
	}
}
