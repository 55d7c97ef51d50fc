// Package inspect renders human-readable views of a collected world:
// a block-by-block heap map and a statistics summary. It backs the
// cmd/heapdump tool and is handy when debugging retention experiments —
// the textual equivalent of the paper's "quick examination of the
// blacklist" (observation 7).
package inspect

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/core"
	"repro/internal/mem"
)

// Map legend:
//
//	.   free block
//	!   free block on a blacklisted page
//	a-z small-object block (a = 1-word class, later letters = larger),
//	    uppercase when the block is pointer-free (atomic)
//	#   large-object head block
//	=   large-object continuation block
//	*   dedicated block on a blacklisted page (desperate allocation)
const legend = ".  free   !  blacklisted free   a-z  small (A-Z atomic)   #  large   =  cont   *  dedicated+blacklisted"

// classLetter maps an object size in words to a map letter.
func classLetter(words int, atomic bool) byte {
	c, _ := alloc.ClassFor(words)
	l := byte('a' + min(c, 25))
	if atomic {
		l = l - 'a' + 'A'
	}
	return l
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// HeapMap renders one character per committed block, width blocks per
// line, each line prefixed with its starting address.
func HeapMap(heap *alloc.Allocator, bl blacklist.List, width int) string {
	if width <= 0 {
		width = 64
	}
	var sb strings.Builder
	n := heap.NumBlocks()
	for i := 0; i < n; i++ {
		info := heap.BlockInfo(i)
		if i%width == 0 {
			if i > 0 {
				sb.WriteByte('\n')
			}
			// The row prefix is the first block's own address: correct
			// even when the heap is discontinuous and block indices jump
			// between extents.
			fmt.Fprintf(&sb, "%#08x ", uint32(info.Base))
		}
		listed := bl.Contains(info.Base)
		switch info.State {
		case alloc.BlockFree:
			if listed {
				sb.WriteByte('!')
			} else {
				sb.WriteByte('.')
			}
		case alloc.BlockSmall:
			if listed {
				sb.WriteByte('*')
			} else {
				sb.WriteByte(classLetter(info.ObjWords, info.Atomic))
			}
		case alloc.BlockLargeHead:
			sb.WriteByte('#')
		case alloc.BlockLargeCont:
			sb.WriteByte('=')
		}
	}
	sb.WriteByte('\n')
	sb.WriteString(legend)
	sb.WriteByte('\n')
	return sb.String()
}

// Summary renders the world's allocator, blacklist and collection
// statistics as text.
func Summary(w *core.World) string {
	st := w.Heap.Stats()
	bl := w.Blacklist.Stats()
	last := w.LastCollection()
	var sb strings.Builder
	fmt.Fprintf(&sb, "heap:        %d KiB committed at %#08x (%d blocks: %d dedicated, %d free)\n",
		st.HeapBytes/1024, uint32(w.Heap.Base()), w.Heap.NumBlocks(), st.BlocksDedicated, st.BlocksFree)
	fmt.Fprintf(&sb, "live:        %d objects, %d KiB (after last sweep)\n",
		st.ObjectsLive, st.BytesLive/1024)
	fmt.Fprintf(&sb, "allocated:   %d objects, %d KiB lifetime; %d expansions; %d desperate\n",
		st.ObjectsAllocated, st.BytesAllocated/1024, st.Expansions, st.DesperateAllocs)
	fmt.Fprintf(&sb, "collections: %d (last freed %d objects, marked %d, scanned %d root words)\n",
		w.Collections(), last.Sweep.ObjectsFreed, last.Mark.ObjectsMarked, last.Mark.WordsScanned)
	fmt.Fprintf(&sb, "blacklist:   %d pages listed; %d adds, %d hits, %d expired; %d placement skips\n",
		w.Blacklist.Len(), bl.Adds, bl.Hits, bl.Expired, st.BlacklistSkips)
	return sb.String()
}

// BlacklistedPages returns the blacklisted page addresses of a dense
// blacklist, or nil for other kinds.
func BlacklistedPages(bl blacklist.List) []mem.Addr {
	if d, ok := bl.(*blacklist.Dense); ok {
		return d.Granules()
	}
	return nil
}

// TraceLine renders one collection in the style of the Go runtime's
// gctrace lines, for SetCollectionHook logging:
//
//	gc 3: full 1.2ms: 5000 live (40 KiB), 120 freed, heap 1024 KiB
//	gc 4: minor 0.1ms: 5100 live, 80 freed, 3 dirty blocks, 12 promoted
func TraceLine(n int, st core.CollectionStats) string {
	line := fmt.Sprintf("gc %d: %s %.2fms: %d live (%d KiB), %d freed, heap %d KiB",
		n, st.Kind(), float64(st.Duration.Microseconds())/1000,
		st.Sweep.ObjectsLive, st.Sweep.BytesLive/1024,
		st.Sweep.ObjectsFreed, st.HeapBytes/1024)
	if st.Minor {
		line += fmt.Sprintf(", %d dirty blocks, %d promoted", st.DirtyBlocks, st.Promoted)
	}
	return line
}
