package repro

import "testing"

// TestFragmentationSpaceAccounting runs the fragmentation churn under
// both allocation profiles, with small objects interleaved so
// dedicated small blocks (and, under LineAlloc, partly-live lines)
// exist, and asserts the reported space metrics are internally
// consistent: every committed byte lands in exactly one bucket, and
// the line-waste metric is a subdivision of the free-slot space.
func TestFragmentationSpaceAccounting(t *testing.T) {
	const heapBytes = 8 << 20
	for _, lineAlloc := range []bool{false, true} {
		name := "freelist"
		if lineAlloc {
			name = "line"
		}
		t.Run(name, func(t *testing.T) {
			res, _, err := Fragmentation(FragmentationOptions{
				HeapBytes: heapBytes, Rounds: 6, Seed: 7,
				LineAlloc:  lineAlloc,
				SmallWords: []int{4, 8, 16, 64},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				sb := r.Space
				if sb.HeapBytes != heapBytes {
					t.Errorf("%v: breakdown covers %d bytes, heap is %d",
						r.Policy, sb.HeapBytes, heapBytes)
				}
				if got := sb.Sum(); got != sb.HeapBytes {
					t.Errorf("%v: space buckets sum to %d, heap is %d: %+v",
						r.Policy, got, sb.HeapBytes, sb)
				}
				// Small churn must leave both live objects and reusable
				// small-block space. Under free lists the latter is
				// free-list-threaded slots; under the line profile, with no
				// collection to run the line sweep, freed slots sit carved
				// in the explicit-free LIFO and central spans (Cached).
				if sb.LiveBytes == 0 || sb.FreeSlotBytes+sb.CachedBytes == 0 {
					t.Errorf("%v: small churn left no live (%d) or reusable (%d+%d) bytes",
						r.Policy, sb.LiveBytes, sb.FreeSlotBytes, sb.CachedBytes)
				}
				if !lineAlloc && sb.CachedBytes != 0 {
					t.Errorf("%v: free-list profile reported %d cached bytes",
						r.Policy, sb.CachedBytes)
				}
				if lineAlloc {
					if r.Lines.LineBlocks == 0 {
						t.Errorf("%v: line profile dedicated no line blocks", r.Policy)
					}
					if r.Lines.LiveLines+r.Lines.FreeLines != r.Lines.TotalLines {
						t.Errorf("%v: lines do not conserve: live %d + free %d != total %d",
							r.Policy, r.Lines.LiveLines, r.Lines.FreeLines, r.Lines.TotalLines)
					}
					if r.Lines.WasteBytes > uint64(sb.FreeSlotBytes) {
						t.Errorf("%v: line waste %d exceeds free-slot space %d",
							r.Policy, r.Lines.WasteBytes, sb.FreeSlotBytes)
					}
				} else if r.Lines != (LineStats{}) {
					t.Errorf("%v: free-list profile reported line stats %+v", r.Policy, r.Lines)
				}
			}
		})
	}
}

// TestFragmentationDefaultUnchanged pins that the default options keep
// the paper's pure block-span churn: no small blocks are dedicated, so
// the accounting is blocks plus large objects only.
func TestFragmentationDefaultUnchanged(t *testing.T) {
	res, _, err := Fragmentation(FragmentationOptions{HeapBytes: 4 << 20, Rounds: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Space.FreeSlotBytes != 0 || r.Space.OverheadBytes != 0 {
			t.Errorf("%v: pure block churn dedicated small blocks: %+v", r.Policy, r.Space)
		}
		if got := r.Space.Sum(); got != r.Space.HeapBytes {
			t.Errorf("%v: space buckets sum to %d, heap is %d", r.Policy, got, r.Space.HeapBytes)
		}
	}
}
