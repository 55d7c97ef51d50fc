package repro

import (
	"testing"
)

// TestFragmentationSpaceAccounting runs the fragmentation churn with
// small objects interleaved, so dedicated small blocks exist, and
// asserts the reported space metrics are internally consistent: every
// committed byte lands in exactly one bucket, the allocator holds no
// carved slot of its own, and its line stats read zero.
func TestFragmentationSpaceAccounting(t *testing.T) {
	// The one row keeps the name it had beside the retired line heap's.
	t.Run("freelist", func(t *testing.T) {
		const heapBytes = 8 << 20
		res, _, err := Fragmentation(FragmentationOptions{
			HeapBytes: heapBytes, Rounds: 6, Seed: 7,
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
			// small-block space.
			if sb.LiveBytes == 0 || sb.FreeSlotBytes == 0 {
				t.Errorf("%v: small churn left no live (%d) or reusable (%d) bytes",
					r.Policy, sb.LiveBytes, sb.FreeSlotBytes)
			}
		}
	})
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
