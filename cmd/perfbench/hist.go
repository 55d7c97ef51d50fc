package main

import "math/bits"

// A hist is a fixed log₂ histogram of nanosecond values: 32 sub-buckets
// per octave, so a bucket is at most 1/32 ≈ 3 % wide and its mean sits
// within ≈2 % of any value in it. It is allocated whole before timing
// starts and never grows: an earlier harness kept one slice entry per
// request, and four million entries multiplied the process's resident
// set several-fold and made it flip between two sizes on identical runs.
//
// Each bucket keeps the sum of its values as well as their count, so
// the mean of a bucket (and therefore a tail mean) is exact except for
// the one bucket a rank cuts through.
type hist struct {
	n     uint64
	count [histBuckets]uint64
	total [histBuckets]uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return (e-histSubBits+1)*histSub + int((v>>(uint(e)-histSubBits))&(histSub-1))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bucketOf(uint64(ns))
	h.n++
	h.count[b]++
	h.total[b] += uint64(ns)
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i := range o.count {
		h.count[i] += o.count[i]
		h.total[i] += o.total[i]
	}
}

func (h *hist) reset() { *h = hist{} }

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	var s uint64
	for _, t := range h.total {
		s += t
	}
	return float64(s) / float64(h.n)
}

// quantile returns the mean of the bucket holding the value of rank
// ⌈q·n⌉ (1-based, ascending); 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.count {
		seen += c
		if seen >= rank {
			return float64(h.total[i]) / float64(c)
		}
	}
	return 0
}

// tailMean returns the mean of the largest ⌈frac·n⌉ values, and of at
// least one. Whole buckets contribute their exact sums; the bucket the
// rank cuts through contributes its mean for each value taken from it.
func (h *hist) tailMean(frac float64) float64 {
	if h.n == 0 {
		return 0
	}
	k := uint64(frac*float64(h.n) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k > h.n {
		k = h.n
	}
	var taken uint64
	var sum float64
	for i := histBuckets - 1; i >= 0 && taken < k; i-- {
		c := h.count[i]
		if c == 0 {
			continue
		}
		if taken+c <= k {
			sum += float64(h.total[i])
			taken += c
			continue
		}
		sum += float64(k-taken) * float64(h.total[i]) / float64(c)
		taken = k
	}
	return sum / float64(k)
}
