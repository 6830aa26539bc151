package main

import (
	"math"
	"math/bits"
	"time"
)

// subBits sets the histogram's resolution: each power of two is split
// into 1<<subBits equal buckets, so a bucket spans at most 1/64 of its
// lower bound and a quantile reported at the bucket midpoint is within
// histRelErr of the exact order statistic.
const (
	subBits    = 6
	subCount   = 1 << subBits
	histRelErr = 1.0 / (2 * subCount)
)

// hist is a log-bucketed latency histogram over nanoseconds. Recording
// is O(1) and allocation-free; one goroutine owns each hist and merges
// it into a shared one after its loop ends.
type hist struct {
	counts [subCount * 64]uint64
	n      uint64
	max    int64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return subCount + shift*subCount + int(v>>uint(shift)) - subCount
}

// bucketMid is the midpoint of bucket i, the value a quantile reports.
func bucketMid(i int) float64 {
	if i < subCount {
		return float64(i)
	}
	shift := (i - subCount) / subCount
	lo := uint64(subCount+(i-subCount)%subCount) << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift)-1)/2
}

func (h *hist) record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds: the value of rank
// ceil(q*n), to within histRelErr. An empty histogram reports NaN.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return float64(h.max)
}

// beyond reports how many samples lie above quantile q, the guide's
// test of whether a tail percentile is backed by enough samples.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)))
}

func (h *hist) ms(q float64) float64 { return h.quantile(q) / 1e6 }
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }
