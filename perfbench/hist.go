package main

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// Log-linear (HDR-style) histogram of durations. Values below subCount
// nanoseconds have their own bucket; above that every power-of-two range
// is cut into subCount equal buckets, so a bucket's width is at most
// 1/subCount of its lower bound and the midpoint it reports is within
// 1/(2*subCount) ≈ 0.4% of any value it holds.
const (
	subBits  = 7
	subCount = 1 << subBits
	nBuckets = (64 - subBits) * subCount
)

// histogram counts non-negative durations. It is safe for concurrent
// use.
type histogram struct {
	mu       sync.Mutex
	counts   [nBuckets]uint64
	n        uint64
	min, max int64
}

func bucketOf(v int64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return shift*subCount + int(v>>uint(shift))
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	shift := i/subCount - 1
	m := int64(i - shift*subCount)
	lo := m << uint(shift)
	return lo + (int64(1)<<uint(shift))/2
}

func (h *histogram) record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.mu.Unlock()
}

func (h *histogram) count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// quantile returns the q-quantile (0 < q <= 1) by nearest rank: the
// smallest recorded value with at least q*n values at or below it.
// It returns 0 on an empty histogram.
func (h *histogram) quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// beyond returns how many recorded values exceed d.
func (h *histogram) beyond(d time.Duration) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := bucketOf(int64(d))
	var n uint64
	for i := b + 1; i < nBuckets; i++ {
		n += h.counts[i]
	}
	return n
}
