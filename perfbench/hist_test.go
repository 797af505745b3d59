package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The histogram's quantiles stay within 1% of an exact sort across
// six decades of values.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h histogram
	vals := make([]int64, 200000)
	for i := range vals {
		// Log-normal around 1ms with a heavy tail: 10µs .. 10s.
		v := int64(math.Exp(rng.NormFloat64()*2 + math.Log(1e6)))
		vals[i] = v
		h.record(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		exact := float64(vals[rank])
		got := float64(h.quantile(q))
		if err := math.Abs(got-exact) / exact; err > 0.01 {
			t.Errorf("q=%v: histogram %v, exact %v, error %.4f > 1%%", q, got, exact, err)
		}
	}
	if h.count() != uint64(len(vals)) {
		t.Fatalf("count %d, want %d", h.count(), len(vals))
	}
}

func TestHistogramBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, subCount - 1, subCount, subCount + 1, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev || b >= nBuckets {
			t.Fatalf("bucketOf(%d) = %d out of order or range", v, b)
		}
		mid := bucketMid(b)
		if v >= subCount && math.Abs(float64(mid-v))/float64(v) > 1.0/subCount {
			t.Fatalf("bucketMid(bucketOf(%d)) = %d too far", v, mid)
		}
		prev = b
	}
}
