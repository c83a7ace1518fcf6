package obs

import (
	"math"
	"testing"
)

// TestHistogramBucketBoundaries pins the log2 bucket layout: 0 has its own
// bucket, and each power-of-two range lands exactly where bucketUpperBound
// says it does, including both edges.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{255, 8}, {256, 9},
		{1 << 40, 41}, {1<<41 - 1, 41},
		{math.MaxInt64, 63},
		{-5, 0}, // negatives clamp to 0
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		got := -1
		for i := 0; i < NumBuckets; i++ {
			if h.buckets[i].Load() == 1 {
				got = i
				break
			}
		}
		if got != c.bucket {
			t.Errorf("Observe(%d) landed in bucket %d, want %d", c.v, got, c.bucket)
		}
		if c.v >= 0 {
			ub := bucketUpperBound(c.bucket)
			if uint64(c.v) > ub {
				t.Errorf("Observe(%d): value above its bucket's upper bound %d", c.v, ub)
			}
			if c.bucket > 0 && uint64(c.v) <= bucketUpperBound(c.bucket-1) {
				t.Errorf("Observe(%d): value not above previous bucket's bound %d",
					c.v, bucketUpperBound(c.bucket-1))
			}
		}
	}
	if bucketUpperBound(0) != 0 {
		t.Errorf("bucketUpperBound(0) = %d", bucketUpperBound(0))
	}
	if bucketUpperBound(64) != math.MaxUint64 {
		t.Errorf("bucketUpperBound(64) = %d", bucketUpperBound(64))
	}
}

// TestHistogramMerge checks that merging two histograms is equivalent to
// observing all their values into one.
func TestHistogramMerge(t *testing.T) {
	var a, b, direct Histogram
	va := []int64{0, 1, 1, 7, 300, 1 << 20}
	vb := []int64{0, 2, 8, 8, 1 << 20, 1 << 50}
	for _, v := range va {
		a.Observe(v)
		direct.Observe(v)
	}
	for _, v := range vb {
		b.Observe(v)
		direct.Observe(v)
	}
	a.merge(&b)
	if a.Count() != direct.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), direct.Count())
	}
	if a.sum.Load() != direct.sum.Load() {
		t.Fatalf("merged sum %d, want %d", a.sum.Load(), direct.sum.Load())
	}
	for i := 0; i < NumBuckets; i++ {
		if got, want := a.buckets[i].Load(), direct.buckets[i].Load(); got != want {
			t.Errorf("bucket %d: merged %d, direct %d", i, got, want)
		}
	}
	// Self-merge and nil-merge are no-ops.
	before := a.Count()
	a.merge(&a)
	a.merge(nil)
	if a.Count() != before {
		t.Fatalf("self/nil merge changed count: %d -> %d", before, a.Count())
	}
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(100) // bucket [64,127]
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 10000 {
		t.Fatalf("snapshot count=%d sum=%d", s.Count, s.Sum)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].Le != 127 || s.Buckets[0].Count != 100 {
		t.Fatalf("snapshot buckets = %+v", s.Buckets)
	}
	q := h.Quantile(0.5)
	if q < 64 || q > 127 {
		t.Fatalf("median %v outside the only occupied bucket [64,127]", q)
	}
	h.Observe(1 << 30)
	if q := h.Quantile(1); q < 1<<29 {
		t.Fatalf("max quantile %v below the top observation's bucket", q)
	}
}

// TestHistogramQuantileEdges pins the estimator's edge behavior: empty
// histograms, out-of-range q clamping, and the q=0 / q=1 extremes of a
// single-bucket population staying inside that bucket's range.
func TestHistogramQuantileEdges(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	// Single observation: every quantile must land in its bucket [64,127].
	var one Histogram
	one.Observe(100)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		got := one.Quantile(q)
		if got < 64 || got > 127 {
			t.Errorf("single-value Quantile(%v) = %v, outside [64,127]", q, got)
		}
	}
	// q=0 interpolates to the bucket's low edge, q=1 to its upper bound.
	if lo, hi := one.Quantile(0), one.Quantile(1); lo >= hi {
		t.Errorf("Quantile(0)=%v not below Quantile(1)=%v within the bucket", lo, hi)
	}

	// Out-of-range q clamps rather than extrapolating.
	if got, want := one.Quantile(-5), one.Quantile(0); got != want {
		t.Errorf("Quantile(-5) = %v, want clamp to Quantile(0) = %v", got, want)
	}
	if got, want := one.Quantile(7), one.Quantile(1); got != want {
		t.Errorf("Quantile(7) = %v, want clamp to Quantile(1) = %v", got, want)
	}

	// Two well-separated buckets: the median boundary is ordered correctly.
	var two Histogram
	two.Observe(10)
	two.Observe(1 << 20)
	if q25, q75 := two.Quantile(0.25), two.Quantile(0.75); q25 >= q75 {
		t.Errorf("q25=%v >= q75=%v for bimodal data", q25, q75)
	}
}

func TestHistogramObserveN(t *testing.T) {
	var batched, looped Histogram
	batched.ObserveN(100, 7)
	batched.ObserveN(-3, 2) // negatives clamp to 0, like Observe
	batched.ObserveN(5, 0)  // n=0 is a no-op
	for i := 0; i < 7; i++ {
		looped.Observe(100)
	}
	looped.Observe(-3)
	looped.Observe(-3)
	if batched.Count() != looped.Count() || batched.sum.Load() != looped.sum.Load() {
		t.Fatalf("ObserveN count/sum %d/%d, loop %d/%d",
			batched.Count(), batched.sum.Load(), looped.Count(), looped.sum.Load())
	}
	for i := 0; i < NumBuckets; i++ {
		if got, want := batched.buckets[i].Load(), looped.buckets[i].Load(); got != want {
			t.Errorf("bucket %d: ObserveN %d, loop %d", i, got, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.Observe(int64(i % 1000))
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
}

// merge adds src's observations into h. Merging a histogram into itself or
// a concurrently-observed src is safe: each bucket is read once atomically.
func (h *Histogram) merge(src *Histogram) {
	if src == nil || src == h {
		return
	}
	if n := src.count.Load(); n > 0 {
		h.count.Add(n)
	}
	if s := src.sum.Load(); s > 0 {
		h.sum.Add(s)
	}
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
}
