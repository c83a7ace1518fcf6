package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of histogram buckets: one for the value 0 and
// one per power of two up to the full uint64 range.
const NumBuckets = 65

// Histogram is a fixed-size log2-bucketed histogram of non-negative int64
// observations (latencies in nanoseconds, sizes, counts). Bucket 0 holds
// exactly the value 0; bucket i (i >= 1) holds values in
// [2^(i-1), 2^i - 1]. Observations are single atomic adds with no
// allocation, so histograms are safe on query hot paths; negative values
// (a clock step during a latency measurement) clamp to 0 rather than
// corrupting a bucket index.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket: 0 for 0, else bits.Len64.
func bucketIndex(v uint64) int { return bits.Len64(v) }

// bucketUpperBound returns the inclusive upper bound of bucket i.
func bucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.count.Add(1)
	h.sum.Add(u)
	h.buckets[bucketIndex(u)].Add(1)
}

// ObserveN records the value v as n simultaneous observations — how the
// runtime sampler folds a whole bucket of runtime/metrics deltas in with
// three atomic adds instead of n Observe calls.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.count.Add(n)
	h.sum.Add(u * n)
	h.buckets[bucketIndex(u)].Add(n)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1),
// interpolating linearly inside the bucket that contains the target rank.
// It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	s := h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if next >= rank {
			lo := float64(0)
			if b.Le > 0 {
				lo = float64(b.Le)/2 + 0.5
			}
			hi := float64(b.Le)
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - cum) / float64(b.Count)
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return float64(s.Buckets[len(s.Buckets)-1].Le)
}

// Bucket is one non-empty histogram bucket: its inclusive upper bound and
// its (non-cumulative) count.
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram with empty
// buckets elided.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Concurrent observers may
// land between the bucket reads, so the invariant is only that the
// snapshot is some valid recent state, which is all exposition needs.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketUpperBound(i), Count: n})
		}
	}
	return s
}

// MarshalJSON lets a bare *Histogram embed in JSON output as its snapshot.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.Snapshot())
}
