package main

import (
	"math"
	"sort"
)

// numSegments is how many equal consecutive time windows the measured pass
// is cut into. Every timing metric is computed per window and reported as
// the median window, so one disturbed stretch (a GC cycle, a neighbour's
// burst on the sandbox) moves one window of five, not the reported value.
const numSegments = 5

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest element with at least q of the sample at
// or below it. It is exact for the sample (no interpolation), so p99 of
// 100 values is the 99th smallest. Empty input yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of vs (mean of the middle two for even
// counts) without modifying vs. Empty input yields 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// segStat is one metric over the segments of a run: the reported value is
// the median segment; Min and Max are the in-run spread printed beside it.
type segStat struct {
	Value   float64
	Min     float64
	Max     float64
	Samples int // observations behind the median segment's figure
}

// overSegments folds per-segment values into a segStat. samples[i] is how
// many observations segment i's value rests on.
func overSegments(vals []float64, samples []int) segStat {
	if len(vals) == 0 {
		return segStat{}
	}
	st := segStat{Value: median(vals), Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
	}
	// Report the sample count of the segment closest to the median, which
	// is what the percentile's "samples beyond it" argument refers to.
	best := 0
	for i, v := range vals {
		if math.Abs(v-st.Value) < math.Abs(vals[best]-st.Value) {
			best = i
		}
	}
	if best < len(samples) {
		st.Samples = samples[best]
	}
	return st
}

// spreadPct is (max − min) ÷ median in percent: the in-run spread of a
// metric across segments.
func (s segStat) spreadPct() float64 {
	if s.Value == 0 {
		return 0
	}
	return 100 * (s.Max - s.Min) / math.Abs(s.Value)
}

// opSample is one completed operation of the measured pass.
type opSample struct {
	end  int64  // ns since the pass started
	lat  uint32 // ns, send → body fully read (saturates at 4.29 s)
	kind opKind
	ok   bool
}

// segmentOf maps a completion instant to its segment index.
func segmentOf(end, passNs int64) int {
	if passNs <= 0 {
		return 0
	}
	s := int(end * numSegments / passNs)
	if s < 0 {
		s = 0
	}
	if s >= numSegments {
		s = numSegments - 1
	}
	return s
}

// latencyStats cuts samples into segments by completion time and returns
// throughput (ok operations per second), p50 and p99 latency in ms, each as
// the median over segments. keep selects the operations that count (nil
// keeps all).
func latencyStats(samples []opSample, passNs int64, keep func(opKind) bool) (qps, p50, p99 segStat) {
	var lats [numSegments][]float64
	var oks [numSegments]int
	for _, s := range samples {
		// An operation that was in flight at the deadline finished outside
		// every window; it is attempted and checked, not timed.
		if s.end > passNs || (keep != nil && !keep(s.kind)) {
			continue
		}
		seg := segmentOf(s.end, passNs)
		if s.ok {
			oks[seg]++
		}
		lats[seg] = append(lats[seg], float64(s.lat)/1e6)
	}
	segSec := float64(passNs) / 1e9 / numSegments
	var q, a, b []float64
	var n []int
	for seg := 0; seg < numSegments; seg++ {
		if len(lats[seg]) == 0 {
			continue
		}
		sort.Float64s(lats[seg])
		q = append(q, float64(oks[seg])/segSec)
		a = append(a, percentile(lats[seg], 0.50))
		b = append(b, percentile(lats[seg], 0.99))
		n = append(n, len(lats[seg]))
	}
	return overSegments(q, n), overSegments(a, n), overSegments(b, n)
}
