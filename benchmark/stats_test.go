package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(vs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %g, want 7", got)
	}
}

func TestMedianAndSegments(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	// One disturbed segment of five moves min/max, not the reported value.
	st := overSegments([]float64{10, 11, 50, 10.5, 9.5}, []int{100, 110, 20, 105, 95})
	if st.Value != 10.5 || st.Min != 9.5 || st.Max != 50 {
		t.Errorf("overSegments = %+v, want median 10.5 in [9.5, 50]", st)
	}
	if st.Samples != 105 {
		t.Errorf("samples of the median segment = %d, want 105", st.Samples)
	}
	if got, want := st.spreadPct(), 100*(50-9.5)/10.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spreadPct = %g, want %g", got, want)
	}
}

func TestLatencyStatsCutsByCompletionTime(t *testing.T) {
	const passNs = 5e9 // five one-second segments
	var samples []opSample
	// Segment s holds 100*(s+1) operations of latency (s+1) ms; one failed
	// operation in segment 0 and one straggler past the deadline.
	for s := 0; s < numSegments; s++ {
		for i := 0; i < 100*(s+1); i++ {
			samples = append(samples, opSample{end: int64(s)*1e9 + int64(i)*1e6 + 1, lat: uint32((s + 1) * 1e6), kind: opKNN, ok: true})
		}
	}
	samples = append(samples, opSample{end: 5e8, lat: 9e6, kind: opInsert, ok: false})
	samples = append(samples, opSample{end: passNs + 1, lat: 1, kind: opKNN, ok: true})

	qps, p50, p99 := latencyStats(samples, passNs, func(k opKind) bool { return k == opKNN })
	if qps.Value != 300 || qps.Min != 100 || qps.Max != 500 {
		t.Errorf("qps = %+v, want median 300 in [100, 500]", qps)
	}
	if p50.Value != 3 || p99.Value != 3 {
		t.Errorf("p50/p99 = %g/%g ms, want 3/3 (median segment)", p50.Value, p99.Value)
	}
	// With the failed insert kept, it is attempted (a latency sample) but
	// does not count towards throughput.
	qpsAll, _, p99All := latencyStats(samples, passNs, nil)
	if qpsAll.Min != 100 {
		t.Errorf("failed operation counted in qps: min segment %g, want 100", qpsAll.Min)
	}
	if p99All.Max < 5 {
		t.Errorf("p99 max = %g, want the slowest segment's 5 ms", p99All.Max)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the driver applies to its ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)  -> [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// >>> statistics.quantiles([3.1, 2.9, 3.0, 3.3, 2.8], n=4)  -> [2.85, 3.0, 3.2]
	q1, q3 = quartiles([]float64{3.1, 2.9, 3.0, 3.3, 2.8})
	if math.Abs(q1-2.85) > 1e-12 || math.Abs(q3-3.2) > 1e-12 {
		t.Errorf("quartiles = %g, %g, want 2.85, 3.2", q1, q3)
	}
}
