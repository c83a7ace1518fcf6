// Package dist defines the distance-function abstraction the hybrid tree's
// distance-based queries are built on. The paper's headline flexibility
// claim is that, being a feature-based technique, the hybrid tree supports
// queries under *arbitrary* distance functions supplied at query time
// (Section 3.5) — including the per-query weighted metrics produced by
// relevance feedback. Any type satisfying Metric can drive range and k-NN
// search; the metrics whose distance is a root of a per-dimension sum (L1,
// L2 and their weighted forms) also have an Additive kernel, the searches'
// fast path.
package dist

import (
	"fmt"
	"math"

	"hybridtree/internal/geom"
)

// Metric is a distance function usable for range and nearest-neighbor
// queries. Implementations must satisfy two contracts:
//
//   - Distance is a non-negative, symmetric point-to-point distance.
//   - MinDistRect(q, r) is a lower bound on Distance(q, x) over every
//     x in r (MINDIST). Tighter bounds prune better; zero is always safe.
//
// The index structures never assume anything else about the metric, which is
// what lets the same tree serve L1 today and a user-weighted metric on the
// next query.
type Metric interface {
	Name() string
	Distance(a, b geom.Point) float64
	MinDistRect(q geom.Point, r geom.Rect) float64
}

// LpMetric is the Minkowski L_p family for finite p >= 1.
type LpMetric struct{ P float64 }

// L1 is the Manhattan distance, the metric the paper uses for its
// distance-based query experiments (Figure 7(c,d), following [18]).
func L1() Metric { return LpMetric{P: 1} }

// L2 is the Euclidean distance.
func L2() Metric { return euclidean{} }

// Linf is the Chebyshev (maximum-coordinate) distance.
func Linf() Metric { return chebyshev{} }

// Name implements Metric.
func (m LpMetric) Name() string { return fmt.Sprintf("L%g", m.P) }

// Distance implements Metric.
func (m LpMetric) Distance(a, b geom.Point) float64 {
	if m.P == 1 {
		s := 0.0
		for d := range a {
			s += math.Abs(float64(a[d]) - float64(b[d]))
		}
		return s
	}
	if m.P == 2 {
		// Same kernel as L2(): math.Pow(x, 2) == x*x and math.Pow(s, 0.5)
		// == math.Sqrt(s) bit-for-bit, so this is purely a fast path —
		// LpMetric{P: 2} and L2() return identical floats either way
		// (pinned by TestLp2MatchesL2).
		return euclidean{}.Distance(a, b)
	}
	s := 0.0
	for d := range a {
		s += math.Pow(math.Abs(float64(a[d])-float64(b[d])), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// MinDistRect implements Metric: per-dimension gap distances compose under
// any L_p norm.
func (m LpMetric) MinDistRect(q geom.Point, r geom.Rect) float64 {
	if m.P == 1 {
		s := 0.0
		for d := range q {
			s += axisGap(q[d], r.Lo[d], r.Hi[d])
		}
		return s
	}
	if m.P == 2 {
		return euclidean{}.MinDistRect(q, r)
	}
	s := 0.0
	for d := range q {
		s += math.Pow(axisGap(q[d], r.Lo[d], r.Hi[d]), m.P)
	}
	return math.Pow(s, 1/m.P)
}

type euclidean struct{}

func (euclidean) Name() string { return "L2" }

func (euclidean) Distance(a, b geom.Point) float64 {
	s := 0.0
	for d := range a {
		dv := float64(a[d]) - float64(b[d])
		s += dv * dv
	}
	return math.Sqrt(s)
}

func (euclidean) MinDistRect(q geom.Point, r geom.Rect) float64 {
	s := 0.0
	for d := range q {
		g := axisGap(q[d], r.Lo[d], r.Hi[d])
		s += g * g
	}
	return math.Sqrt(s)
}

type chebyshev struct{}

func (chebyshev) Name() string { return "Linf" }

func (chebyshev) Distance(a, b geom.Point) float64 {
	m := 0.0
	for d := range a {
		if v := math.Abs(float64(a[d]) - float64(b[d])); v > m {
			m = v
		}
	}
	return m
}

func (chebyshev) MinDistRect(q geom.Point, r geom.Rect) float64 {
	m := 0.0
	for d := range q {
		if g := axisGap(q[d], r.Lo[d], r.Hi[d]); g > m {
			m = g
		}
	}
	return m
}

// WeightedLp is an L_p metric with per-dimension weights — the form produced
// by relevance-feedback engines such as MARS/MindReader, where the weights
// change from one iteration of a query to the next. Weights must be
// non-negative.
type WeightedLp struct {
	P       float64
	Weights []float64
}

// NewWeightedLp validates and builds a weighted L_p metric.
func NewWeightedLp(p float64, weights []float64) (WeightedLp, error) {
	if p < 1 {
		return WeightedLp{}, fmt.Errorf("dist: p must be >= 1, got %g", p)
	}
	for d, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return WeightedLp{}, fmt.Errorf("dist: weight %d is %g, must be >= 0", d, w)
		}
	}
	return WeightedLp{P: p, Weights: weights}, nil
}

// Name implements Metric.
func (m WeightedLp) Name() string { return fmt.Sprintf("wL%g", m.P) }

// Distance implements Metric.
func (m WeightedLp) Distance(a, b geom.Point) float64 {
	if k, ok := m.additive(); ok {
		// Pow-free fast path, bit-identical to the general formula (see
		// the LpMetric{P: 2} note; math.Pow(x, 1) == x).
		return k.Root(k.SumBounded(a, b, math.Inf(1)))
	}
	s := 0.0
	for d := range a {
		s += m.Weights[d] * math.Pow(math.Abs(float64(a[d])-float64(b[d])), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// MinDistRect implements Metric.
func (m WeightedLp) MinDistRect(q geom.Point, r geom.Rect) float64 {
	if k, ok := m.additive(); ok {
		return k.Root(k.SumRect(q, r))
	}
	s := 0.0
	for d := range q {
		s += m.Weights[d] * math.Pow(axisGap(q[d], r.Lo[d], r.Hi[d]), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// axisGap returns the distance from coordinate v to the interval [lo,hi]
// along a single axis (zero when v lies inside).
func axisGap(v, lo, hi float32) float64 {
	switch {
	case v < lo:
		return float64(lo) - float64(v)
	case v > hi:
		return float64(v) - float64(hi)
	default:
		return 0
	}
}
