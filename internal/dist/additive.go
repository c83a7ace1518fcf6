package dist

import (
	"math"

	"hybridtree/internal/geom"
)

// Additive is the fast-path kernel of a metric of the form
//
//	Distance = Root(Σ_d term_d),  term_d >= 0,
//
// which covers L1, L2 and their weighted forms. Because Root is monotone,
// range and k-NN searches compare sums against a bound mapped into sum space
// once (SumBound) and apply Root only to reported results; because the terms
// are non-negative, a running sum that exceeds the bound can be abandoned —
// the full sum can only be larger.
//
// Three bit-identity contracts hold, each because the kernel adds the same
// float64 terms in the same dimension order as the Metric method it shadows:
//
//   - Root(SumBounded / SumSlab) == Distance whenever the sum is <= bound;
//   - Root(SumRect(q, r)) == MinDistRect(q, r);
//   - Root(SumRectCap(q, a, b, bound)) == MinDistRect(q, a ∩ b) whenever the
//     sum is <= bound.
//
// A sum > bound may be partial; it is only ever good for "prune this".
type Additive struct {
	sq bool      // term = w·|Δ|² and Root = sqrt; otherwise term = w·|Δ|, Root = identity
	w  []float64 // per-dimension weights, nil for the unweighted metric
}

// AsAdditive returns m's kernel when m vouches for the additive form:
// LpMetric and WeightedLp with P == 1 or P == 2, and L2(). Linf, general
// L_p and user-supplied metrics stay on the generic Metric path.
func AsAdditive(m Metric) (Additive, bool) {
	if a, ok := m.(interface{ additive() (Additive, bool) }); ok {
		return a.additive()
	}
	return Additive{}, false
}

func (euclidean) additive() (Additive, bool) { return Additive{sq: true}, true }

func (m LpMetric) additive() (Additive, bool) {
	return Additive{sq: m.P == 2}, m.P == 1 || m.P == 2
}

func (m WeightedLp) additive() (Additive, bool) {
	return Additive{sq: m.P == 2, w: m.Weights}, m.P == 1 || m.P == 2
}

// Root maps a sum back to a distance.
func (k Additive) Root(sum float64) float64 {
	if k.sq {
		return math.Sqrt(sum)
	}
	return sum
}

// SumBound maps a distance bound (or a factor scaling one) into sum space.
func (k Additive) SumBound(bound float64) float64 {
	if k.sq {
		return bound * bound
	}
	return bound
}

// term is dimension d's contribution for a coordinate gap g >= 0.
func (k Additive) term(d int, g float64) float64 {
	if k.sq {
		g *= g
	}
	if k.w != nil {
		g *= k.w[d]
	}
	return g
}

// SumSlab writes to out[i] the sum between q and point i of a flat slab (n
// points stored as slab[i*dim:(i+1)*dim], the layout data nodes decode
// into), abandoning a point once its running sum exceeds bound. len(out)
// must be at least n.
func (k Additive) SumSlab(q geom.Point, slab []float32, dim int, bound float64, out []float64) {
	q = q[:dim]
	for i := range out[:len(slab)/dim] {
		row := slab[i*dim : (i+1)*dim]
		s := 0.0
		// One loop per unweighted norm: at 16-d the shared term() costs
		// the L2 leaf scan half again its time (EXPERIMENTS.md, PR 15).
		switch {
		case k.w != nil:
			for d, v := range q {
				if s += k.term(d, math.Abs(float64(v)-float64(row[d]))); s > bound {
					break
				}
			}
		case k.sq:
			for d, v := range q {
				dv := float64(v) - float64(row[d])
				if s += dv * dv; s > bound {
					break
				}
			}
		default:
			for d, v := range q {
				if s += math.Abs(float64(v) - float64(row[d])); s > bound {
					break
				}
			}
		}
		out[i] = s
	}
}

// SumBounded is SumSlab for a single stored point.
func (k Additive) SumBounded(a, b geom.Point, bound float64) float64 {
	var out [1]float64
	k.SumSlab(a, b, len(a), bound, out[:])
	return out[0]
}

// SumRectCap is the fused MINDIST kernel: the sum between q and the
// intersection of a and b, read once and never materialised. It reports
// empty when a ∩ b is empty in a dimension reached before the running sum
// exceeded bound, and abandons (returning the partial sum) once it does.
func (k Additive) SumRectCap(q geom.Point, a, b geom.Rect, bound float64) (sum float64, empty bool) {
	alo, ahi, blo, bhi := a.Lo[:len(q)], a.Hi[:len(q)], b.Lo[:len(q)], b.Hi[:len(q)]
	for d, v := range q {
		lo, hi := max(alo[d], blo[d]), min(ahi[d], bhi[d])
		if lo > hi {
			return sum, true
		}
		g := math.Abs(float64(v) - float64(min(max(v, lo), hi)))
		if sum += k.term(d, g); sum > bound {
			return sum, false
		}
	}
	return sum, false
}

// SumRect is the MINDIST sum between q and the (non-empty) rectangle r.
func (k Additive) SumRect(q geom.Point, r geom.Rect) float64 {
	sum, _ := k.SumRectCap(q, r, r, math.Inf(1))
	return sum
}
