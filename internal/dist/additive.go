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
//   - Root(SumRectCap(q, near, a, b, bound)) == MinDistRect(q, a ∩ b)
//     whenever near is q clamped into a and the sum is <= bound.
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
//
// Unweighted norms sum four rows per pass: each row is still summed in
// dimension order, so every sum <= bound is bit-identical to the one-row
// loop, but the four add chains are independent instead of one chain bound
// by add latency. A block stops once all four rows exceed bound; a row
// summed past its own abandonment point only grows (every term is >= 0), so
// its out[i] stays > bound. Remaining rows go one at a time.
func (k Additive) SumSlab(q geom.Point, slab []float32, dim int, bound float64, out []float64) {
	q = q[:dim]
	n, i := len(slab)/dim, 0
	if k.w == nil {
		for ; i+4 <= n; i += 4 {
			out[i], out[i+1], out[i+2], out[i+3] = k.sum4(q, slab[i*dim:(i+4)*dim], bound)
		}
	}
	for ; i < n; i++ {
		out[i] = k.SumBounded(q, slab[i*dim:(i+1)*dim], bound)
	}
}

// SumBounded is the sum between q and one stored point, abandoned once it
// exceeds bound: SumSlab's one-row loop, and its tail past the last block
// of four.
func (k Additive) SumBounded(q, row geom.Point, bound float64) float64 {
	row = row[:len(q)]
	s := 0.0
	// One loop per unweighted norm: at 16-d the shared term() costs the L2
	// leaf scan half again its time (EXPERIMENTS.md, "L1 on the fast
	// path").
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
	return s
}

// sum4 is four consecutive rows' bounded sums for an unweighted norm.
func (k Additive) sum4(q geom.Point, rows []float32, bound float64) (s0, s1, s2, s3 float64) {
	dim := len(q)
	r0, r1, r2, r3 := rows[:dim], rows[dim:][:dim], rows[2*dim:][:dim], rows[3*dim:][:dim]
	if k.sq {
		for d, v := range q {
			x := float64(v)
			d0, d1, d2, d3 := x-float64(r0[d]), x-float64(r1[d]), x-float64(r2[d]), x-float64(r3[d])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
			if s0 > bound && s1 > bound && s2 > bound && s3 > bound {
				break
			}
		}
		return
	}
	for d, v := range q {
		x := float64(v)
		s0 += math.Abs(x - float64(r0[d]))
		s1 += math.Abs(x - float64(r1[d]))
		s2 += math.Abs(x - float64(r2[d]))
		s3 += math.Abs(x - float64(r3[d]))
		if s0 > bound && s1 > bound && s2 > bound && s3 > bound {
			break
		}
	}
	return
}

// SumRectCap is the fused MINDIST kernel: the sum between q and the
// intersection of a and b, read once and never materialised. near is q
// clamped into a — the kd walk keeps it up to date one boundary at a time —
// so each dimension clamps near into b alone: clamping onto an intersection
// equals clamping onto one interval and then the other, and the sign of a
// zero it may flip cannot change |·|. For non-inverted rectangles the
// two-compare emptiness test equals max(lo) > min(hi). It reports empty
// when a ∩ b is empty in a dimension reached before the running sum
// exceeded bound, and abandons (returning the partial sum) once it does.
func (k Additive) SumRectCap(q, near geom.Point, a, b geom.Rect, bound float64) (sum float64, empty bool) {
	near, alo, ahi, blo, bhi := near[:len(q)], a.Lo[:len(q)], a.Hi[:len(q)], b.Lo[:len(q)], b.Hi[:len(q)]
	for d, v := range q {
		lo, hi := blo[d], bhi[d]
		if alo[d] > hi || lo > ahi[d] {
			return sum, true
		}
		g := math.Abs(float64(v) - float64(min(max(near[d], lo), hi)))
		if sum += k.term(d, g); sum > bound {
			return sum, false
		}
	}
	return sum, false
}

// SumRect is the MINDIST sum between q and the (non-empty) rectangle r;
// clamping q into r twice is clamping it once, so q serves as its own near.
func (k Additive) SumRect(q geom.Point, r geom.Rect) float64 {
	sum, _ := k.SumRectCap(q, q, r, r, math.Inf(1))
	return sum
}
