package dist

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hybridtree/internal/geom"
)

func randPointRect(rng *rand.Rand, dim int) (geom.Point, geom.Point, geom.Rect) {
	a := make(geom.Point, dim)
	b := make(geom.Point, dim)
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := 0; d < dim; d++ {
		a[d] = rng.Float32()*20 - 10
		b[d] = rng.Float32()*20 - 10
		x := rng.Float32()*20 - 10
		y := rng.Float32()*20 - 10
		if x > y {
			x, y = y, x
		}
		lo[d], hi[d] = x, y
	}
	return a, b, geom.Rect{Lo: lo, Hi: hi}
}

// TestLp2MatchesL2 pins the LpMetric{P: 2} fast path bit-for-bit against
// L2: the specialization must be a pure speed change, invisible to every
// comparison a search makes.
func TestLp2MatchesL2(t *testing.T) {
	lp := LpMetric{P: 2}
	l2 := L2()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		dim := 1 + rng.Intn(80)
		a, b, r := randPointRect(rng, dim)
		if got, want := lp.Distance(a, b), l2.Distance(a, b); got != want {
			t.Fatalf("trial %d (dim %d): Lp2 Distance = %v, L2 = %v", trial, dim, got, want)
		}
		if got, want := lp.MinDistRect(a, r), l2.MinDistRect(a, r); got != want {
			t.Fatalf("trial %d (dim %d): Lp2 MinDistRect = %v, L2 = %v", trial, dim, got, want)
		}
	}
}

// additiveMetrics is every metric that vouches for the kernel, at one
// dimensionality: the two unweighted spellings of each norm and the weighted
// forms (with a zero weight, which makes whole terms vanish).
func additiveMetrics(rng *rand.Rand, dim int) []Metric {
	w := make([]float64, dim)
	for d := range w {
		w[d] = rng.Float64() * 3
	}
	w[rng.Intn(dim)] = 0
	return []Metric{L1(), L2(), LpMetric{P: 1}, LpMetric{P: 2}, WeightedLp{P: 1, Weights: w}, WeightedLp{P: 2, Weights: w}}
}

// intersect is the materialising intersection the fused kernel replaces:
// core's intersectInto, which stops at the first empty dimension.
func intersect(a, b geom.Rect) (geom.Rect, bool) {
	out := geom.Rect{Lo: make(geom.Point, a.Dim()), Hi: make(geom.Point, a.Dim())}
	for d := range out.Lo {
		out.Lo[d], out.Hi[d] = max(a.Lo[d], b.Lo[d]), min(a.Hi[d], b.Hi[d])
		if out.Lo[d] > out.Hi[d] {
			return out, false
		}
	}
	return out, true
}

// bounded checks one bounded evaluation against the full sum: exact when
// the full sum is within bound, anything above bound otherwise.
func bounded(t *testing.T, what string, got, full, bound float64) {
	t.Helper()
	if full <= bound && got != full {
		t.Fatalf("%s: got %v, want exactly %v (bound %v)", what, got, full, bound)
	}
	if full > bound && !(got > bound) {
		t.Fatalf("%s: got %v for a full sum %v above bound %v", what, got, full, bound)
	}
}

// sumSlabRef is SumSlab as it was before rows were summed four at a time:
// one row after another, each abandoned once its running sum exceeds
// bound. It is the oracle the batched kernel must match.
func sumSlabRef(k Additive, q geom.Point, slab []float32, dim int, bound float64, out []float64) {
	q = q[:dim]
	for i := range out[:len(slab)/dim] {
		row := slab[i*dim : (i+1)*dim]
		s := 0.0
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

// sumRectCapRef is SumRectCap as it was before the kd walk supplied the
// clamped query: it intersects a and b and clamps q into the result, four
// IEEE min/max per dimension. It is the oracle the clamped kernel must
// match bit for bit, partial sums included.
func sumRectCapRef(k Additive, q geom.Point, a, b geom.Rect, bound float64) (sum float64, empty bool) {
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

// clampInto is q clamped into r: the near point the kd walk hands the
// fused kernel.
func clampInto(q geom.Point, r geom.Rect) geom.Point {
	near := make(geom.Point, len(q))
	for d, v := range q {
		near[d] = min(max(v, r.Lo[d]), r.Hi[d])
	}
	return near
}

// checkKernel holds m's kernel to the Additive contract on one input: the
// points of slab (and p, its first) against q, the rectangle a, and a ∩ b,
// each unbounded and at bound, leaving every input as it found it. It also
// holds the kernel to its oracles: SumSlab to sumSlabRef (the same sum, bit
// for bit, where the oracle's is <= bound, and both > bound otherwise) and
// SumRectCap to sumRectCapRef (the same sum and empty verdict, bit for bit).
func checkKernel(t *testing.T, m Metric, q geom.Point, slab []float32, a, b geom.Rect, bound float64) {
	t.Helper()
	k, ok := AsAdditive(m)
	if !ok {
		t.Fatalf("%s: no additive kernel", m.Name())
	}
	dim, inf := len(q), math.Inf(1)
	q0, slab0, a0, b0 := q.Clone(), append([]float32(nil), slab...), a.Clone(), b.Clone()

	n := len(slab) / dim
	full, got, ref := make([]float64, n), make([]float64, n), make([]float64, n)
	k.SumSlab(q, slab, dim, inf, full)
	k.SumSlab(q, slab, dim, bound, got)
	sumSlabRef(k, q, slab, dim, bound, ref)
	for i := range full {
		p := geom.Point(slab[i*dim : (i+1)*dim])
		if d := m.Distance(q, p); k.Root(full[i]) != d {
			t.Fatalf("%s: Root(SumSlab)[%d] = %v, Distance = %v", m.Name(), i, k.Root(full[i]), d)
		}
		bounded(t, m.Name()+" SumSlab", got[i], full[i], bound)
		bounded(t, m.Name()+" SumBounded", k.SumBounded(q, p, bound), full[i], bound)
		if ref[i] <= bound && math.Float64bits(got[i]) != math.Float64bits(ref[i]) ||
			!(ref[i] <= bound) && !(got[i] > bound && ref[i] > bound) {
			t.Fatalf("%s: SumSlab[%d] of %d rows = %v, one-row oracle %v (bound %v)", m.Name(), i, n, got[i], ref[i], bound)
		}
	}

	if md := m.MinDistRect(q, a); k.Root(k.SumRect(q, a)) != md {
		t.Fatalf("%s: Root(SumRect) = %v, MinDistRect = %v", m.Name(), k.Root(k.SumRect(q, a)), md)
	}

	near := clampInto(q, a)
	for _, bd := range []float64{inf, bound} {
		s, e := k.SumRectCap(q, near, a, b, bd)
		rs, re := sumRectCapRef(k, q, a, b, bd)
		if math.Float64bits(s) != math.Float64bits(rs) || e != re {
			t.Fatalf("%s: SumRectCap = (%v, %v), oracle (%v, %v) at bound %v", m.Name(), s, e, rs, re, bd)
		}
	}
	inter, nonEmpty := intersect(a, b)
	sum, empty := k.SumRectCap(q, near, a, b, inf)
	if empty == nonEmpty {
		t.Fatalf("%s: SumRectCap empty = %v, intersection non-empty = %v", m.Name(), empty, nonEmpty)
	}
	capped, cappedEmpty := k.SumRectCap(q, near, a, b, bound)
	if nonEmpty {
		if md := m.MinDistRect(q, inter); k.Root(sum) != md {
			t.Fatalf("%s: Root(SumRectCap) = %v, MinDistRect(a∩b) = %v", m.Name(), k.Root(sum), md)
		}
		if cappedEmpty {
			t.Fatalf("%s: SumRectCap reports a non-empty intersection empty", m.Name())
		}
		bounded(t, m.Name()+" SumRectCap", capped, sum, bound)
	} else if !cappedEmpty && !(capped > bound) {
		// An empty intersection may go unnoticed only by abandoning first.
		t.Fatalf("%s: SumRectCap = %v <= bound %v on an empty intersection", m.Name(), capped, bound)
	}

	if !q.Equal(q0) || !a.Equal(a0) || !b.Equal(b0) {
		t.Fatalf("%s: kernel wrote to its inputs", m.Name())
	}
	for i := range slab {
		if math.Float32bits(slab[i]) != math.Float32bits(slab0[i]) {
			t.Fatalf("%s: kernel wrote to the slab", m.Name())
		}
	}
}

func TestAdditiveContract(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{1, 16, 64} {
		for _, m := range additiveMetrics(rng, dim) {
			k, _ := AsAdditive(m)
			for trial := 0; trial < 200; trial++ {
				q, p, a := randPointRect(rng, dim)
				slab := append([]float32(nil), p...)
				for i := 0; i < 4; i++ {
					slab = append(slab, randPoint(rng, dim)...)
				}
				// b overlaps a except, one time in three, in one dimension.
				b := a.Clone()
				for d := range b.Lo {
					w := b.Hi[d] - b.Lo[d]
					b.Lo[d] += w * rng.Float32() / 2
					b.Hi[d] += w * rng.Float32()
				}
				if trial%3 == 0 {
					d := rng.Intn(dim)
					b.Lo[d], b.Hi[d] = a.Hi[d]+1, a.Hi[d]+2
				}
				// A bound inside the range of sums, so both sides of every
				// bounded contract are exercised.
				bound := k.SumBounded(q, p, math.Inf(1)) * rng.Float64() * 1.5
				checkKernel(t, m, q, slab, a, b, bound)
			}
		}
	}
}

// TestWeightedFastPathIsGeneralFormula pins WeightedLp's pow-free P = 1 and
// P = 2 paths to the general L_p formula they shortcut.
func TestWeightedFastPathIsGeneralFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, p := range []float64{1, 2} {
		for trial := 0; trial < 300; trial++ {
			dim := 1 + rng.Intn(64)
			a, b, r := randPointRect(rng, dim)
			m := WeightedLp{P: p, Weights: make([]float64, dim)}
			for d := range m.Weights {
				m.Weights[d] = rng.Float64() * 3
			}
			sd, sr := 0.0, 0.0
			for d := range a {
				sd += m.Weights[d] * math.Pow(math.Abs(float64(a[d])-float64(b[d])), p)
				sr += m.Weights[d] * math.Pow(axisGap(a[d], r.Lo[d], r.Hi[d]), p)
			}
			if got, want := m.Distance(a, b), math.Pow(sd, 1/p); got != want {
				t.Fatalf("wL%g Distance = %v, general formula %v", p, got, want)
			}
			if got, want := m.MinDistRect(a, r), math.Pow(sr, 1/p); got != want {
				t.Fatalf("wL%g MinDistRect = %v, general formula %v", p, got, want)
			}
		}
	}
}

// userMetric is a caller-supplied metric: L1 under another type.
type userMetric struct{ Metric }

// TestAsAdditiveRejects makes sure the kernel never activates for a metric
// whose distance is not a root of a sum of per-dimension terms it knows.
func TestAsAdditiveRejects(t *testing.T) {
	for _, m := range []Metric{Linf(), LpMetric{P: 3}, LpMetric{P: 1.5}, WeightedLp{P: 3, Weights: []float64{1}}, userMetric{L1()}} {
		if _, ok := AsAdditive(m); ok {
			t.Fatalf("%s: additive kernel must not activate", m.Name())
		}
	}
}

// TestKernelOracleEdges drives checkKernel over the inputs where a clamp or
// a four-row pass could differ from its oracle: coordinates from a palette
// of ±0, subnormals and a few normals, so degenerate intervals (lo == hi),
// queries exactly on a boundary and ties between rows are common; slabs of
// 0 to 9 rows, so every four-row tail length occurs; and bounds equal to a
// row's exact sum as well as between sums.
func TestKernelOracleEdges(t *testing.T) {
	palette := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		0x1p-130, 0x1p-126, 0.25, 0.5, 1, -1, 3}
	rng := rand.New(rand.NewSource(14))
	pick := func() float32 { return palette[rng.Intn(len(palette))] }
	interval := func() (float32, float32) {
		lo, hi := pick(), pick()
		if hi < lo {
			lo, hi = hi, lo
		}
		return lo, hi
	}
	for _, dim := range []int{1, 3, 8, 17} {
		for _, m := range additiveMetrics(rng, dim) {
			k, _ := AsAdditive(m)
			for trial := 0; trial < 300; trial++ {
				a := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
				b := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
				q := make(geom.Point, dim)
				for d := 0; d < dim; d++ {
					a.Lo[d], a.Hi[d] = interval()
					b.Lo[d], b.Hi[d] = interval()
					switch rng.Intn(4) {
					case 0:
						q[d] = a.Lo[d]
					case 1:
						q[d] = b.Hi[d]
					default:
						q[d] = pick()
					}
				}
				slab := make([]float32, rng.Intn(10)*dim)
				for i := range slab {
					slab[i] = pick()
				}
				bound := math.Inf(1)
				if n := len(slab) / dim; n > 0 && trial%4 != 0 {
					row := geom.Point(slab[rng.Intn(n)*dim:][:dim])
					bound = k.SumBounded(q, row, math.Inf(1))
					if trial%4 == 1 {
						bound /= 2
					}
				} else if trial%4 != 0 {
					bound = rng.Float64()
				}
				checkKernel(t, m, q, slab, a, b, bound)
			}
		}
	}
}

// FuzzAdditiveKernel drives checkKernel with raw coordinates: data is read
// as float32s, five per dimension (q, a's interval, b's interval); the
// intervals double as the stored points, repeated to a slab of 0 to 9 rows.
func FuzzAdditiveKernel(f *testing.F) {
	seed := make([]byte, 0, 40)
	for _, v := range []float32{0.5, 0, 1, 0.25, 2, -3, -1, 4, 5, 6} {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	f.Add(seed, 1.0, uint8(0))
	f.Add(seed, 0.0, uint8(5))
	f.Add(seed, 2.5, uint8(47))
	f.Fuzz(func(t *testing.T, data []byte, bound float64, pick uint8) {
		dim := min(len(data)/20, 64)
		if dim == 0 || math.IsNaN(bound) {
			return
		}
		v := make([]float32, 5*dim)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			// The tree admits finite coordinates only; stay clear of
			// overflow so sums are finite too.
			if !(math.Abs(float64(v[i])) < 1e15) {
				return
			}
		}
		q := geom.Point(v[:dim])
		a := geom.Rect{Lo: geom.Point(v[dim : 2*dim]).Clone(), Hi: geom.Point(v[2*dim : 3*dim]).Clone()}
		b := geom.Rect{Lo: geom.Point(v[3*dim : 4*dim]).Clone(), Hi: geom.Point(v[4*dim:]).Clone()}
		for d := 0; d < dim; d++ {
			if a.Lo[d] > a.Hi[d] {
				a.Lo[d], a.Hi[d] = a.Hi[d], a.Lo[d]
			}
			if b.Lo[d] > b.Hi[d] {
				b.Lo[d], b.Hi[d] = b.Hi[d], b.Lo[d]
			}
		}
		ms := additiveMetrics(rand.New(rand.NewSource(int64(pick))), dim)
		var slab []float32
		for i := 0; i < int(pick)/len(ms)%10; i++ {
			slab = append(slab, v[dim+i%4*dim:][:dim]...)
		}
		checkKernel(t, ms[int(pick)%len(ms)], q, slab, a, b, bound)
	})
}
