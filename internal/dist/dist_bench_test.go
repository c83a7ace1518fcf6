package dist

import (
	"math"
	"math/rand"
	"testing"

	"hybridtree/internal/dataset"
	"hybridtree/internal/geom"
)

func benchVecs(dim int) (geom.Point, geom.Point, geom.Rect) {
	rng := rand.New(rand.NewSource(1))
	a := make(geom.Point, dim)
	q := make(geom.Point, dim)
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := 0; d < dim; d++ {
		a[d], q[d] = rng.Float32(), rng.Float32()
		x, y := rng.Float32(), rng.Float32()
		if x > y {
			x, y = y, x
		}
		lo[d], hi[d] = x, y
	}
	return a, q, geom.Rect{Lo: lo, Hi: hi}
}

func BenchmarkL1Distance64d(b *testing.B) {
	a, q, _ := benchVecs(64)
	m := L1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(a, q)
	}
}

func BenchmarkL2Distance64d(b *testing.B) {
	a, q, _ := benchVecs(64)
	m := L2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(a, q)
	}
}

func BenchmarkL1MinDistRect64d(b *testing.B) {
	_, q, r := benchVecs(64)
	m := L1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MinDistRect(q, r)
	}
}

func BenchmarkWeightedLp64d(b *testing.B) {
	a, q, _ := benchVecs(64)
	w := make([]float64, 64)
	for i := range w {
		w[i] = 1 + float64(i%3)
	}
	m, err := NewWeightedLp(2, w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(a, q)
	}
}

// BenchmarkLp2Distance64d pins the LpMetric{P: 2} fast path: it must track
// BenchmarkL2Distance64d, not the ~40x slower math.Pow general-P loop it
// replaced.
func BenchmarkLp2Distance64d(b *testing.B) {
	a, q, _ := benchVecs(64)
	m := LpMetric{P: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(a, q)
	}
}

// colHistPairs returns n distinct COLHIST-like kernel inputs at 64-d: a
// query vector, a stored vector, a bounding region (the MBR of 16 stored
// vectors) and a live space inside it (the MBR of the first 8). Cycling
// through them keeps the branch predictor from learning one input, which
// makes compare-and-branch kernels look faster than they are on k-NN's
// irregular mix of in- and out-of-interval dimensions.
func colHistPairs(n int) (qs, ps []geom.Point, brs, lives []geom.Rect) {
	pts := dataset.ColHist(18*n, 64, 7)
	for i := 0; i < n; i++ {
		g := pts[18*i:][:18]
		qs, ps = append(qs, g[0]), append(ps, g[1])
		brs, lives = append(brs, geom.BoundingRect(g[2:])), append(lives, geom.BoundingRect(g[2:10]))
	}
	return qs, ps, brs, lives
}

// sink keeps the compiler from discarding a benchmarked kernel call.
var sink float64

func BenchmarkL2SumBounded64d(b *testing.B) {
	qs, ps, _, _ := colHistPairs(1024)
	k, ok := AsAdditive(L2())
	if !ok {
		b.Fatal("L2 must be additive")
	}
	bounds := make([]float64, len(qs))
	for i := range bounds {
		bounds[i] = k.SumBounded(ps[i], qs[i], math.Inf(1)) / 4 // force mid-vector abandonment
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(qs)
		sink = k.SumBounded(ps[j], qs[j], bounds[j])
	}
}

// BenchmarkL1SumRectCap64d is the k-NN kd walk's per-child cost: MINDIST to
// BR ∩ live space, evaluated in full (no abandonment), with the query
// already clamped into the BR as the walk supplies it.
func BenchmarkL1SumRectCap64d(b *testing.B) {
	qs, _, brs, lives := colHistPairs(1024)
	k, _ := AsAdditive(L1())
	nears := make([]geom.Point, len(qs))
	for i, q := range qs {
		nears[i] = make(geom.Point, len(q))
		for d, v := range q {
			nears[i][d] = min(max(v, brs[i].Lo[d]), brs[i].Hi[d])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(qs)
		sink, _ = k.SumRectCap(qs[j], nears[j], brs[j], lives[j], math.Inf(1))
	}
}
