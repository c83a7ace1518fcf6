package dist

import (
	"math"
	"math/rand"
	"testing"

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

func BenchmarkL2SumBounded64d(b *testing.B) {
	a, q, _ := benchVecs(64)
	k, ok := AsAdditive(L2())
	if !ok {
		b.Fatal("L2 must be additive")
	}
	bound := k.SumBounded(a, q, math.Inf(1)) / 4 // force mid-vector abandonment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.SumBounded(a, q, bound)
	}
}

// BenchmarkL1SumRectCap64d is the k-NN kd walk's per-child cost: MINDIST to
// BR ∩ live space, evaluated in full (no abandonment).
func BenchmarkL1SumRectCap64d(b *testing.B) {
	_, q, r := benchVecs(64)
	k, _ := AsAdditive(L1())
	space := geom.NewRect(make(geom.Point, 64), r.Hi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.SumRectCap(q, space, r, math.Inf(1))
	}
}
