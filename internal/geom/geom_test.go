package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnitCube(t *testing.T) {
	r := UnitCube(4)
	if r.Dim() != 4 {
		t.Fatalf("dim = %d, want 4", r.Dim())
	}
	if got := r.Area(); got != 1 {
		t.Fatalf("area = %g, want 1", got)
	}
	if !r.Contains(Point{0, 0.5, 1, 0.25}) {
		t.Fatal("unit cube should contain interior point")
	}
	if r.Contains(Point{0, 0.5, 1.1, 0.25}) {
		t.Fatal("unit cube should not contain exterior point")
	}
}

func TestNewRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect with inverted corners should panic")
		}
	}()
	NewRect(Point{1, 0}, Point{0, 1})
}

func TestNewRectDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect with mismatched dims should panic")
		}
	}()
	NewRect(Point{0}, Point{1, 1})
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect(3)
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Area() != 0 {
		t.Fatalf("empty area = %g, want 0", e.Area())
	}
	// Empty acts as identity for EnlargeRect.
	r := NewRect(Point{0.2, 0.3, 0.4}, Point{0.5, 0.6, 0.7})
	e2 := e.Clone()
	e2.EnlargeRect(r)
	if !e2.Equal(r) {
		t.Fatalf("enlarge(empty, r) = %v, want %v", e2, r)
	}
	e3 := e.Clone()
	e3.Enlarge(Point{0.1, 0.1, 0.1})
	want := NewRect(Point{0.1, 0.1, 0.1}, Point{0.1, 0.1, 0.1})
	if !e3.Equal(want) {
		t.Fatalf("enlarge(empty, p) = %v, want %v", e3, want)
	}
}

func TestIntersection(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{2, 2})
	b := NewRect(Point{1, 1}, Point{3, 3})
	c := NewRect(Point{5, 5}, Point{6, 6})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Fatal("a and c should not intersect")
	}
	got := a.Intersect(b)
	want := NewRect(Point{1, 1}, Point{2, 2})
	if !got.Equal(want) {
		t.Fatalf("a ∩ b = %v, want %v", got, want)
	}
	if !a.Intersect(c).IsEmpty() {
		t.Fatal("disjoint intersection should be empty")
	}
	// Boundary touch counts as intersection (inclusive semantics).
	d := NewRect(Point{2, 0}, Point{4, 2})
	if !a.Intersects(d) {
		t.Fatal("touching rectangles should intersect")
	}
}

func TestContainsRect(t *testing.T) {
	outer := NewRect(Point{0, 0}, Point{10, 10})
	inner := NewRect(Point{2, 2}, Point{3, 3})
	if !outer.ContainsRect(inner) {
		t.Fatal("outer should contain inner")
	}
	if inner.ContainsRect(outer) {
		t.Fatal("inner should not contain outer")
	}
	if !outer.ContainsRect(outer) {
		t.Fatal("rect should contain itself")
	}
}

func TestExtentAndMaxExtentDim(t *testing.T) {
	r := NewRect(Point{0, 0, 0}, Point{1, 3, 2})
	if got := r.Extent(1); got != 3 {
		t.Fatalf("extent(1) = %g, want 3", got)
	}
	if got := r.MaxExtentDim(); got != 1 {
		t.Fatalf("MaxExtentDim = %d, want 1", got)
	}
	// Ties resolve to lowest dimension.
	sq := NewRect(Point{0, 0}, Point{2, 2})
	if got := sq.MaxExtentDim(); got != 0 {
		t.Fatalf("tie MaxExtentDim = %d, want 0", got)
	}
}

func TestMinkowskiVolume(t *testing.T) {
	r := NewRect(Point{0.2, 0.2}, Point{0.4, 0.5})
	// (0.2+0.1)*(0.3+0.1)
	got := r.MinkowskiVolume(0.1)
	want := 0.3 * 0.4
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("minkowski = %g, want %g", got, want)
	}
}

func TestCenter(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 4})
	if c := r.Center(); !c.Equal(Point{1, 2}) {
		t.Fatalf("center = %v, want (1,2)", c)
	}
}

func TestBoundingRectAndCentroid(t *testing.T) {
	pts := []Point{{1, 5}, {3, 2}, {2, 4}}
	br := BoundingRect(pts)
	if !br.Equal(NewRect(Point{1, 2}, Point{3, 5})) {
		t.Fatalf("bounding rect = %v", br)
	}
	c := Centroid(pts)
	if !c.Equal(Point{2, 11.0 / 3}) {
		t.Fatalf("centroid = %v", c)
	}
	for _, p := range pts {
		if !br.Contains(p) {
			t.Fatalf("bounding rect misses %v", p)
		}
	}
}

func TestBoundingRectEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BoundingRect(nil) should panic")
		}
	}()
	BoundingRect(nil)
}

func randRect(rng *rand.Rand, dim int) Rect {
	lo := make(Point, dim)
	hi := make(Point, dim)
	for d := 0; d < dim; d++ {
		a, b := rng.Float32(), rng.Float32()
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	return Rect{Lo: lo, Hi: hi}
}

// Property: the union of two rectangles contains both, and the intersection
// (when non-empty) is contained in both.
func TestUnionIntersectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(16)
		a, b := randRect(r, dim), randRect(r, dim)
		u := a.Clone()
		u.EnlargeRect(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		i := a.Intersect(b)
		if !i.IsEmpty() {
			if !a.ContainsRect(i) || !b.ContainsRect(i) {
				return false
			}
		}
		// Intersects must agree with non-empty intersection.
		return a.Intersects(b) == !i.IsEmpty()
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Minkowski volume is monotone in the query side and bounded below
// by the area.
func TestMinkowskiMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(8)
		rect := randRect(r, dim)
		s1, s2 := r.Float64()*0.5, r.Float64()*0.5
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		v1, v2 := rect.MinkowskiVolume(s1), rect.MinkowskiVolume(s2)
		return v1 <= v2+1e-12 && rect.Area() <= v1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Enlarge(p) always yields a rect containing p and the original.
func TestEnlargeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(16)
		rect := randRect(r, dim)
		orig := rect.Clone()
		p := make(Point, dim)
		for d := range p {
			p[d] = r.Float32()*4 - 2
		}
		rect.Enlarge(p)
		return rect.Contains(p) && rect.ContainsRect(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
