// Package geom provides the low-level geometric primitives shared by every
// index structure in this repository: k-dimensional points, axis-aligned
// rectangles (bounding regions, "BRs" in the paper's terminology), and the
// operations the hybrid tree's cost model is built on — extents, enlargement,
// Minkowski sums and overlap volumes.
//
// Coordinates are float32 (the on-disk representation); aggregate quantities
// such as areas and probabilities are computed in float64.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a k-dimensional feature vector.
type Point []float32

// Clone returns a copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are identical vectors.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String formats the point for diagnostics.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is a k-dimensional axis-aligned rectangle (a bounding region).
// Lo and Hi are the inclusive lower and upper corners; len(Lo) == len(Hi)
// is the dimensionality.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle with the given corners. It panics if the
// corners disagree in dimensionality or are inverted; geometry bugs should
// fail loudly rather than corrupt an index.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: corner dimensionality mismatch %d vs %d", len(lo), len(hi)))
	}
	for d := range lo {
		if lo[d] > hi[d] {
			panic(fmt.Sprintf("geom: inverted rect on dim %d: lo=%g hi=%g", d, lo[d], hi[d]))
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// UnitCube returns the [0,1]^dim rectangle, the normalized data space the
// paper's cost model assumes.
func UnitCube(dim int) Rect {
	lo := make(Point, dim)
	hi := make(Point, dim)
	for d := range hi {
		hi[d] = 1
	}
	return Rect{Lo: lo, Hi: hi}
}

// EmptyRect returns the canonical empty rectangle of the given
// dimensionality: an inverted rect that acts as the identity for Union and
// Enlarge. Test emptiness with IsEmpty.
func EmptyRect(dim int) Rect {
	lo := make(Point, dim)
	hi := make(Point, dim)
	for d := 0; d < dim; d++ {
		lo[d] = float32(math.Inf(1))
		hi[d] = float32(math.Inf(-1))
	}
	return Rect{Lo: lo, Hi: hi}
}

// IsEmpty reports whether r is an empty (identity) rectangle.
func (r Rect) IsEmpty() bool {
	for d := range r.Lo {
		if r.Lo[d] > r.Hi[d] {
			return true
		}
	}
	return len(r.Lo) == 0
}

// Dim returns the dimensionality of r.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Extent returns the side length of r along dimension d.
func (r Rect) Extent(d int) float64 {
	return float64(r.Hi[d]) - float64(r.Lo[d])
}

// MaxExtentDim returns the dimension along which r is widest — the hybrid
// tree's EDA-optimal split dimension for data nodes (Section 3.2 of the
// paper). Ties resolve to the lowest dimension for determinism.
func (r Rect) MaxExtentDim() int {
	best, bestExt := 0, math.Inf(-1)
	for d := 0; d < r.Dim(); d++ {
		if e := r.Extent(d); e > bestExt {
			best, bestExt = d, e
		}
	}
	return best
}

// Contains reports whether p lies inside r (boundaries inclusive). A NaN
// coordinate lies in no rectangle.
func (r Rect) Contains(p Point) bool {
	for d := range p {
		if !(p[d] >= r.Lo[d] && p[d] <= r.Hi[d]) {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for d := range r.Lo {
		if s.Lo[d] < r.Lo[d] || s.Hi[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point
// (boundaries inclusive).
func (r Rect) Intersects(s Rect) bool {
	for d := range r.Lo {
		if r.Lo[d] > s.Hi[d] || r.Hi[d] < s.Lo[d] {
			return false
		}
	}
	return true
}

// Intersect returns the geometric intersection of r and s. If they are
// disjoint the result is empty (IsEmpty reports true).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{Lo: make(Point, r.Dim()), Hi: make(Point, r.Dim())}
	for d := range r.Lo {
		out.Lo[d] = maxf(r.Lo[d], s.Lo[d])
		out.Hi[d] = minf(r.Hi[d], s.Hi[d])
	}
	return out
}

// Enlarge grows r in place so that it contains p.
func (r *Rect) Enlarge(p Point) {
	for d := range p {
		if p[d] < r.Lo[d] {
			r.Lo[d] = p[d]
		}
		if p[d] > r.Hi[d] {
			r.Hi[d] = p[d]
		}
	}
}

// EnlargeRect grows r in place so that it contains s.
func (r *Rect) EnlargeRect(s Rect) {
	for d := range r.Lo {
		if s.Lo[d] < r.Lo[d] {
			r.Lo[d] = s.Lo[d]
		}
		if s.Hi[d] > r.Hi[d] {
			r.Hi[d] = s.Hi[d]
		}
	}
}

// Area returns the k-dimensional volume of r; empty rectangles have area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	a := 1.0
	for d := range r.Lo {
		a *= r.Extent(d)
	}
	return a
}

// MinkowskiVolume returns the volume of r with every side extended by query
// side length side — the probability that a uniformly placed box query of
// that side overlaps r in a normalized data space (Section 3.2, Figure 2).
func (r Rect) MinkowskiVolume(side float64) float64 {
	v := 1.0
	for d := range r.Lo {
		v *= r.Extent(d) + side
	}
	return v
}

// Center returns the centroid of r.
func (r Rect) Center() Point {
	c := make(Point, r.Dim())
	for d := range c {
		c[d] = (r.Lo[d] + r.Hi[d]) / 2
	}
	return c
}

// Equal reports whether r and s are identical rectangles.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// String formats the rectangle for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("[%v..%v]", r.Lo, r.Hi)
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// BoundingRect returns the minimum bounding rectangle of the given points.
// It panics on an empty slice: callers own the "no data" case.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of no points")
	}
	r := Rect{Lo: pts[0].Clone(), Hi: pts[0].Clone()}
	for _, p := range pts[1:] {
		r.Enlarge(p)
	}
	return r
}

// Centroid returns the arithmetic mean of the given points (used by the
// SR-tree's nearest-centroid insertion).
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of no points")
	}
	dim := len(pts[0])
	acc := make([]float64, dim)
	for _, p := range pts {
		for d, v := range p {
			acc[d] += float64(v)
		}
	}
	c := make(Point, dim)
	for d := range c {
		c[d] = float32(acc[d] / float64(len(pts)))
	}
	return c
}
