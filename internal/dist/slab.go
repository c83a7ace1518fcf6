package dist

import "hybridtree/internal/geom"

// FilterBoxSlab appends to hits the index of every slab point contained in
// the box [lo, hi], scanning linearly in point order. Containment matches
// geom.Rect.Contains exactly: a point is out when any coordinate is < lo[d]
// or > hi[d] (boundaries inclusive, NaN coordinates excluded by the same
// comparisons).
func FilterBoxSlab(lo, hi geom.Point, slab []float32, dim int, hits []int32) []int32 {
	n := len(slab) / dim
	for i := 0; i < n; i++ {
		row := slab[i*dim : (i+1)*dim]
		in := true
		for d := 0; d < dim; d++ {
			if row[d] < lo[d] || row[d] > hi[d] {
				in = false
				break
			}
		}
		if in {
			hits = append(hits, int32(i))
		}
	}
	return hits
}
