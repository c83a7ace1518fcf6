// Package workload generates the query sets of the paper's evaluation:
// bounding-box queries and distance-based range queries "randomly
// distributed in the data space with appropriately chosen ranges to get
// constant selectivity" (Section 4) — 0.07% for FOURIER and 0.2% for
// COLHIST. Query extents are calibrated against the dataset by bisection so
// the average selectivity matches the target.
package workload

import (
	"fmt"
	"math/rand"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
)

// Selectivity targets used throughout the paper.
const (
	FourierSelectivity = 0.0007
	ColHistSelectivity = 0.002
)

// Ball is a distance-based range query: all points within Radius of Center
// under the experiment's metric.
type Ball struct {
	Center geom.Point
	Radius float64
}

// BoxQueries returns count box queries centered at data-distributed points,
// with one global side length calibrated so the mean selectivity over the
// dataset is approximately target. The same side is used for every query,
// as in the paper (queries share the radius; only their positions vary).
func BoxQueries(data []geom.Point, count int, target float64, seed int64) ([]geom.Rect, float64, error) {
	if err := checkArgs(data, count, target); err != nil {
		return nil, 0, err
	}
	dim := len(data[0])
	rng := rand.New(rand.NewSource(seed))
	centers := sampleCenters(data, count, rng)
	sample := samplePoints(data, 4000, rng)

	measure := func(side float64) float64 {
		total := 0
		for _, c := range centers {
			q := boxAround(c, side, dim)
			for _, p := range sample {
				if q.Contains(p) {
					total++
				}
			}
		}
		return float64(total) / float64(len(centers)) / float64(len(sample))
	}
	side := bisect(measure, target, 1.0)
	queries := make([]geom.Rect, count)
	for i, c := range centers {
		queries[i] = boxAround(c, side, dim)
	}
	return queries, side, nil
}

// RangeQueries returns count distance-range queries under metric m with a
// globally calibrated radius hitting the target mean selectivity.
func RangeQueries(data []geom.Point, count int, target float64, m dist.Metric, seed int64) ([]Ball, float64, error) {
	if err := checkArgs(data, count, target); err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	centers := sampleCenters(data, count, rng)
	sample := samplePoints(data, 4000, rng)

	measure := func(radius float64) float64 {
		total := 0
		for _, c := range centers {
			for _, p := range sample {
				if m.Distance(c, p) <= radius {
					total++
				}
			}
		}
		return float64(total) / float64(len(centers)) / float64(len(sample))
	}
	// An upper bound for the radius: the diameter of the unit cube under m
	// is at most m.Distance(origin, ones).
	dim := len(data[0])
	hi := m.Distance(make(geom.Point, dim), onesPoint(dim))
	radius := bisect(measure, target, hi)
	queries := make([]Ball, count)
	for i, c := range centers {
		queries[i] = Ball{Center: c.Clone(), Radius: radius}
	}
	return queries, radius, nil
}

func checkArgs(data []geom.Point, count int, target float64) error {
	if len(data) == 0 {
		return fmt.Errorf("workload: empty dataset")
	}
	if count < 1 {
		return fmt.Errorf("workload: count must be >= 1, got %d", count)
	}
	if target <= 0 || target >= 1 {
		return fmt.Errorf("workload: selectivity target %g outside (0,1)", target)
	}
	return nil
}

// sampleCenters picks query anchor points from the data distribution, the
// paper's "queries randomly distributed in the data space".
func sampleCenters(data []geom.Point, count int, rng *rand.Rand) []geom.Point {
	centers := make([]geom.Point, count)
	for i := range centers {
		centers[i] = data[rng.Intn(len(data))]
	}
	return centers
}

// samplePoints draws at most max points for selectivity estimation.
func samplePoints(data []geom.Point, max int, rng *rand.Rand) []geom.Point {
	if len(data) <= max {
		return data
	}
	sample := make([]geom.Point, max)
	for i := range sample {
		sample[i] = data[rng.Intn(len(data))]
	}
	return sample
}

// boxAround builds the query box of the given side centered at c, clipped
// to the unit cube.
func boxAround(c geom.Point, side float64, dim int) geom.Rect {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	h := float32(side / 2)
	for d := 0; d < dim; d++ {
		lo[d] = c[d] - h
		hi[d] = c[d] + h
		if lo[d] < 0 {
			lo[d] = 0
		}
		if hi[d] > 1 {
			hi[d] = 1
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// bisect finds x in (0, hi] with measure(x) ~ target; measure must be
// monotone non-decreasing. 40 iterations give plenty of precision for a
// selectivity knob.
func bisect(measure func(float64) float64, target, hi float64) float64 {
	lo := 0.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if measure(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func onesPoint(dim int) geom.Point {
	p := make(geom.Point, dim)
	for d := range p {
		p[d] = 1
	}
	return p
}
