package workload

import (
	"math"
	"math/rand"
	"testing"

	"hybridtree/internal/dataset"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
)

// refBisect and the two ref*Measure closures are the straightforward
// calibration: every bisection step re-tests every (centre, sample) pair.
// The package's calibration must return bit-identical sides and radii.
func refBisect(measure func(float64) float64, target, hi float64) float64 {
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

func refBoxSide(data []geom.Point, count int, target float64, seed int64) float64 {
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
	return refBisect(measure, target, 1.0)
}

func refRadius(data []geom.Point, count int, target float64, m dist.Metric, seed int64) float64 {
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
	dim := len(data[0])
	hi := m.Distance(make(geom.Point, dim), onesPoint(dim))
	return refBisect(measure, target, hi)
}

func TestCalibrationMatchesPerStepMeasure(t *testing.T) {
	type set struct {
		name   string
		data   func(seed int64) []geom.Point
		target float64
	}
	const n = 1000
	sets := []set{
		{"colhist16", func(s int64) []geom.Point { return dataset.ColHist(n, 16, s) }, ColHistSelectivity},
		{"colhist32", func(s int64) []geom.Point { return dataset.ColHist(n, 32, s) }, ColHistSelectivity},
		{"colhist64", func(s int64) []geom.Point { return dataset.ColHist(n, 64, s) }, ColHistSelectivity},
		{"fourier16", func(s int64) []geom.Point { return dataset.Fourier(n, 16, s) }, FourierSelectivity},
	}
	metrics := []struct {
		name string
		m    dist.Metric
	}{{"L1", dist.L1()}, {"L2", dist.L2()}}
	for _, s := range sets {
		for seed := int64(1); seed <= 4; seed++ {
			data := s.data(seed)
			for _, count := range []int{1, 7, 32} {
				_, side, err := BoxQueries(data, count, s.target, seed)
				if err != nil {
					t.Fatal(err)
				}
				if want := refBoxSide(data, count, s.target, seed); side != want {
					t.Errorf("%s seed %d count %d: box side %#x, per-step reference %#x",
						s.name, seed, count, math.Float64bits(side), math.Float64bits(want))
				}
				for _, m := range metrics {
					_, radius, err := RangeQueries(data, count, s.target, m.m, seed)
					if err != nil {
						t.Fatal(err)
					}
					if want := refRadius(data, count, s.target, m.m, seed); radius != want {
						t.Errorf("%s seed %d count %d %s: radius %#x, per-step reference %#x",
							s.name, seed, count, m.name, math.Float64bits(radius), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestCalibrationPinned pins the side and L1 radius at the shape the
// end-to-end benchmark calibrates: 40,000 64-d COLHIST vectors of seed 1999
// and 32 centres drawn with seed 1999.
func TestCalibrationPinned(t *testing.T) {
	data := dataset.ColHist(40000, 64, 1999)
	_, side, err := BoxQueries(data, 32, ColHistSelectivity, 1999)
	if err != nil {
		t.Fatal(err)
	}
	_, radius, err := RangeQueries(data, 32, ColHistSelectivity, dist.L1(), 1999)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(side); got != 0x3fa5ca9aafff0000 {
		t.Errorf("box side bits %#x, want 0x3fa5ca9aafff0000", got)
	}
	if got := math.Float64bits(radius); got != 0x3fbf999fca200000 {
		t.Errorf("L1 radius bits %#x, want 0x3fbf999fca200000", got)
	}
}
