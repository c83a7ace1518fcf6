package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func TestFourierBasics(t *testing.T) {
	for _, dim := range []int{8, 12, 16} {
		pts := Fourier(2000, dim, 1)
		if len(pts) != 2000 {
			t.Fatalf("dim %d: got %d points", dim, len(pts))
		}
		for i, p := range pts {
			if len(p) != dim {
				t.Fatalf("point %d has dim %d", i, len(p))
			}
			for d, v := range p {
				if v < 0 || v > 1 || math.IsNaN(float64(v)) {
					t.Fatalf("point %d dim %d = %g outside [0,1]", i, d, v)
				}
			}
		}
	}
}

func TestFourierDeterministic(t *testing.T) {
	a := Fourier(100, 16, 42)
	b := Fourier(100, 16, 42)
	c := Fourier(100, 16, 43)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different data")
		}
	}
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// Energy must concentrate in the low-order coefficients: the variance of
// leading dimensions should dominate trailing ones. This is the property
// that makes higher dimensions non-discriminating (implicit dimensionality
// reduction, paper §3.3).
func TestFourierEnergyDecay(t *testing.T) {
	pts := Fourier(3000, 16, 7)
	variance := func(d int) float64 {
		var sum, sumSq float64
		for _, p := range pts {
			v := float64(p[d])
			sum += v
			sumSq += v * v
		}
		n := float64(len(pts))
		return sumSq/n - (sum/n)*(sum/n)
	}
	// Compare total spread of the first complex coefficient (dims 0,1)
	// against the last (dims 14,15) in raw (pre-normalization) terms:
	// after per-dim normalization variances are comparable, so instead
	// check discrimination via near-boundary concentration: trailing dims
	// should have most mass tightly clustered (low variance relative to
	// leading dims at least is not guaranteed post-normalization, so use
	// interquartile-like spread of the middle mass).
	lead := variance(0) + variance(1)
	trail := variance(14) + variance(15)
	// Normalization equalizes ranges but not shape; the trailing
	// coefficients of smooth contours are noise-dominated and
	// concentrated, so their variance within the normalized range is
	// smaller.
	if trail > lead {
		t.Fatalf("no energy decay: lead var %g, trail var %g", lead, trail)
	}
}

func TestColHistBasics(t *testing.T) {
	for _, dim := range []int{16, 32, 64} {
		pts := ColHist(1500, dim, 3)
		if len(pts) != 1500 {
			t.Fatalf("dim %d: got %d", dim, len(pts))
		}
		for i, p := range pts {
			if len(p) != dim {
				t.Fatalf("point %d dim = %d", i, len(p))
			}
			var sum float64
			for d, v := range p {
				if v < 0 || v > 1 || math.IsNaN(float64(v)) {
					t.Fatalf("point %d dim %d = %g", i, d, v)
				}
				sum += float64(v)
			}
			if sum < 0.97 || sum > 1.03 {
				t.Fatalf("histogram %d sums to %g, want ~1", i, sum)
			}
		}
	}
}

func TestColHistUnsupportedDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim 10 should panic")
		}
	}()
	ColHist(10, 10, 1)
}

func TestColHistSparsity(t *testing.T) {
	// Real color histograms are sparse: most bins hold almost nothing.
	pts := ColHist(500, 64, 9)
	small := 0
	total := 0
	for _, p := range pts {
		for _, v := range p {
			total++
			if v < 0.02 {
				small++
			}
		}
	}
	frac := float64(small) / float64(total)
	if frac < 0.5 {
		t.Fatalf("only %.0f%% of bins are near-empty; histograms not sparse", frac*100)
	}
}

func TestColHistDeterministic(t *testing.T) {
	a := ColHist(50, 32, 11)
	b := ColHist(50, 32, 11)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestColHistMarginalsConsistent(t *testing.T) {
	// The 16-d histogram is a coarsening of the 64-d one in expectation;
	// verify structurally that the coarser grids still sum to 1 and are
	// less sparse (aggregation fills bins).
	fine := ColHist(300, 64, 13)
	coarse := ColHist(300, 16, 13)
	countSmall := func(pts [][]float32) float64 {
		small, total := 0, 0
		for _, p := range pts {
			for _, v := range p {
				total++
				if v < 0.02 {
					small++
				}
			}
		}
		return float64(small) / float64(total)
	}
	f := make([][]float32, len(fine))
	for i := range fine {
		f[i] = fine[i]
	}
	c := make([][]float32, len(coarse))
	for i := range coarse {
		c[i] = coarse[i]
	}
	if countSmall(c) >= countSmall(f) {
		t.Fatalf("coarse grid (%.2f near-empty) should be denser than fine (%.2f)",
			countSmall(c), countSmall(f))
	}
}

// FourierGlobal preserves relative coefficient extents: the leading
// dimensions must span far more of the unit interval than the trailing
// ones — the structure implicit dimensionality reduction feeds on.
func TestFourierGlobalExtentDecay(t *testing.T) {
	pts := FourierGlobal(3000, 16, 7)
	extent := func(d int) float64 {
		lo, hi := pts[0][d], pts[0][d]
		for _, p := range pts {
			if p[d] < lo {
				lo = p[d]
			}
			if p[d] > hi {
				hi = p[d]
			}
		}
		return float64(hi - lo)
	}
	lead := extent(0) + extent(1)
	trail := extent(14) + extent(15)
	if trail > lead/3 {
		t.Fatalf("extent decay missing: lead %g, trail %g", lead, trail)
	}
	for i, p := range pts {
		for d, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("point %d dim %d = %g outside unit cube", i, d, v)
			}
		}
	}
}

func TestFourierGlobalDeterministic(t *testing.T) {
	a := FourierGlobal(50, 12, 9)
	b := FourierGlobal(50, 12, 9)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different data")
		}
	}
}

// TestColHistPinned pins the exact float32 bits ColHist returns at every
// supported dimension and two seeds (1999 is the benchmark's). Generation
// fans out over GOMAXPROCS workers, so run it under `go test -cpu 1,2,4`:
// the output must not depend on the worker count. n spans two draw
// blocks, the second one partial.
func TestColHistPinned(t *testing.T) {
	want := map[[2]int64]uint64{
		{16, 1999}: 0xb7f6f947d5731780,
		{32, 1999}: 0x03b23c5557cf7048,
		{64, 1999}: 0x57cf9e4124533e4a,
		{16, 7}:    0xdadf1e26d9019e3c,
		{32, 7}:    0xaef57bbeaa36d832,
		{64, 7}:    0x403022b74e5ed204,
	}
	for _, dim := range []int64{16, 32, 64} {
		for _, seed := range []int64{1999, 7} {
			h := fnv.New64a()
			var buf [4]byte
			for _, p := range ColHist(5000, int(dim), seed) {
				for _, v := range p {
					binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
					h.Write(buf[:])
				}
			}
			if got := h.Sum64(); got != want[[2]int64{dim, seed}] {
				t.Errorf("ColHist(5000, %d, %d) hash = %#016x, want %#016x", dim, seed, got, want[[2]int64{dim, seed}])
			}
		}
	}
}
