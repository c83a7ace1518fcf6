package dataset

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"hybridtree/internal/geom"
)

// ColHist generates n color-histogram vectors — the paper's COLHIST dataset
// (~70K Corel images binned on 4x4, 8x4 and 8x8 hue/saturation grids for
// 16, 32 and 64 dimensions [18]). Each synthetic "image" is a mixture of a
// few dominant color clusters: cluster centers land on an 8x8 HS grid, mass
// is Gamma-distributed across clusters and spills into neighboring bins
// with Gaussian falloff, then the histogram is normalized to sum to one and
// marginalized down to the requested grid. The result shares real color
// histograms' indexing-relevant structure: non-negative, unit-sum, sparse
// (most bins near zero), heavily skewed, and strongly correlated across
// neighboring bins.
//
// dim must be 16 (4x4), 32 (8x4) or 64 (8x8). Generation runs on
// runtime.GOMAXPROCS(0) workers; the output depends only on n, dim and seed,
// bit for bit, never on GOMAXPROCS.
func ColHist(n, dim int, seed int64) []geom.Point {
	var hBins, sBins int
	switch dim {
	case 16:
		hBins, sBins = 4, 4
	case 32:
		hBins, sBins = 8, 4
	case 64:
		hBins, sBins = 8, 8
	default:
		panic("dataset: ColHist supports dim 16, 32 or 64")
	}
	rng := rand.New(rand.NewSource(seed))

	// Scene archetypes: collections like Corel's are dominated by recurring
	// scene types (sunsets, forests, oceans ...) whose images share dominant
	// colors. Each archetype fixes a palette of color clusters; each image
	// draws an archetype with Zipf-like popularity and jitters the palette.
	// The resulting dense neighborhoods are what give similarity queries
	// their constant-selectivity radii and the index its prunable clusters.
	const nScenes = 48
	scenes := make([][]cluster, nScenes)
	for i := range scenes {
		k := 2 + rng.Intn(4)
		scene := make([]cluster, k)
		for c := range scene {
			scene[c] = cluster{
				ch:     rng.Float64() * 8,
				cs:     rng.Float64() * 8,
				spread: 0.3 + rng.Float64()*0.6,
				weight: gammaLike(rng, 1.2),
			}
		}
		scenes[i] = scene
	}

	// The rng is the only sequential dependency: draw each block's randoms
	// in order, then let workers turn disjoint ranges of the block into
	// vectors. A bounded block keeps the draws' memory flat at any n.
	pts := make([]geom.Point, n)
	workers := runtime.GOMAXPROCS(0)
	scratch := make([][]float64, workers)
	for w := range scratch {
		scratch[w] = make([]float64, 64+dim) // full 8x8 grid, then binned
	}
	draws := make([]imageDraw, min(n, colHistBlock))
	for base := 0; base < n; base += colHistBlock {
		block := draws[:min(colHistBlock, n-base)]
		for i := range block {
			d := &block[i]
			// Zipf-ish archetype popularity: squaring a uniform skews
			// toward low indices (popular scenes).
			u := rng.Float64()
			d.scene = scenes[int(u*u*float64(nScenes))]
			for c, cl := range d.scene {
				// Per-image jitter: same scene, different photo.
				d.ch[c] = cl.ch + rng.NormFloat64()*0.25
				d.cs[c] = cl.cs + rng.NormFloat64()*0.25
				d.weight[c] = cl.weight * (0.7 + 0.6*rng.Float64())
			}
			for j := range d.strayBin {
				d.strayBin[j] = rng.Intn(64)
				d.strayVal[j] = 0.003 * rng.Float64()
			}
		}
		per := (len(block) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w*per < len(block); w++ {
			lo, hi := w*per, min((w+1)*per, len(block))
			wg.Add(1)
			go func(buf []float64) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					pts[base+i] = block[i].vector(buf[:64], buf[64:], hBins, sBins)
				}
			}(scratch[w])
		}
		wg.Wait()
	}
	return pts
}

// colHistBlock is how many images' randoms ColHist draws ahead of the
// workers that turn them into vectors.
const colHistBlock = 4096

type cluster struct {
	ch, cs, spread, weight float64
}

// imageDraw is every random one COLHIST image consumes: its scene, each
// cluster's jittered centre and weight, and 4 stray (bin, value) pairs.
type imageDraw struct {
	scene          []cluster
	ch, cs, weight [5]float64 // a scene has 2 + rng.Intn(4) clusters
	strayBin       [4]int
	strayVal       [4]float64
}

// vector computes the image's histogram into full (64) and binned (dim),
// both overwritten, and returns it normalized to sum to one.
func (d *imageDraw) vector(full, binned []float64, hBins, sBins int) geom.Point {
	clear(full)
	for c, cl := range d.scene {
		ch, cs, weight := d.ch[c], d.cs[c], d.weight[c]
		twoVar := 2 * cl.spread * cl.spread
		for h := 0; h < 8; h++ {
			dh := wrapDelta(float64(h)+0.5-ch, 8)
			for s := 0; s < 8; s++ {
				ds := float64(s) + 0.5 - cs
				full[h*8+s] += weight * math.Exp(-(dh*dh+ds*ds)/twoVar)
			}
		}
	}
	// A few stray pixels of unrelated colors, as real images have — but
	// only in a handful of bins: real color histograms are sparse, and that
	// sparsity is what dead-space elimination feeds on.
	for j, bin := range d.strayBin {
		full[bin] += d.strayVal[j]
	}

	// Marginalize 8x8 down to the requested grid.
	clear(binned)
	for h := 0; h < 8; h++ {
		for s := 0; s < 8; s++ {
			bh := h * hBins / 8
			bs := s * sBins / 8
			binned[bh*sBins+bs] += full[h*8+s]
		}
	}
	var sum float64
	for _, v := range binned {
		sum += v
	}
	p := make(geom.Point, len(binned))
	for d, v := range binned {
		f := v / sum
		if f > 1 {
			f = 1
		}
		p[d] = float32(f)
	}
	return p
}

// wrapDelta returns the signed circular difference of x on a ring of the
// given period (hue is circular).
func wrapDelta(x, period float64) float64 {
	for x > period/2 {
		x -= period
	}
	for x < -period/2 {
		x += period
	}
	return x
}

// gammaLike draws a positive skewed value (sum of shape exponentials — a
// small-integer-shape Gamma), giving clusters realistically unequal mass.
func gammaLike(rng *rand.Rand, shape float64) float64 {
	v := 0.0
	whole := int(shape)
	for i := 0; i < whole; i++ {
		v += -math.Log(1 - rng.Float64())
	}
	if frac := shape - float64(whole); frac > 0 {
		v += -math.Log(1-rng.Float64()) * frac
	}
	return v
}
