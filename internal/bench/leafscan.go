package bench

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
)

// This file is the measurement harness for the flat-slab leaf layout: it
// keeps a small self-contained copy of the *legacy* per-point decode path
// (one []geom.Point allocation per entry, exactly what internal/core did
// before the slab rewrite) as the baseline, decodes the same page both ways,
// and scans both layouts with the same k-NN-style bounded distance loop.
// The page bytes follow the frozen v1 data-page format — 6-byte header
// (magic 'H', type 0, dim uint16, count uint16), then per entry a uint64
// record id followed by dim little-endian float32 coordinates — so the
// comparison measures layout and kernel, not codec differences.

// LegacyLeaf is the pre-slab in-memory layout: one heap-allocated point per
// entry, pointers chasing out of the page in decode order.
type LegacyLeaf struct {
	Pts  []geom.Point
	Rids []uint64
}

// SlabLeaf is the current layout: all coordinates in one contiguous slab,
// record ids in a parallel slice.
type SlabLeaf struct {
	Vals []float32
	Rids []uint64
	Dim  int
}

const leafHeaderSize = 6

// EncodeLeafPage builds a v1 data page over deterministic pseudo-random
// coordinates (splitmix-style from seed). Used by both decode baselines and
// the scan benchmarks so every measurement sees identical bytes.
func EncodeLeafPage(dim, count int, seed uint64) []byte {
	buf := make([]byte, leafHeaderSize+count*(8+4*dim))
	buf[0] = 'H'
	buf[1] = 0
	binary.LittleEndian.PutUint16(buf[2:], uint16(dim))
	binary.LittleEndian.PutUint16(buf[4:], uint16(count))
	off := leafHeaderSize
	s := seed
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(buf[off:], uint64(i)<<16|s&0xffff)
		off += 8
		for d := 0; d < dim; d++ {
			s = s*6364136223846793005 + 1442695040888963407
			v := float32(s>>40) / float32(1<<24)
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return buf
}

// DecodeLegacyLeaf decodes a data page the way internal/core did before the
// slab layout: a fresh geom.Point allocation per entry.
func DecodeLegacyLeaf(page []byte, dim int) (*LegacyLeaf, error) {
	count, err := leafCount(page, dim)
	if err != nil {
		return nil, err
	}
	l := &LegacyLeaf{Pts: make([]geom.Point, 0, count), Rids: make([]uint64, 0, count)}
	off := leafHeaderSize
	for i := 0; i < count; i++ {
		rid := binary.LittleEndian.Uint64(page[off:])
		off += 8
		p := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = math.Float32frombits(binary.LittleEndian.Uint32(page[off:]))
			off += 4
		}
		l.Pts = append(l.Pts, p)
		l.Rids = append(l.Rids, rid)
	}
	return l, nil
}

// DecodeSlabLeaf decodes the same page into the contiguous layout: two
// allocations total regardless of entry count.
func DecodeSlabLeaf(page []byte, dim int) (*SlabLeaf, error) {
	count, err := leafCount(page, dim)
	if err != nil {
		return nil, err
	}
	l := &SlabLeaf{Vals: make([]float32, count*dim), Rids: make([]uint64, count), Dim: dim}
	off := leafHeaderSize
	for i := 0; i < count; i++ {
		l.Rids[i] = binary.LittleEndian.Uint64(page[off:])
		off += 8
		row := l.Vals[i*dim : (i+1)*dim]
		for d := 0; d < dim; d++ {
			row[d] = math.Float32frombits(binary.LittleEndian.Uint32(page[off:]))
			off += 4
		}
	}
	return l, nil
}

func leafCount(page []byte, dim int) (int, error) {
	if len(page) < leafHeaderSize || page[0] != 'H' || page[1] != 0 {
		return 0, fmt.Errorf("bench: not a data page")
	}
	if got := int(binary.LittleEndian.Uint16(page[2:])); got != dim {
		return 0, fmt.Errorf("bench: page dim %d, want %d", got, dim)
	}
	count := int(binary.LittleEndian.Uint16(page[4:]))
	if leafHeaderSize+count*(8+4*dim) > len(page) {
		return 0, fmt.Errorf("bench: truncated page")
	}
	return count, nil
}

// ScanLegacyKNN is the pre-slab leaf loop of searchKNN: per-point bounded
// squared distance through the pointer-per-point layout. Returns the best
// squared distance found and the number of entries within bound.
func ScanLegacyKNN(q geom.Point, l *LegacyLeaf, bound float64) (float64, int) {
	add, _ := dist.AsAdditive(dist.L2())
	best := math.Inf(1)
	within := 0
	for _, p := range l.Pts {
		d2 := add.SumBounded(q, p, bound)
		if d2 > bound {
			continue
		}
		within++
		if d2 < best {
			best = d2
		}
	}
	return best, within
}

// ScanSlabKNN is the slab leaf loop: one streaming kernel call over the
// contiguous values, then a scalar pass over its output.
func ScanSlabKNN(q geom.Point, l *SlabLeaf, bound float64, out []float64) (float64, int) {
	add, _ := dist.AsAdditive(dist.L2())
	n := len(l.Rids)
	out = out[:n]
	add.SumSlab(q, l.Vals, l.Dim, bound, out)
	best := math.Inf(1)
	within := 0
	for _, d2 := range out {
		if d2 > bound {
			continue
		}
		within++
		if d2 < best {
			best = d2
		}
	}
	return best, within
}
