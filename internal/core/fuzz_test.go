package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// FuzzDecodeNode throws arbitrary bytes at the page decoder: it must either
// return a structured error or a decodable node — never panic, never loop.
// Run `go test -fuzz FuzzDecodeNode ./internal/core` to explore beyond the
// seed corpus.
func FuzzDecodeNode(f *testing.F) {
	// Seed with a few valid pages of both kinds, plus garbage.
	mkData := func(dim, count int) []byte {
		n := &node{id: 1, leaf: true, dim: dim, kdRoot: kdNone}
		for i := 0; i < count; i++ {
			p := make(geom.Point, dim)
			for d := range p {
				p[d] = float32(i) / 10
			}
			n.appendPoint(p, RecordID(i))
		}
		buf := make([]byte, 4096)
		size, err := n.encode(buf, dim)
		if err != nil {
			f.Fatal(err)
		}
		return buf[:size]
	}
	mkIndex := func(dim int) []byte {
		n := &node{id: 2, kd: []kdNode{
			{Dim: 0, Lsp: 0.5, Rsp: 0.4, Left: 1, Right: 2},
			{Left: kdNone, Right: kdNone, Child: 7},
			{Left: kdNone, Right: kdNone, Child: 9},
		}, kdRoot: 0}
		buf := make([]byte, 4096)
		size, err := n.encode(buf, dim)
		if err != nil {
			f.Fatal(err)
		}
		return buf[:size]
	}
	f.Add(mkData(4, 3), 4)
	f.Add(mkData(16, 0), 16)
	f.Add(mkIndex(4), 4)
	f.Add([]byte{}, 4)
	f.Add([]byte{'H', 0, 4, 0, 255, 255}, 4)
	f.Add([]byte{'H', 1, 4, 0, 3, 0, 0, 0, 0}, 4)
	f.Add([]byte{'X', 9, 1, 2, 3}, 2)

	f.Fuzz(func(t *testing.T, data []byte, dim int) {
		if dim < 1 || dim > 64 {
			return
		}
		n, err := decodeNode(pagefile.PageID(1), data, dim)
		if err != nil {
			return
		}
		// Anything that decoded must re-encode within a bounded buffer and
		// decode again to the same structural size.
		buf := make([]byte, 1<<20)
		size, err := n.encode(buf, dim)
		if err != nil {
			return // oversized kd arenas may legitimately refuse
		}
		if _, err := decodeNode(pagefile.PageID(1), buf[:size], dim); err != nil {
			t.Fatalf("re-decode of re-encoded node failed: %v", err)
		}
	})
}

// FuzzNodeRoundTrip builds structurally valid data nodes from fuzz input
// and demands an exact encode → decode → encode fixed point: the second
// encoding must be byte-identical to the first. Run with
// `go test -fuzz FuzzNodeRoundTrip ./internal/core`.
func FuzzNodeRoundTrip(f *testing.F) {
	f.Add(4, []byte{0, 0, 128, 63, 0, 0, 0, 63, 1, 2, 3, 4})
	f.Add(1, []byte{})
	f.Add(16, bytes.Repeat([]byte{0x41}, 200))
	f.Fuzz(func(t *testing.T, dim int, raw []byte) {
		if dim < 1 || dim > 64 {
			return
		}
		// Consume raw as a stream of float32 coordinates; each dim of them
		// plus a derived rid makes one entry.
		n := &node{id: 1, leaf: true, dim: dim, kdRoot: kdNone}
		for off := 0; off+4*dim <= len(raw) && n.count() < 200; off += 4 * dim {
			p := make(geom.Point, dim)
			for d := 0; d < dim; d++ {
				bits := binary.LittleEndian.Uint32(raw[off+4*d:])
				v := math.Float32frombits(bits)
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					v = 0
				}
				p[d] = v
			}
			n.appendPoint(p, RecordID(off))
		}
		buf1 := make([]byte, 1<<20)
		size1, err := n.encode(buf1, dim)
		if err != nil {
			t.Fatalf("encode of valid data node failed: %v", err)
		}
		decoded, err := decodeNode(pagefile.PageID(1), buf1[:size1], dim)
		if err != nil {
			t.Fatalf("decode of encoded node failed: %v", err)
		}
		if decoded.count() != n.count() {
			t.Fatalf("decoded %d entries, encoded %d", decoded.count(), n.count())
		}
		buf2 := make([]byte, 1<<20)
		size2, err := decoded.encode(buf2, dim)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(buf1[:size1], buf2[:size2]) {
			t.Fatalf("encoding is not a fixed point: %d bytes vs %d", size1, size2)
		}
	})
}

// FuzzSlabRoundTrip exercises the flat-slab leaf layout directly: entries
// built through appendPoint must encode and decode back to an identical
// slab (vals length exactly count*dim, per-point views equal, rids equal),
// and the re-encoding must be byte-identical. Seeds cover odd dimensions
// and the empty leaf. Run with
// `go test -fuzz FuzzSlabRoundTrip ./internal/core`.
func FuzzSlabRoundTrip(f *testing.F) {
	f.Add(3, 5, uint64(7))   // odd dim
	f.Add(1, 0, uint64(1))   // empty leaf, minimal dim
	f.Add(7, 1, uint64(42))  // odd dim, single entry
	f.Add(16, 9, uint64(3))  // even dim
	f.Add(63, 2, uint64(11)) // large odd dim
	f.Fuzz(func(t *testing.T, dim, count int, seed uint64) {
		if dim < 1 || dim > 64 || count < 0 || count > 120 {
			return
		}
		n := &node{id: 1, leaf: true, dim: dim, kdRoot: kdNone}
		s := seed
		for i := 0; i < count; i++ {
			p := make(geom.Point, dim)
			for d := range p {
				s = s*6364136223846793005 + 1442695040888963407
				p[d] = float32(s>>40) / float32(1<<24)
			}
			n.appendPoint(p, RecordID(s))
		}
		if len(n.vals) != count*dim || len(n.rids) != count {
			t.Fatalf("slab shape: %d vals, %d rids, want %d and %d", len(n.vals), len(n.rids), count*dim, count)
		}
		buf1 := make([]byte, n.serializedSize(dim))
		size1, err := n.encode(buf1, dim)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := decodeNode(pagefile.PageID(1), buf1[:size1], dim)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(dec.vals) != count*dim || dec.count() != count || dec.dim != dim {
			t.Fatalf("decoded slab shape: %d vals, count %d, dim %d", len(dec.vals), dec.count(), dec.dim)
		}
		for i := 0; i < count; i++ {
			if dec.rids[i] != n.rids[i] {
				t.Fatalf("entry %d: rid %d != %d", i, dec.rids[i], n.rids[i])
			}
			if !dec.point(i).Equal(n.point(i)) {
				t.Fatalf("entry %d: point %v != %v", i, dec.point(i), n.point(i))
			}
		}
		buf2 := make([]byte, dec.serializedSize(dim))
		size2, err := dec.encode(buf2, dim)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf1[:size1], buf2[:size2]) {
			t.Fatalf("slab encoding is not a fixed point: %d bytes vs %d", size1, size2)
		}
	})
}

// FuzzTreeOps interprets fuzz input as an insert/delete/search program run
// against a small tree and a brute-force model, checking agreement and
// invariant cleanliness throughout. Run with
// `go test -fuzz FuzzTreeOps ./internal/core`.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 200, 210, 1, 10, 20, 2, 0, 0, 255, 255})
	f.Add(bytes.Repeat([]byte{0, 7, 130, 0, 9, 200, 1, 7, 130}, 20))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, program []byte) {
		const dim = 2
		file := pagefile.NewMemFile(256)
		tree, err := New(file, Config{Dim: dim, PageSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		type rec struct {
			p   geom.Point
			rid RecordID
		}
		var model []rec
		nextRID := RecordID(0)
		coord := func(b byte) float32 { return float32(b) / 255 }
		ops := 0
		for off := 0; off+1+dim <= len(program) && ops < 300; off += 1 + dim {
			ops++
			p := geom.Point{coord(program[off+1]), coord(program[off+2])}
			switch program[off] % 3 {
			case 0: // insert
				rid := nextRID
				nextRID++
				if err := tree.Insert(p, rid); err != nil {
					t.Fatalf("op %d: insert: %v", ops, err)
				}
				model = append(model, rec{p, rid})
			case 1: // delete first model entry at this point, or probe a miss
				target := -1
				for i, m := range model {
					if m.p.Equal(p) {
						target = i
						break
					}
				}
				var wantRID RecordID
				if target >= 0 {
					wantRID = model[target].rid
				}
				found, err := tree.Delete(p, wantRID)
				if err != nil {
					t.Fatalf("op %d: delete: %v", ops, err)
				}
				if found != (target >= 0) {
					t.Fatalf("op %d: delete found=%v, model says %v", ops, found, target >= 0)
				}
				if target >= 0 {
					model[target] = model[len(model)-1]
					model = model[:len(model)-1]
				}
			case 2: // box search around p
				rect := geom.Rect{
					Lo: geom.Point{p[0] - 0.2, p[1] - 0.2},
					Hi: geom.Point{p[0] + 0.2, p[1] + 0.2},
				}
				got, err := tree.SearchBox(rect)
				if err != nil {
					t.Fatalf("op %d: search: %v", ops, err)
				}
				want := 0
				for _, m := range model {
					if rect.Contains(m.p) {
						want++
					}
				}
				if len(got) != want {
					t.Fatalf("op %d: box returned %d, model has %d", ops, len(got), want)
				}
			}
		}
		if tree.Size() != len(model) {
			t.Fatalf("size = %d, model has %d", tree.Size(), len(model))
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after %d ops: %v", ops, err)
		}
	})
}

// FuzzBulkSplitOrder checks the order bulk loading partitions a range in:
// the radix sort of (orderedBits, position) pairs must produce the very
// permutation a stable comparison sort of the coordinates does, which is
// what keeps bulk-loaded files byte-identical whichever sort computes it.
// Each fuzz byte decodes to one coordinate drawn from a few dozen values —
// so ties are the rule — spanning both signs of zero, subnormals and
// ±MaxFloat32.
func FuzzBulkSplitOrder(f *testing.F) {
	f.Add([]byte{0, 8, 1, 9, 0, 8})
	f.Add([]byte("a longer seed, so that the byte histogram passes see runs of every length"))
	f.Add(bytes.Repeat([]byte{3, 11, 0, 8, 0x42, 0x4a, 0x35, 0x2d, 6, 14}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		mags := [8]float32{0, 0.25, 0.5, 1, 7, math.SmallestNonzeroFloat32, 1e-38, math.MaxFloat32}
		vals := make([]float32, len(data))
		for i, b := range data {
			v := mags[b&7] * float32(int(1)<<(b>>4&3))
			if b&8 != 0 {
				v = -v
			}
			vals[i] = v
		}
		want := make([]int32, len(vals))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })

		keys := make([]splitKey, len(vals))
		for i, v := range vals {
			keys[i] = splitKey{orderedBits(v), int32(i)}
		}
		radixSort(keys, make([]splitKey, len(keys)))
		for i, k := range keys {
			if k.p != want[i] {
				t.Fatalf("position %d holds entry %d (%g), stable sort puts %d (%g) there",
					i, k.p, vals[k.p], want[i], vals[want[i]])
			}
		}
	})
}

// FuzzBulkChildRects checks the rectangles a bulk-load split hands its
// children: for any rows, any split dimension and any cut, childRects must
// give each side exactly geom.BoundingRect's bits, as the split's policy
// would have seen them had the side been rescanned. The parent's rectangle
// is taken, as in BulkLoad, over the rows before the stable sort by the
// split coordinate. The first byte picks 1–8 dimensions and the split
// dimension, the second the cut; every further byte is one coordinate drawn
// from a set that is half zeros of either sign, so ties, duplicate rows and
// signed zeros that change order in the sort are the rule, and a unique
// extreme on either side is common.
func FuzzBulkChildRects(f *testing.F) {
	// The larger side holds -0 and +0 in dimension 1 in the other order
	// than the parent did, and the smaller side holds neither.
	f.Add([]byte{1, 0, 5, 1, 4, 0, 6, 5})
	f.Add([]byte("rows of sixty-four bytes split into eight dimensions, and then some more"))
	f.Add(bytes.Repeat([]byte{0x1b, 7, 0, 1, 2, 3, 4, 5, 6, 7, 1, 0}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		negZero := float32(math.Copysign(0, -1))
		vals := [8]float32{negZero, 0, negZero, 0, 0.5, 1, -1, 0.25}
		dim := 1 + int(data[0]&7)
		sortDim := int(data[0]>>3) % dim
		rows := data[2:]
		n := len(rows) / dim
		if n < 2 {
			return
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = make(geom.Point, dim)
			for d := range pts[i] {
				pts[i][d] = vals[rows[i*dim+d]&7]
			}
		}
		br := geom.BoundingRect(pts)
		slices.SortStableFunc(pts, func(a, b geom.Point) int { return cmp.Compare(a[sortDim], b[sortDim]) })
		cut := 1 + int(data[1])%(n-1)

		left, right := geom.EmptyRect(dim), geom.EmptyRect(dim)
		childRects(pts, cut, br, left, right)
		for _, side := range []struct {
			name string
			got  geom.Rect
			rows []geom.Point
		}{{"left", left, pts[:cut]}, {"right", right, pts[cut:]}} {
			want := geom.BoundingRect(side.rows)
			for d := 0; d < dim; d++ {
				if math.Float32bits(side.got.Lo[d]) != math.Float32bits(want.Lo[d]) ||
					math.Float32bits(side.got.Hi[d]) != math.Float32bits(want.Hi[d]) {
					t.Fatalf("%s of cut %d/%d, dim %d: derived [%g, %g] (%#x, %#x), rescanned [%g, %g] (%#x, %#x)",
						side.name, cut, n, d, side.got.Lo[d], side.got.Hi[d],
						math.Float32bits(side.got.Lo[d]), math.Float32bits(side.got.Hi[d]),
						want.Lo[d], want.Hi[d], math.Float32bits(want.Lo[d]), math.Float32bits(want.Hi[d]))
				}
			}
		}
	})
}

// chooseChildBrute is ChooseSubtree without the certificate: every
// reachable kd leaf pays enlargementAndArea and the first least
// (enlargement, area) wins. It is FuzzChooseChild's oracle: chooseChild,
// which skips certified leaves, must choose exactly what this walk does.
func chooseChildBrute(n *node, nodeBR geom.Rect, p geom.Point) (int32, []int32) {
	br := nodeBR.Clone()
	var (
		bestIdx  int32 = kdNone
		bestEnl        = 0.0
		bestArea       = 0.0
		first          = true
		stack          = make([]int32, 0, 16)
		bestPath       = make([]int32, 0, 16)
	)
	var walk func(idx int32)
	walk = func(idx int32) {
		stack = append(stack, idx)
		defer func() { stack = stack[:len(stack)-1] }()
		k := &n.kd[idx]
		if k.isLeaf() {
			enl, area := enlargementAndArea(br, p)
			if first || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				first = false
				bestIdx, bestEnl, bestArea = idx, enl, area
				bestPath = append(bestPath[:0], stack...)
			}
			return
		}
		d := int(k.Dim)
		oldHi := br.Hi[d]
		if k.Lsp < oldHi {
			br.Hi[d] = k.Lsp
		}
		if br.Hi[d] >= br.Lo[d] {
			walk(k.Left)
		}
		br.Hi[d] = oldHi
		oldLo := br.Lo[d]
		if k.Rsp > oldLo {
			br.Lo[d] = k.Rsp
		}
		if br.Hi[d] >= br.Lo[d] {
			walk(k.Right)
		}
		br.Lo[d] = oldLo
	}
	walk(n.kdRoot)
	return bestIdx, bestPath
}

// FuzzChooseChild checks ChooseSubtree against chooseChildBrute: the same
// kd leaf and the same kd path, on any index node. The fuzz bytes are a
// script: a dimensionality, the node's BR, the point, then a kd-tree built
// depth first. Every coordinate comes from a palette spanning zero, the
// unit interval, subnormals, the float32 normal boundary and ±MaxFloat32,
// each optionally nudged one ulp either way (so ±Inf too); split positions
// from it make overlapping, gapped and zero-extent children, and points
// from it land inside, on the edge of and outside every leaf.
func FuzzChooseChild(f *testing.F) {
	f.Add([]byte{1, 0x10, 0x13, 0x02, 0x12, 0, 0x02, 0x02, 1, 1})
	f.Add([]byte("a kd-tree of a few levels over three dimensions, some leaves gapped"))
	f.Add(bytes.Repeat([]byte{7, 0x13, 0x0b, 0x03, 0x4c, 0x05, 0x86, 1, 2, 0x0a, 0x21}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		mags := [8]float32{0, 0.25, 0.5, 1, 0.75, math.SmallestNonzeroFloat32, 0x1p-126, math.MaxFloat32}
		coord := func() float32 {
			b := next()
			v := mags[b&7] * float32(int(1)<<(b>>3&3))
			if b&0x20 != 0 {
				v = -v
			}
			switch b >> 6 {
			case 1:
				v = math.Nextafter32(v, float32(math.Inf(1)))
			case 2:
				v = math.Nextafter32(v, float32(math.Inf(-1)))
			}
			return v
		}
		dim := 1 + int(next())%10
		br := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
		for d := 0; d < dim; d++ {
			lo, hi := coord(), coord()
			if hi < lo {
				lo, hi = hi, lo
			}
			br.Lo[d], br.Hi[d] = lo, hi
		}
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = coord()
		}
		n := &node{}
		var build func(depth int) int32
		build = func(depth int) int32 {
			idx := int32(len(n.kd))
			b := next()
			if depth >= 6 || b&3 == 0 || len(data) == 0 {
				n.kd = append(n.kd, kdNode{Left: kdNone, Right: kdNone, Child: pagefile.PageID(idx)})
				return idx
			}
			n.kd = append(n.kd, kdNode{Dim: uint16(int(b>>2) % dim), Lsp: coord(), Rsp: coord()})
			left := build(depth + 1)
			right := build(depth + 1)
			n.kd[idx].Left, n.kd[idx].Right = left, right
			return idx
		}
		n.kdRoot = build(0)

		wantIdx, wantPath := chooseChildBrute(n, br, p)
		var tree Tree
		gotIdx, gotPath := tree.chooseChild(n, br, p)
		if gotIdx != wantIdx || !slices.Equal(gotPath, wantPath) {
			t.Fatalf("br %v, p %v: chose leaf %d by %v, brute force %d by %v", br, p, gotIdx, gotPath, wantIdx, wantPath)
		}
	})
}
