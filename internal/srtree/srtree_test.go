package srtree

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

func build(t testing.TB, n, dim, pageSize int, seed int64) (*Tree, []geom.Point) {
	t.Helper()
	file := pagefile.NewMemFile(pageSize)
	tree, err := New(file, Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
		if err := tree.Insert(p, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return tree, pts
}

func queryRect(rng *rand.Rand, dim int, side float32) geom.Rect {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := 0; d < dim; d++ {
		c := rng.Float32()
		lo[d], hi[d] = c-side/2, c+side/2
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func toSet(es []core.Neighbor) map[uint64]bool {
	m := make(map[uint64]bool)
	for _, e := range es {
		m[uint64(e.RID)] = true
	}
	return m
}

func TestValidation(t *testing.T) {
	file := pagefile.NewMemFile(4096)
	if _, err := New(file, Config{Dim: 0}); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := New(file, Config{Dim: 4, PageSize: 512}); err == nil {
		t.Fatal("page size mismatch accepted")
	}
	if _, err := New(file, Config{Dim: 4, MinFill: 0.9}); err == nil {
		t.Fatal("bad MinFill accepted")
	}
	if _, err := New(pagefile.NewMemFile(128), Config{Dim: 64, PageSize: 128}); err == nil {
		t.Fatal("impossible geometry accepted")
	}
	tree, err := New(file, Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(geom.Point{0.1}, 1); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if _, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.UnitCube(2)}); err == nil {
		t.Fatal("wrong dim query accepted")
	}
	if _, err := tree.Search(context.Background(), core.Query{Kind: core.Range, Point: geom.Point{0, 0, 0, 0}, Radius: -1, Metric: dist.L2()}); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, err := tree.Search(context.Background(), core.Query{Kind: core.KNN, Point: geom.Point{0, 0, 0, 0}, K: 0, Metric: dist.L2()}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestBoxMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n, dim, page int
		side         float32
	}{
		{2500, 4, 512, 0.3},
		{2000, 8, 1024, 0.7},
		{800, 32, 4096, 1.1},
	} {
		t.Run(fmt.Sprintf("n%d_d%d", tc.n, tc.dim), func(t *testing.T) {
			tree, pts := build(t, tc.n, tc.dim, tc.page, 7)
			rng := rand.New(rand.NewSource(11))
			for q := 0; q < 20; q++ {
				rect := queryRect(rng, tc.dim, tc.side)
				got, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
				if err != nil {
					t.Fatal(err)
				}
				want := make(map[uint64]bool)
				for i, p := range pts {
					if rect.Contains(p) {
						want[uint64(i)] = true
					}
				}
				gotSet := toSet(got)
				if len(gotSet) != len(want) {
					t.Fatalf("query %d: got %d, want %d", q, len(gotSet), len(want))
				}
				for r := range want {
					if !gotSet[r] {
						t.Fatalf("query %d: missing %d", q, r)
					}
				}
			}
		})
	}
}

func TestRangeAndKNN(t *testing.T) {
	tree, pts := build(t, 2000, 8, 1024, 13)
	rng := rand.New(rand.NewSource(17))
	for _, m := range []dist.Metric{dist.L1(), dist.L2(), dist.Linf()} {
		for q := 0; q < 10; q++ {
			center := pts[rng.Intn(len(pts))]
			r := 0.2 + rng.Float64()*0.4
			got, err := tree.Search(context.Background(), core.Query{Kind: core.Range, Point: center, Radius: r, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for _, p := range pts {
				if m.Distance(center, p) <= r {
					count++
				}
			}
			if len(got) != count {
				t.Fatalf("%s range: got %d, want %d", m.Name(), len(got), count)
			}
		}
		// kNN distances must match brute force exactly.
		query := make(geom.Point, 8)
		for d := range query {
			query[d] = rng.Float32()
		}
		k := 10
		got, err := tree.Search(context.Background(), core.Query{Kind: core.KNN, Point: query, K: k, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = m.Distance(query, p)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if diff := nb.Dist - dists[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s knn %d: %g vs %g", m.Name(), i, nb.Dist, dists[i])
			}
		}
	}
}

func TestFanoutShrinksWithDimensionality(t *testing.T) {
	// The paper's structural argument (Table 1): DP entries cost Θ(k)
	// bytes, so fanout decays ~linearly. This is what the hybrid tree's
	// kd-tree representation avoids.
	cfg8 := Config{Dim: 8, PageSize: 4096}
	cfg64 := Config{Dim: 64, PageSize: 4096}
	if cfg64.nodeCap() >= cfg8.nodeCap() {
		t.Fatalf("fanout did not shrink: %d (8-d) vs %d (64-d)", cfg8.nodeCap(), cfg64.nodeCap())
	}
	if cfg64.nodeCap() > 8 {
		t.Fatalf("64-d fanout %d suspiciously high for rect+sphere entries", cfg64.nodeCap())
	}
}

func TestStatsAndStructure(t *testing.T) {
	tree, _ := build(t, 3000, 8, 1024, 19)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3000 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if st.Height != tree.height || st.Height < 2 {
		t.Fatalf("height = %d", st.Height)
	}
	if st.LeafNodes == 0 || st.IndexNodes == 0 {
		t.Fatal("degenerate structure")
	}
	if tree.size != 3000 {
		t.Fatalf("size = %d", tree.size)
	}
}

// Every subtree's points must lie inside its routing entry's rect and
// sphere — the geometric invariant pruning relies on.
func TestRegionInvariants(t *testing.T) {
	tree, _ := build(t, 2000, 6, 512, 23)
	var check func(id pagefile.PageID) []geom.Point
	check = func(id pagefile.PageID) []geom.Point {
		n, err := tree.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf {
			return n.pts
		}
		var all []geom.Point
		for i := range n.ents {
			e := &n.ents[i]
			below := check(e.child)
			for _, p := range below {
				if !e.rect.Contains(p) {
					t.Fatalf("point %v escapes rect %v", p, e.rect)
				}
				if dist.L2().Distance(e.centroid, p) > e.radius+1e-5 {
					t.Fatalf("point %v escapes sphere c=%v r=%g", p, e.centroid, e.radius)
				}
			}
			if int(e.count) != len(below) {
				t.Fatalf("entry count %d != subtree size %d", e.count, len(below))
			}
			all = append(all, below...)
		}
		return all
	}
	check(tree.root)
}

func TestCodecRoundTrip(t *testing.T) {
	tree, _ := build(t, 1200, 5, 512, 29)
	// Force full decode of every node and re-verify a query.
	rng := rand.New(rand.NewSource(31))
	rect := queryRect(rng, 5, 0.4)
	before, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	tree.store.DropCache()
	after, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	b, a := toSet(before), toSet(after)
	if len(b) != len(a) {
		t.Fatalf("decode changed results: %d vs %d", len(b), len(a))
	}
	for r := range b {
		if !a[r] {
			t.Fatalf("decode lost %d", r)
		}
	}
}
