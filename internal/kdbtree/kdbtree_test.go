package kdbtree

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

func TestValidation(t *testing.T) {
	file := pagefile.NewMemFile(4096)
	if _, err := New(file, Config{Dim: 0}); err == nil {
		t.Fatal("dim 0 accepted")
	}
	tree, err := New(file, Config{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(geom.Point{0.5}, 1); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if err := tree.Insert(geom.Point{0.5, 0.5, 2}, 1); err == nil {
		t.Fatal("out-of-space accepted")
	}
}

func TestBoxMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n, dim, page int
		side         float32
	}{
		{3000, 2, 512, 0.2},
		{3000, 4, 512, 0.4},
		{2000, 8, 1024, 0.7},
	} {
		t.Run(fmt.Sprintf("n%d_d%d", tc.n, tc.dim), func(t *testing.T) {
			tree, pts := build(t, tc.n, tc.dim, tc.page, 42)
			rng := rand.New(rand.NewSource(7))
			for q := 0; q < 20; q++ {
				rect := queryRect(rng, tc.dim, tc.side)
				got, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
				if err != nil {
					t.Fatal(err)
				}
				gotSet := make(map[uint64]bool)
				for _, e := range got {
					gotSet[uint64(e.RID)] = true
				}
				want := 0
				for i, p := range pts {
					if rect.Contains(p) {
						want++
						if !gotSet[uint64(i)] {
							t.Fatalf("query %d: missing %d", q, i)
						}
					}
				}
				if len(gotSet) != want {
					t.Fatalf("query %d: got %d, want %d", q, len(gotSet), want)
				}
			}
		})
	}
}

func TestRangeAndKNN(t *testing.T) {
	tree, pts := build(t, 2000, 4, 512, 13)
	rng := rand.New(rand.NewSource(17))
	m := dist.L2()
	for q := 0; q < 10; q++ {
		center := pts[rng.Intn(len(pts))]
		r := 0.1 + rng.Float64()*0.2
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
			t.Fatalf("range %d: got %d, want %d", q, len(got), count)
		}
	}
	query := geom.Point{0.5, 0.5, 0.5, 0.5}
	got, err := tree.Search(context.Background(), core.Query{Kind: core.KNN, Point: query, K: 15, Metric: m})
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
			t.Fatalf("knn %d: %g vs %g", i, nb.Dist, dists[i])
		}
	}
}

// The regions of every index node must be mutually disjoint (interiors) and
// cover the node's own region — the clean-split invariant the K-D-B-tree
// insists on and pays cascades for.
func TestDisjointCover(t *testing.T) {
	tree, _ := build(t, 4000, 3, 512, 19)
	var walk func(id pagefile.PageID, region geom.Rect)
	walk = func(id pagefile.PageID, region geom.Rect) {
		n, err := tree.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf {
			for _, p := range n.pts {
				if !region.Contains(p) {
					t.Fatalf("point %v escapes region %v", p, region)
				}
			}
			return
		}
		var vol float64
		for i := range n.rects {
			if !region.ContainsRect(n.rects[i]) {
				t.Fatalf("child region %v escapes %v", n.rects[i], region)
			}
			vol += n.rects[i].Area()
			for j := i + 1; j < len(n.rects); j++ {
				inter := n.rects[i].Intersect(n.rects[j])
				if !inter.IsEmpty() && inter.Area() > 1e-12 {
					t.Fatalf("regions %v and %v overlap", n.rects[i], n.rects[j])
				}
			}
		}
		if diff := vol - region.Area(); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("children cover %g of region %g", vol, region.Area())
		}
		for i := range n.rects {
			walk(n.children[i], n.rects[i])
		}
	}
	walk(tree.root, tree.rootRe)
}

// Cascading splits must actually occur and produce underfull nodes — the
// behavior Table 1 summarizes as "no utilization guarantee" and the reason
// Greene observed poor kDB performance even at 4 dimensions.
func TestCascadesAndUtilization(t *testing.T) {
	tree, _ := build(t, 8000, 4, 512, 23)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 8000 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if st.Cascades == 0 {
		t.Fatal("no cascading splits observed; K-D-B-tree should cascade")
	}
	minGuarantee := 0.3 // what hybrid/hB guarantee; KDB must be able to violate it
	if st.MinLeafFill >= minGuarantee {
		t.Logf("note: no underfull leaf this run (min fill %.2f)", st.MinLeafFill)
	}
	t.Logf("kdb stats: %+v", st)
}

func TestDecodeRejectsCorruption(t *testing.T) {
	file := pagefile.NewMemFile(512)
	tree, err := New(file, Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tree.Insert(geom.Point{float32(i) / 200, float32(i%7) / 7}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the root page and force a decode.
	buf := make([]byte, 512)
	if err := file.ReadPage(tree.root, buf); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte){
		"magic": func(b []byte) { b[0] = 'Q' },
		"type":  func(b []byte) { b[1] = 7 },
		"dim":   func(b []byte) { b[2] = 63 },
		"count": func(b []byte) { b[4] = 0xff; b[5] = 0xff },
	}
	for name, corrupt := range cases {
		page := make([]byte, 512)
		copy(page, buf)
		corrupt(page)
		if err := file.WritePage(tree.root, page); err != nil {
			t.Fatal(err)
		}
		tree.store.DropCache()
		if _, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.UnitCube(2)}); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
	// Restore and verify recovery.
	if err := file.WritePage(tree.root, buf); err != nil {
		t.Fatal(err)
	}
	tree.store.DropCache()
	if _, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.UnitCube(2)}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	file := pagefile.NewMemFile(512)
	tree, err := New(file, Config{Dim: 3, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.UnitCube(3)})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty box = %d, %v", len(res), err)
	}
	nn, err := tree.Search(context.Background(), core.Query{Kind: core.KNN, Point: geom.Point{0.5, 0.5, 0.5}, K: 4, Metric: dist.L2()})
	if err != nil || len(nn) != 0 {
		t.Fatalf("empty knn = %d, %v", len(nn), err)
	}
	rr, err := tree.Search(context.Background(), core.Query{Kind: core.Range, Point: geom.Point{0.5, 0.5, 0.5}, Radius: 0.2, Metric: dist.L1()})
	if err != nil || len(rr) != 0 {
		t.Fatalf("empty range = %d, %v", len(rr), err)
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 || st.LeafNodes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeepCascades(t *testing.T) {
	// Small pages at 6-d: region splits with forced cascades at depth.
	tree, pts := build(t, 6000, 6, 512, 77)
	if tree.height < 3 {
		t.Fatalf("height = %d, want >= 3", tree.height)
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cascades == 0 {
		t.Fatal("no cascades in a deep kdb tree")
	}
	rng := rand.New(rand.NewSource(79))
	for q := 0; q < 10; q++ {
		rect := queryRect(rng, 6, 0.5)
		got, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, p := range pts {
			if rect.Contains(p) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("deep query %d: got %d want %d", q, len(got), want)
		}
	}
}
