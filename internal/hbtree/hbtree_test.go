package hbtree

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/index"
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

func clustered(n, dim int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, 4)
	for c := range centers {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = 0.2 + 0.6*rng.Float32()
		}
		centers[c] = p
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		p := make(geom.Point, dim)
		for d := range p {
			v := c[d] + float32(rng.NormFloat64()*0.07)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			p[d] = v
		}
		pts[i] = p
	}
	return pts
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

func checkBox(t *testing.T, tree *Tree, pts []geom.Point, rect geom.Rect, what string) {
	t.Helper()
	got, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	gotSet := make(map[uint64]bool)
	for _, e := range got {
		if gotSet[uint64(e.RID)] {
			t.Fatalf("%s: duplicate result %d", what, e.RID)
		}
		gotSet[uint64(e.RID)] = true
	}
	want := make(map[uint64]bool)
	for i, p := range pts {
		if rect.Contains(p) {
			want[uint64(i)] = true
		}
	}
	if len(gotSet) != len(want) {
		t.Fatalf("%s: got %d results, want %d", what, len(gotSet), len(want))
	}
	for r := range want {
		if !gotSet[r] {
			t.Fatalf("%s: missing %d", what, r)
		}
	}
}

func TestValidation(t *testing.T) {
	file := pagefile.NewMemFile(4096)
	if _, err := New(file, Config{Dim: 0}); err == nil {
		t.Fatal("dim 0 accepted")
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
	if err := tree.Insert(geom.Point{0.1, 0.2, 0.3, 1.5}, 1); err == nil {
		t.Fatal("out-of-space vector accepted")
	}
	if _, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.UnitCube(3)}); err == nil {
		t.Fatal("wrong dim query accepted")
	}
}

func TestDistanceQueriesUnsupported(t *testing.T) {
	// Footnote 2 of the paper: the hB-tree does not support distance-based
	// search; Figure 7(c,d) excludes it for this reason.
	tree, _ := build(t, 100, 4, 512, 3)
	if _, err := tree.Search(context.Background(), core.Query{Kind: core.Range, Point: geom.Point{0, 0, 0, 0}, Radius: 0.5, Metric: dist.L1()}); !errors.Is(err, index.ErrUnsupported) {
		t.Fatalf("range err = %v, want ErrUnsupported", err)
	}
	if _, err := tree.Search(context.Background(), core.Query{Kind: core.KNN, Point: geom.Point{0, 0, 0, 0}, K: 5, Metric: dist.L1()}); !errors.Is(err, index.ErrUnsupported) {
		t.Fatalf("knn err = %v, want ErrUnsupported", err)
	}
}

func TestBoxMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n, dim, page int
		side         float32
	}{
		{3000, 2, 512, 0.2},
		{3000, 8, 512, 0.7},
		{2000, 16, 1024, 0.9},
		{800, 64, 4096, 1.3},
	} {
		t.Run(fmt.Sprintf("n%d_d%d", tc.n, tc.dim), func(t *testing.T) {
			tree, pts := build(t, tc.n, tc.dim, tc.page, 42)
			rng := rand.New(rand.NewSource(7))
			for q := 0; q < 20; q++ {
				checkBox(t, tree, pts, queryRect(rng, tc.dim, tc.side), fmt.Sprintf("query %d", q))
			}
		})
	}
}

func TestBoxClusteredData(t *testing.T) {
	pts := clustered(4000, 12, 5)
	file := pagefile.NewMemFile(1024)
	tree, err := New(file, Config{Dim: 12, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tree.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 20; q++ {
		checkBox(t, tree, pts, queryRect(rng, 12, 0.6), fmt.Sprintf("clustered %d", q))
	}
}

func TestPointLookups(t *testing.T) {
	tree, pts := build(t, 2500, 6, 512, 11)
	for i := 0; i < 200; i++ {
		rect := geom.Rect{Lo: pts[i], Hi: pts[i]}
		got, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range got {
			if e.RID == core.RecordID(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d not found", i)
		}
	}
}

func TestRedundancyExists(t *testing.T) {
	// Path posting must produce redundant child references (Table 1's
	// "storage redundancy: yes" row for the hB-tree): with enough data the
	// ratio of references to distinct children exceeds 1.
	tree, _ := build(t, 20000, 8, 512, 13)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 20000 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if st.Redundancy <= 1.0 {
		t.Fatalf("redundancy = %g, expected > 1 from path posting", st.Redundancy)
	}
	if st.IndexNodes == 0 || st.DataNodes == 0 {
		t.Fatal("degenerate structure")
	}
	t.Logf("hB stats: %+v", st)
}

func TestCodecRoundTrip(t *testing.T) {
	tree, pts := build(t, 3000, 6, 512, 17)
	rng := rand.New(rand.NewSource(19))
	rect := queryRect(rng, 6, 0.5)
	checkBox(t, tree, pts, rect, "pre-decode")
	tree.store.DropCache()
	checkBox(t, tree, pts, rect, "post-decode")
}

func TestDeepTree(t *testing.T) {
	// Small pages force several levels of posting and extraction.
	tree, pts := build(t, 6000, 4, 256, 23)
	if tree.height < 3 {
		t.Fatalf("height = %d, wanted a deep tree", tree.height)
	}
	rng := rand.New(rand.NewSource(29))
	for q := 0; q < 25; q++ {
		checkBox(t, tree, pts, queryRect(rng, 4, 0.3), fmt.Sprintf("deep %d", q))
	}
}

// Heavy split pressure on small pages exhausts forward lists and forces
// tombstone migrations (attachForward's escape hatch); correctness must
// survive it. This is the regression test for the forward-list page
// exhaustion failure.
func TestTombstoneMigration(t *testing.T) {
	const dim = 8
	file := pagefile.NewMemFile(512)
	tree, err := New(file, Config{Dim: dim, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	var pts []geom.Point
	// A dense stream into a small corner region: the same few nodes split
	// over and over, accumulating forwards.
	for i := 0; i < 8000; i++ {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32() * 0.15
		}
		pts = append(pts, p)
		if err := tree.Insert(p, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for q := 0; q < 15; q++ {
		checkBox(t, tree, pts, queryRect(rng, dim, 0.08), fmt.Sprintf("tombstone %d", q))
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 8000 {
		t.Fatalf("entries = %d", st.Entries)
	}
}
