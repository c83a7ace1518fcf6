package index_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/hbtree"
	"hybridtree/internal/index"
	"hybridtree/internal/kdbtree"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/seqscan"
	"hybridtree/internal/srtree"
)

// buildAll constructs every access method over the same data through the
// common interface. The sequential scan serves as the oracle.
func buildAll(t *testing.T, dim, pageSize int, pts []geom.Point) []index.Index {
	t.Helper()
	var idxs []index.Index

	hfile := pagefile.NewMemFile(pageSize)
	htree, err := core.New(hfile, core.Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	idxs = append(idxs, &index.Hybrid{Tree: htree})

	sfile := pagefile.NewMemFile(pageSize)
	sr, err := srtree.New(sfile, srtree.Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	idxs = append(idxs, sr)

	bfile := pagefile.NewMemFile(pageSize)
	hb, err := hbtree.New(bfile, hbtree.Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	idxs = append(idxs, hb)

	kfile := pagefile.NewMemFile(pageSize)
	kdb, err := kdbtree.New(kfile, kdbtree.Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	idxs = append(idxs, kdb)

	scfile := pagefile.NewMemFile(pageSize)
	scan, err := seqscan.New(scfile, dim)
	if err != nil {
		t.Fatal(err)
	}
	idxs = append(idxs, scan)

	for _, idx := range idxs {
		for i, p := range pts {
			if err := idx.Insert(p, uint64(i)); err != nil {
				t.Fatalf("%s insert %d: %v", idx.Name(), i, err)
			}
		}
	}
	return idxs
}

func rids(es []core.Neighbor) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = uint64(e.RID)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAllMethodsAgree is the cross-structure oracle test: every access
// method must return exactly the same result set as the sequential scan
// for box queries, and (where supported) for range and k-NN queries.
func TestAllMethodsAgree(t *testing.T) {
	const dim = 6
	const n = 4000
	rng := rand.New(rand.NewSource(99))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
	}
	idxs := buildAll(t, dim, 512, pts)
	oracle := idxs[len(idxs)-1] // the scan

	for q := 0; q < 15; q++ {
		lo := make(geom.Point, dim)
		hi := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			c := rng.Float32()
			lo[d], hi[d] = c-0.25, c+0.25
		}
		rect := geom.Rect{Lo: lo, Hi: hi}
		want, err := oracle.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := rids(want)
		for _, idx := range idxs[:len(idxs)-1] {
			got, err := idx.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
			if err != nil {
				t.Fatalf("%s box: %v", idx.Name(), err)
			}
			if !equalIDs(rids(got), wantIDs) {
				t.Fatalf("%s box query %d: %d results, oracle has %d",
					idx.Name(), q, len(got), len(want))
			}
		}

		center := pts[rng.Intn(n)]
		radius := 0.2 + rng.Float64()*0.3
		m := dist.L1()
		wantR, err := oracle.Search(context.Background(), core.Query{Kind: core.Range, Point: center, Radius: radius, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range idxs[:len(idxs)-1] {
			gotR, err := idx.Search(context.Background(), core.Query{Kind: core.Range, Point: center, Radius: radius, Metric: m})
			if errors.Is(err, index.ErrUnsupported) {
				continue // the hB-tree, per the paper
			}
			if err != nil {
				t.Fatalf("%s range: %v", idx.Name(), err)
			}
			if len(gotR) != len(wantR) {
				t.Fatalf("%s range query %d: %d results, oracle has %d",
					idx.Name(), q, len(gotR), len(wantR))
			}
		}
	}

	// k-NN: identical distance sequences across supporting methods.
	query := pts[17]
	wantN, err := oracle.Search(context.Background(), core.Query{Kind: core.KNN, Point: query, K: 25, Metric: dist.L2()})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range idxs[:len(idxs)-1] {
		gotN, err := idx.Search(context.Background(), core.Query{Kind: core.KNN, Point: query, K: 25, Metric: dist.L2()})
		if errors.Is(err, index.ErrUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("%s knn: %v", idx.Name(), err)
		}
		if len(gotN) != len(wantN) {
			t.Fatalf("%s knn: %d results, want %d", idx.Name(), len(gotN), len(wantN))
		}
		for i := range gotN {
			diff := gotN[i].Dist - wantN[i].Dist
			if diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s knn %d: dist %g, oracle %g", idx.Name(), i, gotN[i].Dist, wantN[i].Dist)
			}
		}
	}
}

func TestNames(t *testing.T) {
	pts := []geom.Point{{0.5, 0.5}}
	idxs := buildAll(t, 2, 512, pts)
	want := map[string]bool{"hybrid": true, "sr": true, "hb": true, "kdb": true, "scan": true}
	for _, idx := range idxs {
		if !want[idx.Name()] {
			t.Errorf("unexpected name %q", idx.Name())
		}
		delete(want, idx.Name())
		if idx.File() == nil {
			t.Errorf("%s: nil file", idx.Name())
		}
	}
	if len(want) != 0 {
		t.Errorf("missing methods: %v", want)
	}
}

func TestHybridNameOverride(t *testing.T) {
	file := pagefile.NewMemFile(512)
	tree, err := core.New(file, core.Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	h := &index.Hybrid{Tree: tree, NameOverride: "hybrid-vam"}
	if h.Name() != "hybrid-vam" {
		t.Fatalf("name = %q", h.Name())
	}
}

// Every method must surface injected storage errors through the interface.
func TestAllMethodsSurfaceErrors(t *testing.T) {
	const dim = 4
	pts := make([]geom.Point, 400)
	rng := rand.New(rand.NewSource(3))
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
	}
	mk := []func(f pagefile.File) (index.Index, error){
		func(f pagefile.File) (index.Index, error) {
			tr, err := core.New(f, core.Config{Dim: dim, PageSize: 512})
			if err != nil {
				return nil, err
			}
			return &index.Hybrid{Tree: tr}, nil
		},
		func(f pagefile.File) (index.Index, error) {
			return srtree.New(f, srtree.Config{Dim: dim, PageSize: 512})
		},
		func(f pagefile.File) (index.Index, error) {
			return hbtree.New(f, hbtree.Config{Dim: dim, PageSize: 512})
		},
		func(f pagefile.File) (index.Index, error) {
			return kdbtree.New(f, kdbtree.Config{Dim: dim, PageSize: 512})
		},
		// The hybrid tree without live-space encoding writes its nodes
		// along a different path (no ELS upkeep), so it is checked too.
		func(f pagefile.File) (index.Index, error) {
			tr, err := core.New(f, core.Config{Dim: dim, PageSize: 512, ELSDisabled: true})
			if err != nil {
				return nil, err
			}
			return &index.Hybrid{Tree: tr}, nil
		},
		func(f pagefile.File) (index.Index, error) {
			return seqscan.New(f, dim)
		},
	}
	for i, make := range mk {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			fault := pagefile.NewChaosFile(pagefile.NewMemFile(512), pagefile.ChaosProfile{}, 1)
			idx, err := make(fault)
			if err != nil {
				t.Fatal(err)
			}
			for j, p := range pts {
				if err := idx.Insert(p, uint64(j)); err != nil {
					t.Fatal(err)
				}
			}
			fault.SetRemaining(0)
			if err := idx.Insert(pts[0], 999999); !errors.Is(err, pagefile.ErrInjected) {
				t.Fatalf("%s: insert error = %v", idx.Name(), err)
			}
		})
	}
}

// TestEveryIndexRefusesTheSameQueries runs one refusal table over every
// access method: a malformed query is refused with core.ErrBadQuery before
// a page is read, a cancelled context with context.Canceled, and a Budget
// or Epsilon with ErrUnsupported everywhere but the hybrid tree, which
// honors both.
func TestEveryIndexRefusesTheSameQueries(t *testing.T) {
	const dim = 3
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{rng.Float32(), rng.Float32(), rng.Float32()}
	}
	p := geom.Point{0.5, 0.5, 0.5}
	nan := float32(math.NaN())
	bad := []struct {
		name string
		q    core.Query
	}{
		{"wrong dim box", core.Query{Kind: core.Box, Rect: geom.UnitCube(dim + 1)}},
		{"wrong dim point", core.Query{Kind: core.KNN, Point: geom.Point{0.5, 0.5}, K: 3, Metric: dist.L2()}},
		{"inverted box", core.Query{Kind: core.Box, Rect: geom.Rect{Lo: geom.Point{0, 0.6, 0}, Hi: geom.Point{1, 0.4, 1}}}},
		{"NaN point", core.Query{Kind: core.Range, Point: geom.Point{0.5, nan, 0.5}, Radius: 0.1, Metric: dist.L2()}},
		{"k = 0", core.Query{Kind: core.KNN, Point: p, K: 0, Metric: dist.L2()}},
		{"negative radius", core.Query{Kind: core.Range, Point: p, Radius: -1, Metric: dist.L1()}},
		{"nil metric", core.Query{Kind: core.KNN, Point: p, K: 3}},
	}
	budgeted := []core.Query{
		{Kind: core.Box, Rect: geom.UnitCube(dim), Budget: core.Budget{MaxPageReads: 1 << 20}},
		{Kind: core.KNN, Point: p, K: 3, Metric: dist.L2(), Epsilon: 0.5},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, idx := range buildAll(t, dim, 512, pts) {
		stats := idx.File().Stats()
		for _, tc := range bad {
			stats.Reset()
			if _, err := idx.Search(context.Background(), tc.q); !errors.Is(err, core.ErrBadQuery) {
				t.Errorf("%s, %s: err = %v, want core.ErrBadQuery", idx.Name(), tc.name, err)
			}
			if r := stats.Reads(); r != 0 {
				t.Errorf("%s, %s: %d page reads before the refusal", idx.Name(), tc.name, r)
			}
		}
		all := core.Query{Kind: core.Box, Rect: geom.UnitCube(dim)}
		if _, err := idx.Search(cancelled, all); !errors.Is(err, context.Canceled) {
			t.Errorf("%s, cancelled ctx: err = %v, want context.Canceled", idx.Name(), err)
		}
		stats.Reset()
		if got, err := idx.Search(context.Background(), all); err != nil || len(got) != len(pts) || stats.Reads() == 0 {
			t.Errorf("%s, valid box: %d hits, %d page reads, err %v", idx.Name(), len(got), stats.Reads(), err)
		}
		for _, q := range budgeted {
			_, err := idx.Search(context.Background(), q)
			if idx.Name() == "hybrid" {
				if err != nil {
					t.Errorf("hybrid, budget %+v epsilon %g: %v", q.Budget, q.Epsilon, err)
				}
			} else if !errors.Is(err, index.ErrUnsupported) {
				t.Errorf("%s, budget %+v epsilon %g: err = %v, want ErrUnsupported", idx.Name(), q.Budget, q.Epsilon, err)
			}
		}
	}
}
