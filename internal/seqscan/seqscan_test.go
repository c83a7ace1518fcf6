package seqscan

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

func build(t testing.TB, n, dim, pageSize int, seed int64) (*Scan, []geom.Point, *pagefile.MemFile) {
	t.Helper()
	file := pagefile.NewMemFile(pageSize)
	s, err := New(file, dim)
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
		if err := s.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s, pts, file
}

func TestValidation(t *testing.T) {
	if _, err := New(pagefile.NewMemFile(512), 0); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := New(pagefile.NewMemFile(16), 64); err == nil {
		t.Fatal("impossible geometry accepted")
	}
	s, _ := New(pagefile.NewMemFile(512), 4)
	if err := s.Insert(geom.Point{0.5}, 1); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if _, err := s.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.UnitCube(2)}); err == nil {
		t.Fatal("wrong dim query accepted")
	}
	if _, err := s.Search(context.Background(), core.Query{Kind: core.KNN, Point: make(geom.Point, 4), K: 0, Metric: dist.L2()}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSearches(t *testing.T) {
	s, pts, _ := build(t, 2000, 6, 512, 3)
	if s.Len() != 2000 {
		t.Fatalf("len = %d", s.Len())
	}
	rng := rand.New(rand.NewSource(5))

	rect := geom.Rect{Lo: make(geom.Point, 6), Hi: make(geom.Point, 6)}
	for d := 0; d < 6; d++ {
		c := rng.Float32()
		rect.Lo[d], rect.Hi[d] = c-0.35, c+0.35
	}
	got, err := s.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
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
		t.Fatalf("box: got %d, want %d", len(got), want)
	}
	for _, e := range got {
		if !rect.Contains(e.Point) {
			t.Fatal("result outside box")
		}
		if !pts[e.RID].Equal(e.Point) {
			t.Fatal("round-tripped point corrupted")
		}
	}

	center := pts[17]
	m := dist.L1()
	rres, err := s.Search(context.Background(), core.Query{Kind: core.Range, Point: center, Radius: 0.8, Metric: m})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, p := range pts {
		if m.Distance(center, p) <= 0.8 {
			count++
		}
	}
	if len(rres) != count {
		t.Fatalf("range: got %d, want %d", len(rres), count)
	}

	nres, err := s.Search(context.Background(), core.Query{Kind: core.KNN, Point: center, K: 12, Metric: m})
	if err != nil {
		t.Fatal(err)
	}
	dists := make([]float64, len(pts))
	for i, p := range pts {
		dists[i] = m.Distance(center, p)
	}
	sort.Float64s(dists)
	for i, nb := range nres {
		if diff := nb.Dist - dists[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("knn %d: %g vs %g", i, nb.Dist, dists[i])
		}
	}
}

func TestSequentialAccounting(t *testing.T) {
	s, _, file := build(t, 1000, 8, 512, 7)
	file.Stats().Reset()
	if _, err := s.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.UnitCube(8)}); err != nil {
		t.Fatal(err)
	}
	st := file.Stats()
	if st.RandomReads != 0 {
		t.Fatalf("scan made %d random reads", st.RandomReads)
	}
	if int(st.SeqReads) != s.NumPages() {
		t.Fatalf("seq reads %d != pages %d", st.SeqReads, s.NumPages())
	}
	// The paper's convention: a full scan normalizes to exactly 0.1.
	if got := st.NormalizedIO(s.NumPages()); got != 0.1 {
		t.Fatalf("normalized scan cost = %g, want 0.1", got)
	}
}

func TestPageUtilization(t *testing.T) {
	// Pages fill completely before a new one is allocated.
	s, _, _ := build(t, 500, 4, 512, 11)
	perPage := (512 - headerSize) / (8 + 4*4)
	wantPages := (500 + perPage - 1) / perPage
	if s.NumPages() != wantPages {
		t.Fatalf("pages = %d, want %d", s.NumPages(), wantPages)
	}
}
