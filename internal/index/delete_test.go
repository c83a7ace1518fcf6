package index_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/index"
)

// TestDeleteAllMethods drives Delete through every adapter: insert a point
// set, delete a random half (interleaved with misses), and check the
// survivors against the sequential-scan oracle after every batch. The
// hB-tree is exempt: it must return ErrUnsupported and change nothing.
func TestDeleteAllMethods(t *testing.T) {
	const dim = 4
	const n = 800
	rng := rand.New(rand.NewSource(41))
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
	all := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	for d := 0; d < dim; d++ {
		all.Hi[d] = 1
	}

	// Victim order is shared across methods so every structure sees the
	// identical workload.
	victims := rng.Perm(n)[:n/2]
	for _, idx := range idxs {
		if idx.Name() == "hb" {
			before, err := idx.Search(context.Background(), core.Query{Kind: core.Box, Rect: all})
			if err != nil {
				t.Fatal(err)
			}
			found, err := idx.Delete(pts[0], 0)
			if !errors.Is(err, index.ErrUnsupported) || found {
				t.Fatalf("hb delete: found=%v err=%v, want ErrUnsupported", found, err)
			}
			after, err := idx.Search(context.Background(), core.Query{Kind: core.Box, Rect: all})
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != len(before) {
				t.Fatalf("hb delete changed contents: %d -> %d", len(before), len(after))
			}
			continue
		}
		t.Run(idx.Name(), func(t *testing.T) {
			for i, v := range victims {
				found, err := idx.Delete(pts[v], uint64(v))
				if err != nil {
					t.Fatalf("delete %d: %v", v, err)
				}
				if !found {
					t.Fatalf("delete %d: not found", v)
				}
				// Misses: a deleted record, and a rid/point mismatch.
				if found, err := idx.Delete(pts[v], uint64(v)); err != nil || found {
					t.Fatalf("re-delete %d: found=%v err=%v", v, found, err)
				}
				if found, err := idx.Delete(pts[v], uint64(n+1)); err != nil || found {
					t.Fatalf("mismatched delete: found=%v err=%v", found, err)
				}
				if i%100 == 99 {
					checkSurvivors(t, idx, pts, victims[:i+1], all)
				}
			}
			checkSurvivors(t, idx, pts, victims, all)
		})
	}
	// The oracle itself, having been mutated last in idxs order, must agree
	// with a brute-force survivor set too (it participated in the loop above
	// as the final element of idxs).
	_ = oracle
}

func checkSurvivors(t *testing.T, idx index.Index, pts []geom.Point, deleted []int, all geom.Rect) {
	t.Helper()
	dead := make(map[uint64]bool, len(deleted))
	for _, v := range deleted {
		dead[uint64(v)] = true
	}
	got, err := idx.Search(context.Background(), core.Query{Kind: core.Box, Rect: all})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pts) - len(deleted); len(got) != want {
		t.Fatalf("%s: %d survivors, want %d", idx.Name(), len(got), want)
	}
	seen := make(map[uint64]bool, len(got))
	for _, e := range got {
		if dead[uint64(e.RID)] {
			t.Fatalf("%s: deleted rid %d still present", idx.Name(), e.RID)
		}
		if seen[uint64(e.RID)] {
			t.Fatalf("%s: rid %d duplicated", idx.Name(), e.RID)
		}
		seen[uint64(e.RID)] = true
		if !pts[e.RID].Equal(e.Point) {
			t.Fatalf("%s: rid %d has wrong point", idx.Name(), e.RID)
		}
	}
}

// TestDeleteThenQueryAgree re-runs the cross-method agreement check on
// trees that have absorbed deletions, so post-delete geometry (drained
// SR-tree spheres, underfull K-D-B pages) is what the queries actually
// exercise.
func TestDeleteThenQueryAgree(t *testing.T) {
	const dim = 5
	const n = 2000
	rng := rand.New(rand.NewSource(43))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
	}
	idxs := buildAll(t, dim, 512, pts)
	victims := rng.Perm(n)[:2*n/3]
	for _, idx := range idxs {
		if idx.Name() == "hb" {
			continue
		}
		for _, v := range victims {
			found, err := idx.Delete(pts[v], uint64(v))
			if err != nil || !found {
				t.Fatalf("%s delete %d: found=%v err=%v", idx.Name(), v, found, err)
			}
		}
	}
	oracle := idxs[len(idxs)-1]
	for q := 0; q < 10; q++ {
		lo := make(geom.Point, dim)
		hi := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			c := rng.Float32()
			lo[d], hi[d] = c-0.3, c+0.3
		}
		rect := geom.Rect{Lo: lo, Hi: hi}
		want, err := oracle.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := rids(want)
		for _, idx := range idxs[:len(idxs)-1] {
			if idx.Name() == "hb" {
				continue // did not absorb the deletes
			}
			got, err := idx.Search(context.Background(), core.Query{Kind: core.Box, Rect: rect})
			if err != nil {
				t.Fatalf("%s box: %v", idx.Name(), err)
			}
			if !equalIDs(rids(got), wantIDs) {
				t.Fatalf("%s box query %d after deletes: %d results, oracle has %d",
					idx.Name(), q, len(got), len(want))
			}
		}
	}
}
