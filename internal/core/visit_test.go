package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

func TestSearchBoxFuncStreams(t *testing.T) {
	tree, pts := buildRandom(t, 2000, 6, 512, Config{}, 301)
	rng := rand.New(rand.NewSource(303))
	for q := 0; q < 10; q++ {
		rect := randQueryRect(rng, 6, 0.5)
		var got []RecordID
		err := tree.searchBoxFunc(rect, func(e Entry) bool {
			got = append(got, e.RID)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteBox(pts, rect)
		if len(got) != len(want) {
			t.Fatalf("streamed %d, want %d", len(got), len(want))
		}
		for _, r := range got {
			if !want[r] {
				t.Fatalf("unexpected rid %d", r)
			}
		}
	}
}

func TestSearchBoxFuncEarlyStop(t *testing.T) {
	tree, _ := buildRandom(t, 2000, 4, 512, Config{}, 307)
	calls := 0
	err := tree.searchBoxFunc(geom.UnitCube(4), func(Entry) bool {
		calls++
		return calls < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("visitor called %d times, want 5", calls)
	}
}

func TestSearchBoxFuncValidation(t *testing.T) {
	tree, _ := buildRandom(t, 100, 4, 512, Config{}, 309)
	if err := tree.searchBoxFunc(geom.UnitCube(3), func(Entry) bool { return true }); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
}

// containsAny reports whether at least one entry lies inside q, stopping
// the search at the first hit.
func containsAny(tree *Tree, q geom.Rect) (bool, error) {
	found := false
	err := tree.searchBoxFunc(q, func(Entry) bool {
		found = true
		return false
	})
	return found, err
}

func TestCountBoxAndContainsAny(t *testing.T) {
	tree, pts := buildRandom(t, 2000, 4, 512, Config{}, 311)
	rng := rand.New(rand.NewSource(313))
	for q := 0; q < 10; q++ {
		rect := randQueryRect(rng, 4, 0.3)
		count, err := tree.CountBox(rect)
		if err != nil {
			t.Fatal(err)
		}
		want := len(bruteBox(pts, rect))
		if count != want {
			t.Fatalf("count = %d, want %d", count, want)
		}
		any, err := containsAny(tree, rect)
		if err != nil {
			t.Fatal(err)
		}
		if any != (want > 0) {
			t.Fatalf("containsAny = %v with %d matches", any, want)
		}
	}
	// An empty corner of space.
	tiny := geom.NewRect(
		geom.Point{0.99999, 0.99999, 0.99999, 0.99999},
		geom.Point{0.99999, 0.99999, 0.99999, 0.99999})
	any, err := containsAny(tree, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if any {
		t.Fatal("empty region reported non-empty")
	}
}

func TestContainsAnyStopsEarly(t *testing.T) {
	// A visitor that stops at the first hit over the whole space must
	// touch far fewer pages than a full enumeration.
	tree, _ := buildRandom(t, 5000, 8, 512, Config{}, 317)
	stats := tree.File().Stats()
	stats.Reset()
	if _, err := tree.SearchBox(geom.UnitCube(8)); err != nil {
		t.Fatal(err)
	}
	full := stats.Reads()
	stats.Reset()
	any, err := containsAny(tree, geom.UnitCube(8))
	if err != nil || !any {
		t.Fatalf("containsAny = %v, %v", any, err)
	}
	early := stats.Reads()
	if early*10 > full {
		t.Fatalf("early stop read %d pages vs %d for full scan", early, full)
	}
}

func TestCountRange(t *testing.T) {
	tree, pts := buildRandom(t, 1500, 6, 512, Config{}, 331)
	m := dist.L1()
	ns, err := tree.Search(context.Background(), nil, Query{Kind: Range, Point: pts[3], Radius: 0.7, Metric: m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range pts {
		if m.Distance(pts[3], p) <= 0.7 {
			want++
		}
	}
	if len(ns) != want {
		t.Fatalf("count = %d, want %d", len(ns), want)
	}
}

func TestVisitSurfacesErrors(t *testing.T) {
	inner := pagefile.NewMemFile(512)
	fault := pagefile.NewChaosFile(inner, pagefile.ChaosProfile{}, 1)
	tree, err := New(fault, Config{Dim: 4, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(337))
	for i := 0; i < 500; i++ {
		p := geom.Point{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	tree.DropCaches()
	fault.SetRemaining(0)
	err = tree.searchBoxFunc(geom.UnitCube(4), func(Entry) bool { return true })
	if !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestExplainBox(t *testing.T) {
	tree, pts := buildRandom(t, 3000, 8, 512, Config{}, 501)
	rng := rand.New(rand.NewSource(503))
	for q := 0; q < 8; q++ {
		rect := randQueryRect(rng, 8, 0.5)
		res, ex, err := tree.ExplainBox(rect)
		if err != nil {
			t.Fatal(err)
		}
		// Results agree with the plain search.
		plain, err := tree.SearchBox(rect)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(plain) || ex.Results != len(plain) {
			t.Fatalf("explain returned %d (ex %d), search %d", len(res), ex.Results, len(plain))
		}
		want := bruteBox(pts, rect)
		if len(res) != len(want) {
			t.Fatalf("explain results %d, brute force %d", len(res), len(want))
		}
		// Accounting consistency: levels match height; the root level reads
		// one node; each level's descents equal the next level's reads; the
		// data level's hits equal the result count.
		if len(ex.Levels) != tree.Height() {
			t.Fatalf("levels = %d, height = %d", len(ex.Levels), tree.Height())
		}
		if ex.Levels[0].NodesRead != 1 {
			t.Fatalf("root reads = %d", ex.Levels[0].NodesRead)
		}
		for l := 0; l+1 < len(ex.Levels); l++ {
			if ex.Levels[l].Descended != ex.Levels[l+1].NodesRead {
				t.Fatalf("level %d descended %d but level %d read %d",
					l, ex.Levels[l].Descended, l+1, ex.Levels[l+1].NodesRead)
			}
		}
		last := ex.Levels[len(ex.Levels)-1]
		if last.EntriesHit != len(res) {
			t.Fatalf("data-level hits %d, results %d", last.EntriesHit, len(res))
		}
		// The rendering includes every level and the result count.
		s := ex.String()
		if !strings.Contains(s, "results:") {
			t.Fatalf("rendering missing results: %q", s)
		}
	}
}

func TestExplainBoxShowsELSPruning(t *testing.T) {
	// Clustered data has dead space; at least some queries must show ELS
	// prunes (the second step of the two-step check doing real work).
	pts := clusteredPoints(4000, 8, 507)
	file := pagefile.NewMemFile(512)
	tree, err := New(file, Config{Dim: 8, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(509))
	totalELS := 0
	for q := 0; q < 20; q++ {
		rect := randQueryRect(rng, 8, 0.4)
		_, ex, err := tree.ExplainBox(rect)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ex.Levels {
			totalELS += l.ELSPruned
		}
	}
	if totalELS == 0 {
		t.Fatal("ELS never pruned on clustered data")
	}
	if _, _, err := tree.ExplainBox(geom.UnitCube(3)); err == nil {
		t.Fatal("wrong-dim explain accepted")
	}
}
