package core

import (
	"math/rand"
	"sync"
	"testing"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// raceTree builds a tree of n random dim-d points for the concurrency
// regression tests.
func raceTree(t *testing.T, file pagefile.File, dim, n int) *Tree {
	t.Helper()
	tree, err := New(file, Config{Dim: dim, PageSize: file.PageSize()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// hammerReads runs mixed read-only operations from many goroutines against
// one tree. Any unsynchronized shared state on the read path — the old
// shared scratch buffer, unsharded cache map, or non-atomic Stats counters
// — shows up here under -race.
func hammerReads(t *testing.T, tree *Tree, dim int) {
	t.Helper()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				center := make(geom.Point, dim)
				for d := range center {
					center[d] = rng.Float32()
				}
				if _, err := tree.SearchKNN(center, 3, dist.L2()); err != nil {
					errs <- err
					return
				}
				if _, err := tree.SearchRange(center, 0.2, dist.L1()); err != nil {
					errs <- err
					return
				}
				lo, hi := make(geom.Point, dim), make(geom.Point, dim)
				for d := 0; d < dim; d++ {
					lo[d], hi[d] = center[d]*0.5, center[d]*0.5+0.3
				}
				q := geom.Rect{Lo: lo, Hi: hi}
				if _, err := tree.SearchBox(q); err != nil {
					errs <- err
					return
				}
				if _, err := tree.CountBox(q); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentReadsRace is the -race regression for the latent scratch
// buffer / cache map data race: read-only searches from many goroutines
// against one freshly built tree.
func TestConcurrentReadsRace(t *testing.T) {
	const dim = 8
	file := pagefile.NewMemFile(1024)
	tree := raceTree(t, file, dim, 3000)
	hammerReads(t, tree, dim)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadsAfterReopenRace exercises the reopen path, where the
// ELS table is restored in encoded form and decoded rectangles are
// memoized lazily during the first searches — a map write on a logically
// read-only path that must be synchronized.
func TestConcurrentReadsAfterReopenRace(t *testing.T) {
	const dim = 8
	file := pagefile.NewMemFile(1024)
	tree := raceTree(t, file, dim, 3000)
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(file, Config{Dim: dim, PageSize: file.PageSize()})
	if err != nil {
		t.Fatal(err)
	}
	reopened.DropCaches() // force the concurrent decode path in store.get too
	hammerReads(t, reopened, dim)
}
