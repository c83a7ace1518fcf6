package concurrent

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// remove is a goroutine-safe core.Tree.Delete.
func (t *Tree) remove(p geom.Point, rid core.RecordID) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tree.Delete(p, rid)
}

// update replaces the vector of a record as one core mutation under the
// writer lock: one commit (one fsync under a write-ahead log), and a
// concurrent snapshot search sees the record at its old vector or at its new
// one — never absent, torn or duplicated. If either half fails (e.g. the new
// vector lies outside the data space) the whole update rolls back and the
// old vector is kept.
func (t *Tree) update(old, new geom.Point, rid core.RecordID) (found bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	err = t.tree.RunTx(func() error {
		var err error
		if found, err = t.tree.Delete(old, rid); err != nil || !found {
			return err
		}
		return t.tree.Insert(new, rid)
	})
	if err != nil && found {
		err = fmt.Errorf("concurrent: update of record %d rolled back, old vector kept: %w", rid, err)
	}
	return found, err
}

func TestConcurrentMixedWorkload(t *testing.T) {
	const dim = 6
	file := pagefile.NewMemFile(512)
	tree, err := New(file, core.Config{Dim: dim, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}

	// Seed some data.
	seed := make([]geom.Point, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := range seed {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		seed[i] = p
	}
	for i, p := range seed {
		if err := tree.Insert(p, core.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer the tree from many goroutines: inserters, deleters, searchers.
	// Run with -race to validate the locking.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 300; i++ {
				p := make(geom.Point, dim)
				for d := range p {
					p[d] = grng.Float32()
				}
				if err := tree.Insert(p, core.RecordID(10000+g*1000+i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 600; i += 2 {
				if _, err := tree.remove(seed[i], core.RecordID(i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < 100; i++ {
				center := make(geom.Point, dim)
				for d := range center {
					center[d] = grng.Float32()
				}
				if _, err := tree.SearchKNN(center, 5, dist.L2()); err != nil {
					errs <- err
					return
				}
				lo := make(geom.Point, dim)
				hi := make(geom.Point, dim)
				for d := 0; d < dim; d++ {
					lo[d], hi[d] = center[d]/2, center[d]/2+0.3
				}
				if _, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.Rect{Lo: lo, Hi: hi}}); err != nil {
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

	// 2000 seeded + 1200 inserted - 600 deleted.
	if got := tree.Size(); got != 2600 {
		t.Fatalf("size = %d, want 2600", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdate(t *testing.T) {
	file := pagefile.NewMemFile(512)
	tree, err := New(file, core.Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	oldP := geom.Point{0.1, 0.1}
	newP := geom.Point{0.9, 0.9}
	if err := tree.Insert(oldP, 7); err != nil {
		t.Fatal(err)
	}
	found, err := tree.update(oldP, newP, 7)
	if err != nil || !found {
		t.Fatalf("update = %v, %v", found, err)
	}
	// Old location empty, new location holds the record.
	n, err := tree.CountBox(geom.Rect{Lo: oldP, Hi: oldP})
	if err != nil || n != 0 {
		t.Fatalf("old location count = %d, %v", n, err)
	}
	n, err = tree.CountBox(geom.Rect{Lo: newP, Hi: newP})
	if err != nil || n != 1 {
		t.Fatalf("new location count = %d, %v", n, err)
	}
	// Updating a missing record reports not found.
	found, err = tree.update(oldP, newP, 99)
	if err != nil || found {
		t.Fatalf("phantom update = %v, %v", found, err)
	}
}

func TestWrapAndOpen(t *testing.T) {
	file := pagefile.NewMemFile(512)
	inner, err := core.New(file, core.Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := Wrap(inner)
	if err := wrapped.Insert(geom.Point{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(file, core.Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Size() != 1 {
		t.Fatalf("size = %d", reopened.Size())
	}
}
