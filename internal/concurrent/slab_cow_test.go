package concurrent

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// TestSlabCopyOnWriteUnderReaders stresses the copy-on-write contract of
// the flat-slab leaf layout: search results are *views into a leaf's value
// slab*, so a writer that mutated a published slab in place (instead of
// cloning it) would tear points out from under concurrent readers. One
// writer churns inserts and deletes — deletes hit the swap-remove compaction
// path, inserts the append path, and both go through node.clone — while
// readers continuously search and verify that every returned point is
// bitwise-equal to the deterministic vector of its record id. A COW
// violation shows up either as a torn point here or as a data race on the
// slab under -race.
func TestSlabCopyOnWriteUnderReaders(t *testing.T) {
	const (
		dim     = 6
		seedN   = 600
		churn   = 500
		readers = 4
	)
	file := pagefile.NewMemFile(512)
	tree, err := New(file, core.Config{Dim: dim, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seedN; i++ {
		if err := tree.Insert(mvccPoint(i, dim), core.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}

	space := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	for d := 0; d < dim; d++ {
		space.Hi[d] = 1
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: delete the oldest live record and insert a fresh one, so
	// every round compacts one slab (swap-remove) and extends another
	// (append), with occasional node splits and eliminate-and-reinsert
	// underflows along the way.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < churn; i++ {
			old := core.RecordID(i)
			if _, err := tree.remove(mvccPoint(i, dim), old); err != nil {
				errs <- err
				return
			}
			fresh := seedN + i
			if err := tree.Insert(mvccPoint(fresh, dim), core.RecordID(fresh)); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				es, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: space})
				if err != nil {
					errs <- err
					return
				}
				for _, e := range es {
					if !e.Point.Equal(mvccPoint(int(e.RID), dim)) {
						t.Errorf("reader %d: rid %d returned torn point %v", r, e.RID, e.Point)
						return
					}
				}
				center := mvccPoint(r*31, dim)
				ns, err := tree.SearchKNN(center, 5, dist.L2())
				if err != nil {
					errs <- err
					return
				}
				for _, nb := range ns {
					if !nb.Point.Equal(mvccPoint(int(nb.RID), dim)) {
						t.Errorf("reader %d: knn rid %d returned torn point %v", r, nb.RID, nb.Point)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tree.Size(); got != seedN {
		t.Fatalf("size after churn = %d, want %d", got, seedN)
	}
}
