package concurrent

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// mvccPoint returns the deterministic vector of record i.
func mvccPoint(i, dim int) geom.Point {
	rng := rand.New(rand.NewSource(int64(7919 + i)))
	p := make(geom.Point, dim)
	for d := range p {
		p[d] = rng.Float32()
	}
	return p
}

// TestSnapshotImmutabilityUnderWrites is the MVCC correctness stress: one
// writer inserts records 0,1,2,... in order while readers continuously run
// full-space box searches with no locks. Every result set must be exactly
// the records of one committed snapshot — the contiguous prefix {0..k-1} for
// some k — never a mix of two versions (a gap would mean the reader saw a
// later insert but missed an earlier one, i.e. it observed a node both
// before and after a commit). Per reader, k must also be monotone: each
// search pins the then-current version, and versions publish in insert
// order. Run with -race.
func TestSnapshotImmutabilityUnderWrites(t *testing.T) {
	const (
		dim     = 4
		inserts = 800
		readers = 4
	)
	file := pagefile.NewMemFile(512)
	tree, err := New(file, core.Config{Dim: dim, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}

	space := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	for d := 0; d < dim; d++ {
		space.Lo[d], space.Hi[d] = 0, 1
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < inserts; i++ {
			if err := tree.Insert(mvccPoint(i, dim), core.RecordID(i)); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for !done.Load() {
				es, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: space})
				if err != nil {
					errs <- err
					return
				}
				seen := make([]bool, inserts)
				for _, e := range es {
					if int(e.RID) >= inserts || seen[e.RID] {
						t.Errorf("result has unexpected or duplicate rid %d", e.RID)
						return
					}
					seen[e.RID] = true
				}
				k := len(es)
				for i := 0; i < k; i++ {
					if !seen[i] {
						t.Errorf("snapshot of %d records is missing rid %d: reader mixed two versions", k, i)
						return
					}
				}
				if k < last {
					t.Errorf("snapshot went backwards: %d records after %d", k, last)
					return
				}
				last = k
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tree.Size(); got != inserts {
		t.Fatalf("size = %d, want %d", got, inserts)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochReclamationDrains verifies retired node versions are reclaimed
// exactly when their epochs drain: a pinned reader holds every version
// retired after its pin alive; releasing the pin lets the next reclamation
// pass drop all of them.
func TestEpochReclamationDrains(t *testing.T) {
	const dim = 4
	file := pagefile.NewMemFile(512)
	tree, err := core.New(file, core.Config{Dim: dim, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}

	unpin := tree.Pin()
	for i := 0; i < 300; i++ {
		if err := tree.Insert(mvccPoint(i, dim), core.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tree.RetiredVersions(); got == 0 {
		t.Fatal("no retired versions while a reader pin holds the initial epoch")
	}
	if got := tree.Reclaim(); got == 0 {
		t.Fatal("pinned epoch reclaimed: the pinned reader's versions were freed")
	}

	unpin()
	if got := tree.Reclaim(); got != 0 {
		t.Fatalf("%d retired versions survive with no pins left", got)
	}
	if err := tree.CheckInvariantsSnapshot(); err != nil {
		t.Fatal(err)
	}
}
