package concurrent

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

func randPoint(rng *rand.Rand, dim int) geom.Point {
	p := make(geom.Point, dim)
	for d := range p {
		p[d] = rng.Float32()
	}
	return p
}

func buildTree(t testing.TB, dim, n int, pageSize int) (*Tree, []geom.Point) {
	t.Helper()
	file := pagefile.NewMemFile(pageSize)
	tree, err := New(file, core.Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = randPoint(rng, dim)
		if err := tree.Insert(pts[i], core.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree, pts
}

// TestConcurrentStress mixes parallel readers, writers, updaters and
// periodic full-structure audits on one tree. It is only meaningful under
// `go test -race`, where it validates the reader/writer locking end to end:
// searches share the lock, mutations and CheckInvariants exclude everyone.
func TestConcurrentStress(t *testing.T) {
	const (
		dim        = 6
		seedN      = 3000
		inserters  = 3
		deleters   = 2
		updaters   = 2
		searchers  = 6
		opsPerGoro = 150
	)
	tree, seed := buildTree(t, dim, seedN, 512)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for g := 0; g < inserters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < opsPerGoro; i++ {
				if err := tree.Insert(randPoint(rng, dim), core.RecordID(100000+g*10000+i)); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < deleters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerGoro; i++ {
				idx := g*opsPerGoro + i
				if _, err := tree.remove(seed[idx], core.RecordID(idx)); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}
	var updating sync.WaitGroup
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		updating.Add(1)
		go func(g int) {
			defer wg.Done()
			defer updating.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; i < opsPerGoro; i++ {
				// Update records the deleters never touch.
				idx := seedN - 1 - g*opsPerGoro - i
				newP := randPoint(rng, dim)
				found, err := tree.update(seed[idx], newP, core.RecordID(idx))
				if err != nil {
					fail(err)
					return
				}
				if found {
					seed[idx] = newP
				}
			}
		}(g)
	}
	// An update is one commit, so every snapshot holds each updated record
	// exactly once — at its old vector or its new one, never in between.
	updatesDone := make(chan struct{})
	go func() { updating.Wait(); close(updatesDone) }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		const firstUpdated = seedN - updaters*opsPerGoro
		space := geom.UnitCube(dim)
		for running := true; running; {
			select {
			case <-updatesDone:
				running = false // one last pass over the final state
			default:
			}
			es, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: space})
			if err != nil {
				fail(err)
				return
			}
			seen := 0
			for _, e := range es {
				if e.RID >= firstUpdated && e.RID < seedN {
					seen++
				}
			}
			if seen != updaters*opsPerGoro {
				fail(fmt.Errorf("snapshot holds %d of the %d updated records", seen, updaters*opsPerGoro))
				return
			}
		}
	}()
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + g)))
			for i := 0; i < opsPerGoro; i++ {
				c := randPoint(rng, dim)
				if _, err := tree.SearchKNN(c, 4, dist.L2()); err != nil {
					fail(err)
					return
				}
				lo, hi := make(geom.Point, dim), make(geom.Point, dim)
				for d := 0; d < dim; d++ {
					lo[d], hi[d] = c[d]*0.5, c[d]*0.5+0.25
				}
				if _, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.Rect{Lo: lo, Hi: hi}}); err != nil {
					fail(err)
					return
				}
				if i%25 == 0 {
					if err := tree.CheckInvariants(); err != nil {
						fail(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := seedN + inserters*opsPerGoro - deleters*opsPerGoro
	if got := tree.Size(); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateRollback: when the insert half of an update fails, the whole
// update — one mutation — rolls back: the old vector is kept, the tree is
// the size it was, and the error is surfaced.
func TestUpdateRollback(t *testing.T) {
	file := pagefile.NewMemFile(512)
	tree, err := New(file, core.Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	oldP := geom.Point{0.3, 0.3}
	if err := tree.Insert(oldP, 7); err != nil {
		t.Fatal(err)
	}
	epoch, _, _ := tree.SnapshotInfo()
	// The new vector lies outside the unit-cube data space, so the insert
	// half of the update must fail after the delete half succeeded.
	badP := geom.Point{1.5, 1.5}
	found, err := tree.update(oldP, badP, 7)
	if !found {
		t.Fatal("update did not find the record")
	}
	if err == nil {
		t.Fatal("update with out-of-space vector reported success")
	}
	// The record must still be present at its old location.
	n, cerr := tree.CountBox(geom.Rect{Lo: oldP, Hi: oldP})
	if cerr != nil || n != 1 {
		t.Fatalf("old location count after rollback = %d, %v", n, cerr)
	}
	if got := tree.Size(); got != 1 {
		t.Fatalf("size after rollback = %d, want 1", got)
	}
	// Nothing was committed along the way: no delete-only snapshot ever
	// became visible to readers.
	if got, _, _ := tree.SnapshotInfo(); got != epoch {
		t.Fatalf("failed update advanced the epoch %d -> %d", epoch, got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// knnQueries is one k-NN query per point.
func knnQueries(pts []geom.Point, k int, m dist.Metric) []core.Query {
	qs := make([]core.Query, len(pts))
	for i, p := range pts {
		qs[i] = core.Query{Kind: core.KNN, Point: p, K: k, Metric: m}
	}
	return qs
}

// mixedQueries is one batch holding all three kinds, interleaved: a k-NN, a
// box and an L1 range query around each of n random centers.
func mixedQueries(rng *rand.Rand, dim, n int) []core.Query {
	var qs []core.Query
	for i := 0; i < n; i++ {
		c := randPoint(rng, dim)
		lo, hi := make(geom.Point, dim), make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			lo[d], hi[d] = c[d]*0.5, c[d]*0.5+0.3
		}
		qs = append(qs,
			core.Query{Kind: core.KNN, Point: c, K: 5, Metric: dist.L2()},
			core.Query{Kind: core.Box, Rect: geom.Rect{Lo: lo, Hi: hi}},
			core.Query{Kind: core.Range, Point: c, Radius: 0.25, Metric: dist.L1()})
	}
	return qs
}

// searchParallel answers qs through e from GOMAXPROCS goroutines, each
// taking the next unanswered query; out[i] answers qs[i].
func searchParallel(e *Executor, qs []core.Query) ([][]core.Neighbor, error) {
	out := make([][]core.Neighbor, len(qs))
	errs := make(chan error, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(qs); i = int(next.Add(1)) - 1 {
				ns, err := e.Search(context.Background(), qs[i])
				if err != nil {
					errs <- err
				}
				out[i] = ns
			}
		}()
	}
	wg.Wait()
	close(errs)
	return out, <-errs
}

// TestBatchMatchesSequential checks that mixed-kind queries answered in
// parallel through the executor return, slot for slot, exactly what
// one-at-a-time calls return.
func TestBatchMatchesSequential(t *testing.T) {
	const dim = 5
	tree, _ := buildTree(t, dim, 2500, 1024)
	qs := mixedQueries(rand.New(rand.NewSource(9)), dim, 40)
	e := NewExecutor(tree, ExecutorConfig{})
	defer e.Close()

	got, err := searchParallel(e, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := tree.Search(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("parallel result %d (%v) differs from sequential", i, q.Kind)
		}
	}
}

// TestBatchStatsParity pins the accounting guarantee the paper's
// evaluation depends on: queries — here mixing all three kinds — charge
// byte-identical Stats whether they run sequentially or in parallel through
// the executor. Every logical node access is one atomic increment either
// way, and increments commute.
func TestBatchStatsParity(t *testing.T) {
	const dim = 6
	tree, _ := buildTree(t, dim, 4000, 1024)
	qs := mixedQueries(rand.New(rand.NewSource(11)), dim, 24)
	stats := tree.tree.File().Stats()
	e := NewExecutor(tree, ExecutorConfig{})
	defer e.Close()

	stats.Reset()
	for _, q := range qs {
		if _, err := tree.Search(nil, q); err != nil {
			t.Fatal(err)
		}
	}
	sequential := stats.Snapshot()

	stats.Reset()
	if _, err := searchParallel(e, qs); err != nil {
		t.Fatal(err)
	}
	parallel := stats.Snapshot()

	if sequential != parallel {
		t.Fatalf("stats diverge: sequential %+v, parallel %+v", sequential, parallel)
	}
	if sequential.RandomReads == 0 {
		t.Fatal("queries charged no reads; accounting is broken")
	}
}

// TestBatchContextPoolStress drives several query sets through the
// executor concurrently — every request checks a context out of the shared
// pool — while a writer commits between queries. Run under -race this
// proves a pooled query context is never live in two requests at once (the
// context's busy flag would also panic), and that every set still returns
// exactly what a serial query returns at some consistent point in time.
func TestBatchContextPoolStress(t *testing.T) {
	const (
		dim     = 6
		seedN   = 2000
		sets    = 6
		queries = 80
	)
	tree, pts := buildTree(t, dim, seedN, 512)
	rng := rand.New(rand.NewSource(7))
	// sets × GOMAXPROCS callers at most: none is shed.
	e := NewExecutor(tree, ExecutorConfig{QueueDepth: sets * runtime.GOMAXPROCS(0)})
	defer e.Close()

	qs := make([]geom.Point, queries)
	for i := range qs {
		qs[i] = pts[rng.Intn(len(pts))].Clone()
	}
	want, err := searchParallel(e, knnQueries(qs, 5, dist.L2()))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, sets+1)
	for b := 0; b < sets; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := searchParallel(e, knnQueries(qs, 5, dist.L2()))
			if err != nil {
				errs <- err
				return
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("result %d differs across concurrent query sets", i)
					return
				}
			}
		}()
	}
	// One writer committing between queries. Each update rewrites a record
	// with its own vector, so the tree's contents — and therefore every
	// set's expected results — never change.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(8))
		for i := 0; i < 50; i++ {
			j := wrng.Intn(len(pts))
			if _, err := tree.update(pts[j], pts[j], core.RecordID(j)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
