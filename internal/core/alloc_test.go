package core

import (
	"math/rand"
	"sync"
	"testing"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
)

// TestSearchZeroAlloc asserts the headline property of the query context:
// once a context and result buffer are warm (arena, stacks, and frontier at
// their high-water marks) repeated searches over cached nodes allocate
// nothing at all.
func TestSearchZeroAlloc(t *testing.T) {
	tree, pts, _ := parityTree(t, 8000, 16, 51)
	rng := rand.New(rand.NewSource(52))
	boxes := make([]geom.Rect, 8)
	for i := range boxes {
		boxes[i] = randQueryRect(rng, 16, 0.4)
	}
	queries := make([]geom.Point, 8)
	for i := range queries {
		queries[i] = pts[rng.Intn(len(pts))]
	}

	c := NewQueryContext()
	var ents []Entry
	var nbrs []Neighbor
	// Box the metrics once: converting LpMetric{P: 1} to the interface
	// inside the measured closure would itself allocate.
	l2, l1 := dist.L2(), dist.L1()
	run := func(name string, fn func() error) {
		t.Helper()
		// Warm pass: grow every reusable buffer to its steady-state size.
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: %v allocs/op on warm context, want 0", name, got)
		}
	}

	i := 0
	run("SearchBoxCtx", func() error {
		var err error
		ents, err = tree.SearchBoxCtx(c, boxes[i%len(boxes)], ents[:0])
		i++
		return err
	})
	i = 0
	run("SearchKNNCtx/L2", func() error {
		var err error
		nbrs, err = tree.SearchKNNCtx(c, queries[i%len(queries)], 10, l2, nbrs[:0])
		i++
		return err
	})
	i = 0
	run("SearchKNNCtx/L1", func() error {
		var err error
		nbrs, err = tree.SearchKNNCtx(c, queries[i%len(queries)], 10, l1, nbrs[:0])
		i++
		return err
	})
	i = 0
	run("SearchRangeCtx/L2", func() error {
		var err error
		nbrs, err = tree.SearchRangeCtx(c, queries[i%len(queries)], 0.5, l2, nbrs[:0])
		i++
		return err
	})

	i = 0
	run("SearchRangeCtx/L1", func() error {
		var err error
		nbrs, err = tree.SearchRangeCtx(c, queries[i%len(queries)], 1.5, l1, nbrs[:0])
		i++
		return err
	})

	// The no-op tracer must keep the hot path allocation-free: StartTrace
	// returns nil and every per-event trace call is an inlined nil check.
	tree.SetTracer(obs.Nop())
	defer tree.SetTracer(nil)
	i = 0
	run("SearchBoxCtx/NopTracer", func() error {
		var err error
		ents, err = tree.SearchBoxCtx(c, boxes[i%len(boxes)], ents[:0])
		i++
		return err
	})
	i = 0
	run("SearchKNNCtx/L2/NopTracer", func() error {
		var err error
		nbrs, err = tree.SearchKNNCtx(c, queries[i%len(queries)], 10, l2, nbrs[:0])
		i++
		return err
	})
	i = 0
	run("SearchRangeCtx/L2/NopTracer", func() error {
		var err error
		nbrs, err = tree.SearchRangeCtx(c, queries[i%len(queries)], 0.5, l2, nbrs[:0])
		i++
		return err
	})
}

// TestQueryContextBusyPanics pins the misuse guard: one context may not
// serve two searches at once.
func TestQueryContextBusyPanics(t *testing.T) {
	c := NewQueryContext()
	c.qc.acquire(4)
	defer func() {
		if recover() == nil {
			t.Error("acquiring a busy QueryContext did not panic")
		}
	}()
	c.qc.acquire(4)
}

// TestConcurrentPooledSearches hammers the tree's internal context pool
// from many goroutines (run under -race in CI): pooled contexts must never
// be shared between in-flight searches, and every goroutine must see
// results identical to a single-threaded run.
func TestConcurrentPooledSearches(t *testing.T) {
	tree, pts, _ := parityTree(t, 4000, 8, 54)
	rng := rand.New(rand.NewSource(55))
	const workers = 8
	const perWorker = 40

	queries := make([]geom.Point, workers*perWorker)
	boxes := make([]geom.Rect, workers*perWorker)
	for i := range queries {
		queries[i] = pts[rng.Intn(len(pts))]
		boxes[i] = randQueryRect(rng, 8, 0.5)
	}
	wantK := make([][]Neighbor, len(queries))
	wantB := make([][]Entry, len(queries))
	for i := range queries {
		var err error
		if wantK[i], err = tree.SearchKNN(queries[i], 5, dist.L2()); err != nil {
			t.Fatal(err)
		}
		if wantB[i], err = tree.SearchBox(boxes[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				i := w*perWorker + j
				gotK, err := tree.SearchKNN(queries[i], 5, dist.L2())
				if err != nil {
					errs <- err
					return
				}
				gotB, err := tree.SearchBox(boxes[i])
				if err != nil {
					errs <- err
					return
				}
				if !neighborsEqual(gotK, wantK[i]) || !entriesEqual(gotB, wantB[i]) {
					t.Errorf("worker %d query %d: concurrent result differs from serial", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].RID != b[i].RID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].RID != b[i].RID {
			return false
		}
	}
	return true
}
