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
	var dst []Neighbor
	// Box the metrics once: converting LpMetric{P: 1} to the interface
	// inside the measured closure would itself allocate.
	l2, l1 := dist.L2(), dist.L1()
	kinds := []struct {
		name  string
		query func(i int) Query
	}{
		{"Box", func(i int) Query { return Query{Kind: Box, Rect: boxes[i%len(boxes)]} }},
		{"KNN/L2", func(i int) Query { return Query{Kind: KNN, Point: queries[i%len(queries)], K: 10, Metric: l2} }},
		{"Range/L2", func(i int) Query { return Query{Kind: Range, Point: queries[i%len(queries)], Radius: 0.5, Metric: l2} }},
		{"KNN/L1", func(i int) Query { return Query{Kind: KNN, Point: queries[i%len(queries)], K: 10, Metric: l1} }},
		{"Range/L1", func(i int) Query { return Query{Kind: Range, Point: queries[i%len(queries)], Radius: 1.5, Metric: l1} }},
	}
	run := func(name string, query func(i int) Query) {
		t.Helper()
		i := 0
		fn := func() {
			var err error
			if dst, err = tree.Search(nil, c, query(i), dst[:0]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		// Warm pass: grow every reusable buffer to its steady-state size.
		fn()
		if got := testing.AllocsPerRun(20, fn); got != 0 {
			t.Errorf("Search/%s: %v allocs/op on warm context, want 0", name, got)
		}
	}
	for _, k := range kinds {
		run(k.name, k.query)
	}

	// The no-op tracer must keep the hot path allocation-free: StartTrace
	// returns nil and every per-event trace call is an inlined nil check.
	tree.setTracer(obs.Nop())
	defer tree.setTracer(nil)
	for _, k := range kinds[:3] {
		run(k.name+"/NopTracer", k.query)
	}
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
