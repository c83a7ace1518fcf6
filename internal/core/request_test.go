package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// hookFile calls onRead before every page read that reaches the file —
// the deterministic trigger the mid-query cancellation tests hang off.
type hookFile struct {
	pagefile.File
	mu     sync.Mutex
	onRead func(n int) // n = 1-based count of file reads so far
	n      int
}

func (f *hookFile) hit() {
	f.mu.Lock()
	f.n++
	n := f.n
	cb := f.onRead
	f.mu.Unlock()
	if cb != nil {
		cb(n)
	}
}

func (f *hookFile) ReadPage(id pagefile.PageID, buf []byte) error {
	f.hit()
	return f.File.ReadPage(id, buf)
}

func (f *hookFile) ReadPageSeq(id pagefile.PageID, buf []byte) error {
	f.hit()
	return f.File.ReadPageSeq(id, buf)
}

// requestTree builds a tree over a hookFile so tests can watch and interrupt
// its page reads.
func requestTree(t *testing.T, n, dim int, seed int64) (*Tree, *hookFile, []geom.Point) {
	t.Helper()
	hf := &hookFile{File: pagefile.NewMemFile(pagefile.DefaultPageSize)}
	tree, err := New(hf, Config{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	pts := makePoints(n, dim, seed)
	for i, p := range pts {
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree, hf, pts
}

func makePoints(n, dim int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
	}
	return pts
}

func TestAlreadyCancelledContextReturnsPromptly(t *testing.T) {
	tree, hf, pts := requestTree(t, 2000, 8, 71)
	q := pts[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	sentinel := []Neighbor{{Entry: Entry{RID: 12345}, Dist: 99}}
	c := NewQueryContext()
	readsBefore := hf.n
	got, err := tree.SearchKNNContext(ctx, c, q, 10, dist.L2(), Budget{}, sentinel)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) != 1 || got[0].RID != 12345 || got[0].Dist != 99 {
		t.Fatalf("result mutated: %+v", got)
	}
	if hf.n != readsBefore {
		t.Fatalf("cancelled query performed %d file reads", hf.n-readsBefore)
	}

	// Box and range variants observe the same contract.
	ents, err := tree.SearchBoxContext(ctx, c, geom.Rect{Lo: q, Hi: q}, Budget{}, nil)
	if !errors.Is(err, context.Canceled) || len(ents) != 0 {
		t.Fatalf("box: err = %v, %d entries, want Canceled and none", err, len(ents))
	}
	nbs, err := tree.SearchRangeContext(ctx, c, q, 0.5, dist.L2(), Budget{}, nil)
	if !errors.Is(err, context.Canceled) || len(nbs) != 0 {
		t.Fatalf("range: err = %v, %d neighbors, want Canceled and none", err, len(nbs))
	}
}

// TestCancelMidKNNDeterministic cancels the context from inside the file
// layer after a fixed number of page reads — the same read every run — and
// verifies the pooled QueryContext stays reusable: a follow-up query on the
// same context is identical to an uncancelled run.
func TestCancelMidKNNDeterministic(t *testing.T) {
	tree, hf, pts := requestTree(t, 3000, 8, 72)
	q := pts[1]
	const k = 20

	c := NewQueryContext()
	want, err := tree.SearchKNNContext(nil, c, q, k, dist.L2(), Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cold cache so every node visit reaches the hookFile.
	tree.DropCaches()
	ctx, cancel := context.WithCancel(context.Background())
	hf.mu.Lock()
	hf.onRead = func(n int) {
		if n == 5 {
			cancel()
		}
	}
	hf.n = 0
	hf.mu.Unlock()
	_, err = tree.SearchKNNContext(ctx, c, q, k, dist.L2(), Budget{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	hf.mu.Lock()
	hf.onRead = nil
	hf.mu.Unlock()

	// Same context, same buffer reuse pattern as an uncancelled caller.
	got, err := tree.SearchKNNContext(nil, c, q, k, dist.L2(), Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !neighborsEqual(want, got) {
		t.Fatalf("post-cancel query diverged:\nwant %v\ngot  %v", want, got)
	}
}

// TestCancelMidKNNRace cancels from a separate goroutine while queries run,
// for the race detector: either outcome is legal, corruption is not.
func TestCancelMidKNNRace(t *testing.T) {
	tree, _, pts := requestTree(t, 3000, 8, 73)
	c := NewQueryContext()
	want, err := tree.SearchKNNContext(nil, c, pts[2], 10, dist.L2(), Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tree.DropCaches()
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		got, err := tree.SearchKNNContext(ctx, c, pts[2], 10, dist.L2(), Budget{}, nil)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iter %d: err = %v", i, err)
			}
			continue
		}
		if !neighborsEqual(want, got) {
			t.Fatalf("iter %d: uncancelled result diverged", i)
		}
	}
}

func TestBudgetExceededKNNReturnsSortedValidPrefix(t *testing.T) {
	tree, _, pts := requestTree(t, 4000, 8, 74)
	q := pts[3]
	const k = 25

	c := NewQueryContext()
	got, err := tree.SearchKNNContext(nil, c, q, k, dist.L2(), Budget{MaxPageReads: 4}, nil)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *ErrBudgetExceeded", err)
	}
	if be.Resource != "page_reads" || be.Op != "knn" {
		t.Fatalf("budget error = %+v, want page_reads/knn", be)
	}
	if be.Partial != len(got) {
		t.Fatalf("Partial = %d, len(got) = %d", be.Partial, len(got))
	}
	if len(got) == 0 {
		t.Fatal("degraded k-NN returned nothing despite visiting nodes")
	}
	for i, nb := range got {
		if i > 0 && nb.Dist < got[i-1].Dist {
			t.Fatalf("degraded result unsorted at %d: %v then %v", i, got[i-1].Dist, nb.Dist)
		}
		// Each neighbor must be an honest (point, distance) pair from the
		// dataset, not an artifact of the aborted traversal.
		truth := pts[nb.RID]
		if !truth.Equal(nb.Point) {
			t.Fatalf("result %d: point does not match RID %d", i, nb.RID)
		}
		if d := (dist.L2()).Distance(q, nb.Point); !close64(d, nb.Dist) {
			t.Fatalf("result %d: dist %v, recomputed %v", i, nb.Dist, d)
		}
	}
}

func TestBudgetHeapPushesAndWallTime(t *testing.T) {
	tree, _, pts := requestTree(t, 4000, 8, 75)
	c := NewQueryContext()

	_, err := tree.SearchKNNContext(nil, c, pts[4], 10, dist.L2(), Budget{MaxHeapPushes: 2}, nil)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != "heap_pushes" {
		t.Fatalf("err = %v, want heap_pushes budget error", err)
	}

	_, err = tree.SearchKNNContext(nil, c, pts[4], 10, dist.L2(), Budget{MaxWallTime: time.Nanosecond}, nil)
	if !errors.As(err, &be) || be.Resource != "wall_time" {
		t.Fatalf("err = %v, want wall_time budget error", err)
	}
}

func TestBudgetExceededBoxKeepsPartialSubset(t *testing.T) {
	tree, _, pts := requestTree(t, 4000, 8, 76)
	c := NewQueryContext()
	q := geom.Rect{Lo: make(geom.Point, 8), Hi: make(geom.Point, 8)}
	for d := 0; d < 8; d++ {
		q.Lo[d], q.Hi[d] = 0.1, 0.9
	}
	full, err := tree.SearchBoxContext(nil, c, q, Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byRID := make(map[RecordID]bool, len(full))
	for _, e := range full {
		byRID[e.RID] = true
	}

	part, err := tree.SearchBoxContext(nil, c, q, Budget{MaxPageReads: 5}, nil)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *ErrBudgetExceeded", err)
	}
	if be.Partial != len(part) || len(part) >= len(full) {
		t.Fatalf("partial = %d (Partial %d), full = %d", len(part), be.Partial, len(full))
	}
	for _, e := range part {
		if !byRID[e.RID] {
			t.Fatalf("degraded box result %d not in the full answer", e.RID)
		}
		if !pts[e.RID].Equal(e.Point) {
			t.Fatalf("degraded box result %d carries a wrong point", e.RID)
		}
	}
}

// TestQueryOutcomeCountersExclusive drives one query per outcome kind and
// checks each lands in exactly one core_query_outcomes_total bucket.
func TestQueryOutcomeCountersExclusive(t *testing.T) {
	tree, _, pts := requestTree(t, 2000, 8, 77)
	c := NewQueryContext()
	r := obs.Default()
	snapshot := func() map[string]uint64 {
		out := make(map[string]uint64)
		for _, k := range []string{"ok", "cancelled", "timeout", "shed", "degraded", "error"} {
			out[k] = r.Counter(`core_query_outcomes_total{outcome="` + k + `"}`).Value()
		}
		return out
	}
	expectDelta := func(before map[string]uint64, want string) {
		t.Helper()
		after := snapshot()
		for k := range after {
			d := after[k] - before[k]
			switch {
			case k == want && d != 1:
				t.Fatalf("outcome %q counted %d times, want 1", k, d)
			case k != want && d != 0:
				t.Fatalf("outcome %q counted %d times, want 0 (wanted only %q)", k, d, want)
			}
		}
	}

	before := snapshot()
	if _, err := tree.SearchKNNContext(nil, c, pts[0], 5, dist.L2(), Budget{}, nil); err != nil {
		t.Fatal(err)
	}
	expectDelta(before, "ok")

	before = snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tree.SearchKNNContext(ctx, c, pts[0], 5, dist.L2(), Budget{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	expectDelta(before, "cancelled")

	before = snapshot()
	ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := tree.SearchKNNContext(ctx, c, pts[0], 5, dist.L2(), Budget{}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	expectDelta(before, "timeout")

	before = snapshot()
	var be *ErrBudgetExceeded
	if _, err := tree.SearchKNNContext(nil, c, pts[0], 5, dist.L2(), Budget{MaxPageReads: 1}, nil); !errors.As(err, &be) {
		t.Fatal(err)
	}
	expectDelta(before, "degraded")
}

func close64(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+a+b)
}
