package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// coreCounters reads every core_* counter of the default registry.
func coreCounters(t *testing.T) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for name := range doc.Counters {
		if !strings.HasPrefix(name, "core_") {
			delete(doc.Counters, name)
		}
	}
	return doc.Counters
}

// work is everything one query is allowed to change outside its answer.
type work struct {
	stats    pagefile.Stats
	counters map[string]uint64
}

// measure runs fn and returns the page accesses and core_* counter
// increments it caused.
func measure(t *testing.T, st *pagefile.Stats, fn func()) work {
	t.Helper()
	st.Reset()
	before := coreCounters(t)
	fn()
	after := coreCounters(t)
	for name, v := range after {
		after[name] = v - before[name]
	}
	return work{stats: st.Snapshot(), counters: after}
}

// TestSearchSpellingsAgree pins every surviving Search* spelling to the one
// path: for each kind × metric × lifecycle it must return exactly what
// Search(Query) returns — same bytes, same error — for the same page
// accesses and the same core_* counter increments.
func TestSearchSpellingsAgree(t *testing.T) {
	tree, _, st := parityTree(t, 5000, 8, 61)
	// Query around the first entry of the first leaf in traversal order, so
	// that even a walk cut short by its budget has something to return.
	all, err := tree.SearchBox(geom.UnitCube(8))
	if err != nil {
		t.Fatal(err)
	}
	point := all[0].Point.Clone()
	box := geom.Rect{Lo: make(geom.Point, 8), Hi: make(geom.Point, 8)}
	for d := range box.Lo {
		box.Lo[d], box.Hi[d] = 0.1, 0.9
	}
	lifecycles := []struct {
		name  string
		ctx   context.Context
		b     Budget
		plain bool // the spellings without a lifecycle apply
	}{
		{"nil", nil, Budget{}, true},
		{"background", context.Background(), Budget{}, false},
		{"degrading", context.Background(), Budget{MaxPageReads: 5}, false},
	}
	// spelling is one way to ask for q; plain ones take no ctx or budget.
	type spelling struct {
		name  string
		plain bool
		run   func(ctx context.Context, c *QueryContext, q Query) (any, error)
	}
	spellings := map[Kind][]spelling{
		Box: {
			{"SearchBoxContext", false, func(ctx context.Context, c *QueryContext, q Query) (any, error) {
				return tree.SearchBoxContext(ctx, c, q.Rect, q.Budget, nil)
			}},
			{"SearchBox", true, func(_ context.Context, _ *QueryContext, q Query) (any, error) {
				return tree.SearchBox(q.Rect)
			}},
			{"searchBoxFunc", true, func(_ context.Context, _ *QueryContext, q Query) (any, error) {
				var es []Entry
				err := tree.searchBoxFunc(q.Rect, func(e Entry) bool { es = append(es, e); return true })
				return es, err
			}},
		},
		Range: {
			{"SearchRangeContext", false, func(ctx context.Context, c *QueryContext, q Query) (any, error) {
				return tree.SearchRangeContext(ctx, c, q.Point, q.Radius, q.Metric, q.Budget, nil)
			}},
			{"SearchRange", true, func(_ context.Context, _ *QueryContext, q Query) (any, error) {
				return tree.SearchRange(q.Point, q.Radius, q.Metric)
			}},
		},
		KNN: {
			{"SearchKNNContext", false, func(ctx context.Context, c *QueryContext, q Query) (any, error) {
				return tree.SearchKNNContext(ctx, c, q.Point, q.K, q.Metric, q.Budget, nil)
			}},
			{"SearchKNN", true, func(_ context.Context, _ *QueryContext, q Query) (any, error) {
				return tree.SearchKNN(q.Point, q.K, q.Metric)
			}},
			{"SearchKNNApprox", true, func(_ context.Context, _ *QueryContext, q Query) (any, error) {
				return tree.SearchKNNApprox(q.Point, q.K, q.Metric, q.Epsilon)
			}},
		},
	}

	c := NewQueryContext()
	for _, m := range []dist.Metric{dist.L1(), dist.L2(), dist.Linf()} {
		queries := []Query{
			{Kind: Box, Rect: box},
			{Kind: Range, Point: point, Radius: 0.6, Metric: m},
			{Kind: KNN, Point: point, K: 40, Metric: m},
		}
		for _, lc := range lifecycles {
			for _, q := range queries {
				q.Budget = lc.b
				var want []Neighbor
				var wantErr error
				wantWork := measure(t, st, func() { want, wantErr = tree.Search(lc.ctx, c, q, nil) })
				if degraded := errors.As(wantErr, new(*ErrBudgetExceeded)); degraded != (lc.b != Budget{}) || len(want) == 0 {
					t.Fatalf("%v/%s/%s: Search returned %d results, err %v", q.Kind, m.Name(), lc.name, len(want), wantErr)
				}
				var wantAny any = want
				if q.Kind == Box {
					wantAny, _ = Entries(want, nil)
				}
				for _, sp := range spellings[q.Kind] {
					if sp.plain && !lc.plain {
						continue
					}
					var got any
					var gotErr error
					gotWork := measure(t, st, func() { got, gotErr = sp.run(lc.ctx, c, q) })
					id := q.Kind.String() + "/" + m.Name() + "/" + lc.name + "/" + sp.name
					if !reflect.DeepEqual(got, wantAny) {
						t.Errorf("%s: results differ from Search", id)
					}
					if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Errorf("%s: err = %v, Search returned %v", id, gotErr, wantErr)
					}
					if !reflect.DeepEqual(gotWork, wantWork) {
						t.Errorf("%s: work differs from Search:\n got %+v\nwant %+v", id, gotWork, wantWork)
					}
				}
			}
		}
	}

	// SearchPoint is the exact-match box narrowed to record ids.
	var want []Neighbor
	wantWork := measure(t, st, func() { want, _ = tree.Search(nil, nil, Query{Kind: Box, Rect: geom.Rect{Lo: point, Hi: point}}, nil) })
	var rids []RecordID
	gotWork := measure(t, st, func() { rids, _ = tree.SearchPoint(point) })
	if len(rids) != 1 || len(want) != 1 || rids[0] != want[0].RID || !reflect.DeepEqual(gotWork, wantWork) {
		t.Errorf("SearchPoint: %v for work %+v, Search returned %v for %+v", rids, gotWork, want, wantWork)
	}
}

// TestBadQuery is every cause of ErrBadQuery: each is refused by every kind
// it applies to before a page is read, and the context stays usable.
func TestBadQuery(t *testing.T) {
	tree, pts, st := parityTree(t, 200, 4, 62)
	good := pts[0]
	unit := geom.UnitCube(4)
	cases := []struct {
		name string
		q    Query
	}{
		{"box of the wrong dimensionality", Query{Kind: Box, Rect: geom.UnitCube(3)}},
		{"box corners of unequal length", Query{Kind: Box, Rect: geom.Rect{Lo: unit.Lo, Hi: unit.Hi[:3]}}},
		{"inverted box", Query{Kind: Box, Rect: geom.Rect{Lo: unit.Hi, Hi: unit.Lo}}},
		{"box inverted on the last dimension", Query{Kind: Box, Rect: geom.Rect{Lo: geom.Point{0, 0, 0, 0.5}, Hi: geom.Point{1, 1, 1, 0.25}}}},
		{"range point of the wrong dimensionality", Query{Kind: Range, Point: good[:3], Radius: 1, Metric: dist.L2()}},
		{"negative radius", Query{Kind: Range, Point: good, Radius: -0.1, Metric: dist.L2()}},
		{"range without a metric", Query{Kind: Range, Point: good, Radius: 1}},
		{"knn point of the wrong dimensionality", Query{Kind: KNN, Point: good[:2], K: 3, Metric: dist.L1()}},
		{"k = 0", Query{Kind: KNN, Point: good, Metric: dist.L1()}},
		{"negative k", Query{Kind: KNN, Point: good, K: -2, Metric: dist.L1()}},
		{"negative epsilon", Query{Kind: KNN, Point: good, K: 3, Epsilon: -1, Metric: dist.L1()}},
		{"knn without a metric", Query{Kind: KNN, Point: good, K: 3}},
		{"unknown kind", Query{Kind: numKinds, Point: good, K: 3, Metric: dist.L1()}},
	}
	c := NewQueryContext()
	sentinel := []Neighbor{{Dist: 42}}
	st.Reset()
	for _, tc := range cases {
		got, err := tree.Search(context.Background(), c, tc.q, sentinel)
		if !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", tc.name, err)
		}
		if len(got) != 1 || got[0].Dist != 42 {
			t.Errorf("%s: dst changed to %v", tc.name, got)
		}
		if ClassifyOutcome(err) != obs.OutcomeError {
			t.Errorf("%s: outcome %v, want error", tc.name, ClassifyOutcome(err))
		}
	}
	if st.Reads() != 0 {
		t.Errorf("rejected queries read %d pages", st.Reads())
	}
	// The boundary cases are queries, not mistakes.
	for _, q := range []Query{
		{Kind: Box, Rect: geom.Rect{Lo: good, Hi: good}},
		{Kind: Range, Point: good, Radius: 0, Metric: dist.L2()},
		{Kind: KNN, Point: good, K: 1, Epsilon: 0, Metric: dist.L2()},
	} {
		if ns, err := tree.Search(nil, c, q, nil); err != nil || len(ns) != 1 {
			t.Errorf("%v at a stored point: %d results, err %v; want exactly 1", q.Kind, len(ns), err)
		}
	}
}
