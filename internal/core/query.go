package core

import (
	"context"
	"errors"
	"fmt"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
)

// Kind names one of the three query types of Section 3.5.
type Kind uint8

const (
	// Box is the feature-based query: every entry inside Query.Rect,
	// boundaries inclusive. Hits carry Dist 0.
	Box Kind = iota
	// Range is the distance-based query: every entry within Query.Radius of
	// Query.Point under Query.Metric.
	Range
	// KNN is the Query.K entries nearest Query.Point under Query.Metric,
	// closest first; Query.Epsilon > 0 makes it (1+epsilon)-approximate.
	KNN
	numKinds
)

var kindNames = [numKinds]string{"box", "range", "knn"}

// String is the kind's name in metrics, traces and budget errors.
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Query is one search request as a value: layers above the tree build it
// once and pass it down unchanged to Tree.Search. Each Kind reads only its
// own fields (see the Kind constants) plus Budget. The metric is supplied
// per query: nothing about the tree is specialized to it.
type Query struct {
	Kind    Kind
	Rect    geom.Rect
	Point   geom.Point
	Radius  float64
	K       int
	Epsilon float64
	Metric  dist.Metric
	Budget  Budget
}

// ErrBadQuery is wrapped by the error of every search that refuses its
// Query before reading a page: wrong dimensionality, an inverted box, k < 1,
// a negative radius or epsilon, a NaN coordinate or parameter, a missing
// metric, an unknown kind. It is the caller's mistake, the read-side
// sibling of ErrBadVector.
var ErrBadQuery = errors.New("core: malformed query")

// Validate is the one place a query's shape is checked against an index of
// dimensionality dim; every index calls it before reading a page.
func (q *Query) Validate(dim int) error {
	switch q.Kind {
	case Box:
		if len(q.Rect.Lo) != dim || len(q.Rect.Hi) != dim {
			return fmt.Errorf("%w: box corners have dim %d and %d, index expects %d", ErrBadQuery, len(q.Rect.Lo), len(q.Rect.Hi), dim)
		}
		for d, lo := range q.Rect.Lo {
			if !(lo <= q.Rect.Hi[d]) { // NaN corners included
				return fmt.Errorf("%w: inverted box on dim %d: lo=%g hi=%g", ErrBadQuery, d, lo, q.Rect.Hi[d])
			}
		}
		return nil
	case Range:
		if !(q.Radius >= 0) {
			return fmt.Errorf("%w: radius %g must be >= 0", ErrBadQuery, q.Radius)
		}
	case KNN:
		if q.K < 1 {
			return fmt.Errorf("%w: k must be >= 1, got %d", ErrBadQuery, q.K)
		}
		if !(q.Epsilon >= 0) {
			return fmt.Errorf("%w: epsilon %g must be >= 0", ErrBadQuery, q.Epsilon)
		}
	default:
		return fmt.Errorf("%w: unknown %v", ErrBadQuery, q.Kind)
	}
	if len(q.Point) != dim {
		return fmt.Errorf("%w: point has dim %d, index expects %d", ErrBadQuery, len(q.Point), dim)
	}
	for d, v := range q.Point {
		if v != v {
			return fmt.Errorf("%w: point is NaN on dim %d", ErrBadQuery, d)
		}
	}
	if q.Metric == nil {
		return fmt.Errorf("%w: %v query needs a metric", ErrBadQuery, q.Kind)
	}
	return nil
}

// Search answers q, appending its results to dst (nil, or a recycled buffer)
// — the only code that validates, pins, arms, runs and accounts for a
// query; every other Search* spelling constructs a Query and calls it. c is
// the query's scratch state: nil borrows one from the tree's pool, and a
// caller that reuses both c and dst runs the cached-node path without
// allocating. Result points alias the pinned node version; clone them to
// keep them past later commits.
//
// Cancellation, the context deadline and q.Budget are checked once per node
// visit. Abandonment (ctx) returns ctx.Err() with dst cut back to its input
// length. Budget exhaustion degrades instead: a *ErrBudgetExceeded comes
// with the valid partial answer — the box/range hits found so far, or for
// k-NN the best-so-far neighbors, sorted and correctly ranked. On any other
// error box/range keep what they had appended. A nil ctx and zero Budget
// run unarmed.
func (t *Tree) Search(ctx context.Context, c *QueryContext, q Query, dst []Neighbor) ([]Neighbor, error) {
	return t.search(ctx, c, &q, dst, nil, nil)
}

// search is Search plus the two private extras: visit streams box hits to
// a callback instead of dst (searchBoxFunc), and own substitutes a caller's
// trace for the tracer's (ExplainBox).
func (t *Tree) search(ctx context.Context, c *QueryContext, q *Query, dst []Neighbor, visit func(Entry) bool, own *obs.Trace) ([]Neighbor, error) {
	if err := q.Validate(t.cfg.Dim); err != nil {
		return dst, err
	}
	if c == nil {
		c = t.getCtx()
		defer t.putCtx(c)
	}
	qc := &c.qc
	qc.acquire(t.cfg.Dim)
	defer qc.release()
	t.pinCtx(qc)
	qc.arm(ctx, q.Budget)
	start := t.beginQuery(qc, q.Kind, own)

	base, streamed := len(dst), 0
	var err error
	if q.Kind == KNN {
		dst, err = t.bestFirst(qc, q, dst)
	} else {
		dst, streamed, err = t.depthFirst(qc, q, dst, visit)
	}
	if err != nil {
		if isCtxErr(err) {
			dst = dst[:base]
		} else if be, ok := err.(*ErrBudgetExceeded); ok {
			be.Partial = len(dst) - base
		}
	}
	t.finishQuery(qc, q.Kind, start, len(dst)-base+streamed, err)
	return dst, err
}

// Entries narrows a box Search's results to their entries (nil stays nil):
// Entries(t.Search(...)).
func Entries(ns []Neighbor, err error) ([]Entry, error) { return entriesOnto(nil)(ns, err) }

// entriesOnto is Entries appending to dst.
func entriesOnto(dst []Entry) func([]Neighbor, error) ([]Entry, error) {
	return func(ns []Neighbor, err error) ([]Entry, error) {
		for i := range ns {
			dst = append(dst, ns[i].Entry)
		}
		return dst, err
	}
}

// The spellings below are one-statement constructors of a Query, kept for
// index.Index, examples/ and benchmark/ (DESIGN.md "Query path" says which
// caller holds each).

// SearchBox returns every entry whose vector lies inside q (boundaries
// inclusive) — the feature-based bounding-box query of Section 3.5, and the
// query type of the paper's Figures 5 and 6.
func (t *Tree) SearchBox(q geom.Rect) ([]Entry, error) {
	return Entries(t.Search(nil, nil, Query{Kind: Box, Rect: q}, nil))
}

// SearchBoxContext is a Box Search whose entries are appended to dst.
func (t *Tree) SearchBoxContext(ctx context.Context, c *QueryContext, q geom.Rect, b Budget, dst []Entry) ([]Entry, error) {
	return entriesOnto(dst)(t.Search(ctx, c, Query{Kind: Box, Rect: q, Budget: b}, nil))
}

// SearchPoint returns the record ids stored exactly at p.
func (t *Tree) SearchPoint(p geom.Point) ([]RecordID, error) {
	return recordIDs(t.Search(nil, nil, Query{Kind: Box, Rect: geom.Rect{Lo: p, Hi: p}}, nil))
}

// SearchRange returns every entry within distance radius of q under metric
// m — the distance-based range query of Section 3.5.
func (t *Tree) SearchRange(q geom.Point, radius float64, m dist.Metric) ([]Neighbor, error) {
	return t.Search(nil, nil, Query{Kind: Range, Point: q, Radius: radius, Metric: m}, nil)
}

// SearchRangeContext is a Range Search.
func (t *Tree) SearchRangeContext(ctx context.Context, c *QueryContext, q geom.Point, radius float64, m dist.Metric, b Budget, dst []Neighbor) ([]Neighbor, error) {
	return t.Search(ctx, c, Query{Kind: Range, Point: q, Radius: radius, Metric: m, Budget: b}, dst)
}

// SearchKNN returns the k entries nearest to q under metric m, closest
// first.
func (t *Tree) SearchKNN(q geom.Point, k int, m dist.Metric) ([]Neighbor, error) {
	return t.Search(nil, nil, Query{Kind: KNN, Point: q, K: k, Metric: m}, nil)
}

// SearchKNNContext is a KNN Search.
func (t *Tree) SearchKNNContext(ctx context.Context, c *QueryContext, q geom.Point, k int, m dist.Metric, b Budget, dst []Neighbor) ([]Neighbor, error) {
	return t.Search(ctx, c, Query{Kind: KNN, Point: q, K: k, Metric: m, Budget: b}, dst)
}

// SearchKNNApprox is (1+epsilon)-approximate k-nearest-neighbor search —
// the query type the paper names as future work ("we intend to support new
// types of queries like approximate nearest neighbor queries efficiently
// using the hybrid tree"). It runs the same best-first traversal as
// SearchKNN but discards any subtree whose MINDIST exceeds
// bound/(1+epsilon), so every reported neighbor's distance is within a
// (1+epsilon) factor of the true k-th distance, in exchange for visiting
// fewer pages. epsilon = 0 degenerates to exact search.
func (t *Tree) SearchKNNApprox(q geom.Point, k int, m dist.Metric, epsilon float64) ([]Neighbor, error) {
	return t.Search(nil, nil, Query{Kind: KNN, Point: q, K: k, Metric: m, Epsilon: epsilon}, nil)
}

func recordIDs(ns []Neighbor, err error) ([]RecordID, error) {
	if err != nil {
		return nil, err
	}
	rids := make([]RecordID, len(ns))
	for i := range ns {
		rids[i] = ns[i].RID
	}
	return rids, nil
}
