// Package index defines the common interface the benchmark harness drives
// every access method through: the hybrid tree, the SR-tree and hB-tree
// competitors, the KDB-tree strawman, and sequential scan. Keeping the
// harness against one interface is what makes the paper's "normalize
// everything against linear scan" methodology (Section 4) mechanical.
package index

import (
	"context"
	"errors"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// Entry is one stored (vector, record id) pair.
type Entry struct {
	Point geom.Point
	RID   uint64
}

// Neighbor is an Entry annotated with its distance to a query.
type Neighbor struct {
	Entry
	Dist float64
}

// ErrUnsupported is returned by access methods that do not implement a
// query type — notably the hB-tree for distance-based queries, which the
// paper excludes from Figure 7(c,d) for exactly this reason (footnote 2).
var ErrUnsupported = errors.New("index: query type unsupported by this access method")

// Lifecycle is the optional request-lifecycle extension of Index: one
// Search taking the query as a value, honoring a context (cancellation,
// deadline) and the query's resource budget. Budget exhaustion degrades —
// the partial result is returned alongside a *core.ErrBudgetExceeded —
// while context abandonment discards partials and returns ctx.Err(). Box
// hits come back as Neighbors with Dist 0 (see Entries). The harness
// type-asserts for this interface and falls back to the plain methods when
// a method lacks it.
type Lifecycle interface {
	Index
	Search(ctx context.Context, q core.Query) ([]Neighbor, error)
}

// Entries narrows a box Search's results to their entries; it wraps the
// call directly.
func Entries(ns []Neighbor, err error) ([]Entry, error) {
	out := make([]Entry, len(ns))
	for i, n := range ns {
		out[i] = n.Entry
	}
	return out, err
}

// Index is a paginated multidimensional access method.
type Index interface {
	// Name identifies the method in reports ("hybrid", "sr", "hb", ...).
	Name() string
	// Insert adds one (vector, record id) pair.
	Insert(p geom.Point, rid uint64) error
	// Delete removes one entry matching (p, rid) exactly, reporting whether
	// it was found, or returns ErrUnsupported.
	Delete(p geom.Point, rid uint64) (bool, error)
	// SearchBox returns all entries inside q, boundaries inclusive.
	SearchBox(q geom.Rect) ([]Entry, error)
	// SearchRange returns all entries within radius of q under m, or
	// ErrUnsupported.
	SearchRange(q geom.Point, radius float64, m dist.Metric) ([]Neighbor, error)
	// SearchKNN returns the k nearest entries to q under m, closest first,
	// or ErrUnsupported.
	SearchKNN(q geom.Point, k int, m dist.Metric) ([]Neighbor, error)
	// File exposes the underlying page file for access accounting.
	File() pagefile.File
}
