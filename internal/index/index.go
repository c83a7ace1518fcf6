// Package index defines the common interface the benchmark harness drives
// every access method through: the hybrid tree, the SR-tree and hB-tree
// competitors, the KDB-tree strawman, and sequential scan. Keeping the
// harness against one interface is what makes the paper's "normalize
// everything against linear scan" methodology (Section 4) mechanical.
package index

import (
	"context"
	"errors"
	"fmt"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// ErrUnsupported is returned by access methods that do not implement a
// query type — notably the hB-tree for distance-based queries, which the
// paper excludes from Figure 7(c,d) for exactly this reason (footnote 2) —
// or cannot honor a query's Budget or Epsilon.
var ErrUnsupported = errors.New("index: query type unsupported by this access method")

// Index is a paginated multidimensional access method.
type Index interface {
	// Name identifies the method in reports ("hybrid", "sr", "hb", ...).
	Name() string
	// Insert adds one (vector, record id) pair.
	Insert(p geom.Point, rid uint64) error
	// Delete removes one entry matching (p, rid) exactly, reporting whether
	// it was found, or returns ErrUnsupported.
	Delete(p geom.Point, rid uint64) (bool, error)
	// Search answers q: box hits in any order with Dist 0, range hits in
	// any order, k-NN closest first. A malformed q is refused with
	// core.ErrBadQuery before any page is read, a query the method cannot
	// answer with ErrUnsupported, and an abandoned ctx with ctx.Err().
	// Only the hybrid tree honors q.Budget, degrading to a partial answer
	// alongside a *core.ErrBudgetExceeded.
	Search(ctx context.Context, q core.Query) ([]core.Neighbor, error)
	// File exposes the underlying page file for access accounting.
	File() pagefile.File
}

// Check is the refusal rule every baseline applies before reading a page:
// a malformed q, an abandoned ctx, and a Budget or Epsilon the baselines
// cannot honor (rather than silently running to completion).
func Check(ctx context.Context, q core.Query, dim int) error {
	if err := q.Validate(dim); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !q.Budget.Unlimited() || q.Epsilon != 0 {
		return fmt.Errorf("%w: %v query with a budget or epsilon", ErrUnsupported, q.Kind)
	}
	return nil
}
