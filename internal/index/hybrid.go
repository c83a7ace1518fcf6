package index

import (
	"context"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// Hybrid adapts core.Tree to the Index interface (the tree's own API uses
// its richer result types).
type Hybrid struct {
	*core.Tree
	// NameOverride lets the harness distinguish configurations of the same
	// structure ("hybrid-vam", "hybrid-els0", ...).
	NameOverride string
}

var _ Lifecycle = (*Hybrid)(nil)

// Name implements Index.
func (h *Hybrid) Name() string {
	if h.NameOverride != "" {
		return h.NameOverride
	}
	return "hybrid"
}

// Insert implements Index.
func (h *Hybrid) Insert(p geom.Point, rid uint64) error {
	return h.Tree.Insert(p, core.RecordID(rid))
}

// Delete implements Index.
func (h *Hybrid) Delete(p geom.Point, rid uint64) (bool, error) {
	return h.Tree.Delete(p, core.RecordID(rid))
}

// Search implements Lifecycle: q runs on the tree's own context pool under
// ctx and q.Budget, and the result — partial when the error says so — is
// converted to the index types. It shadows the promoted core.Tree method.
func (h *Hybrid) Search(ctx context.Context, q core.Query) ([]Neighbor, error) {
	ns, err := h.Tree.Search(ctx, nil, q, nil)
	out := make([]Neighbor, len(ns))
	for i, n := range ns {
		out[i] = Neighbor{Entry: Entry{Point: n.Point, RID: uint64(n.RID)}, Dist: n.Dist}
	}
	return out, err
}

// SearchBox implements Index.
func (h *Hybrid) SearchBox(q geom.Rect) ([]Entry, error) {
	return Entries(h.Search(nil, core.Query{Kind: core.Box, Rect: q}))
}

// SearchRange implements Index.
func (h *Hybrid) SearchRange(q geom.Point, radius float64, m dist.Metric) ([]Neighbor, error) {
	return h.Search(nil, core.Query{Kind: core.Range, Point: q, Radius: radius, Metric: m})
}

// SearchKNN implements Index.
func (h *Hybrid) SearchKNN(q geom.Point, k int, m dist.Metric) ([]Neighbor, error) {
	return h.Search(nil, core.Query{Kind: core.KNN, Point: q, K: k, Metric: m})
}

// File implements Index.
func (h *Hybrid) File() pagefile.File { return h.Tree.File() }
