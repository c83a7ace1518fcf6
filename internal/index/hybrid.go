package index

import (
	"context"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// Hybrid adapts core.Tree to the Index interface.
type Hybrid struct {
	*core.Tree
	// NameOverride lets the harness distinguish configurations of the same
	// structure ("hybrid-vam", "hybrid-els0", ...).
	NameOverride string
}

var _ Index = (*Hybrid)(nil)

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

// Search implements Index: q runs on the tree's own context pool under ctx
// and q.Budget. It shadows the promoted core.Tree method.
func (h *Hybrid) Search(ctx context.Context, q core.Query) ([]core.Neighbor, error) {
	return h.Tree.Search(ctx, nil, q, nil)
}

// File implements Index.
func (h *Hybrid) File() pagefile.File { return h.Tree.File() }
