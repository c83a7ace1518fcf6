package core

import (
	"fmt"
	"strings"

	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
)

// Explanation describes how a box query traversed the tree: per level, how
// many nodes were read and how candidate children were disposed of — pruned
// by the kd-defined bounding region, pruned by the encoded live space
// (the second step of the paper's two-step overlap check), or descended
// into. It makes the ELS and split-quality effects measured in Figures 5
// and 6 inspectable for a single query.
//
// The per-level table is an aggregation of the query's span tree, which
// Trace exposes in full: the same obs.Trace the Tracer interface produces,
// with one span per visited node. Trace.String() is the per-node human
// renderer and json.Marshal(Trace) the machine one; Explanation.String()
// stays the per-level summary.
type Explanation struct {
	// Levels[0] is the root level; the last entry is the data level.
	Levels []LevelStats
	// Results is the number of matching entries.
	Results int
	// Trace is the query's full span tree.
	Trace *obs.Trace
}

// LevelStats aggregates one tree level of an explained query.
type LevelStats struct {
	NodesRead  int // nodes of this level read
	KDPruned   int // subtrees cut by the kd bounding-region check
	ELSPruned  int // children cut by the live-space check after kd passed
	Descended  int // children visited at the next level
	EntriesHit int // data level only: entries matching the query
}

// String renders the explanation as a small table.
func (e *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "level  nodes  kd-pruned  els-pruned  descended  hits\n")
	for i, l := range e.Levels {
		fmt.Fprintf(&sb, "%5d %6d %10d %11d %10d %5d\n",
			i, l.NodesRead, l.KDPruned, l.ELSPruned, l.Descended, l.EntriesHit)
	}
	fmt.Fprintf(&sb, "results: %d\n", e.Results)
	return sb.String()
}

// ExplainBox runs a box query and returns both its results and the
// traversal explanation. It is the ordinary Search run with a
// locally-owned trace — the one traversal has one instrumentation
// mechanism, whether the consumer is a Tracer sink or this aggregation.
func (t *Tree) ExplainBox(q geom.Rect) ([]Entry, *Explanation, error) {
	tr := obs.NewTrace(Box.String())
	out, err := Entries(t.search(nil, nil, &Query{Kind: Box, Rect: q}, nil, nil, tr))
	_, _, height := t.SnapshotInfo()
	ex := explanationFromTrace(tr, height)
	ex.Results = len(out)
	return out, ex, err
}

// explanationFromTrace collapses a span tree into per-level totals. Kd and
// live-space prunes and descents are charged to the level of the node where
// the decision happened (matching the span's own counters); entry hits are
// charged to leaf spans, which sit on the data level.
func explanationFromTrace(tr *obs.Trace, height int) *Explanation {
	ex := &Explanation{Levels: make([]LevelStats, height), Trace: tr}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		for int(s.Level) >= len(ex.Levels) {
			// The height was read after the walk: a commit in between may
			// have changed it. Grow.
			ex.Levels = append(ex.Levels, LevelStats{})
		}
		ls := &ex.Levels[s.Level]
		ls.NodesRead++
		ls.KDPruned += int(s.KDPruned)
		ls.ELSPruned += int(s.ELSPruned)
		ls.Descended += int(s.Descents)
		if s.Leaf {
			ls.EntriesHit += int(s.Hits)
		}
	}
	return ex
}
