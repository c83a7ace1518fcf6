package bench

import (
	"context"
	"fmt"

	"hybridtree/internal/core"
	"hybridtree/internal/index"
	"hybridtree/internal/obs"
)

// TableObs is not a table from the paper: it reads back the unified obs
// counters (index_node_reads_total, index_cache_hits_total / _misses_total,
// index_prunes_total) for every access method over one calibrated FOURIER
// box workload. Because every method reports through the same resolver
// (obs.IndexCounters), the per-query node-visit and prune columns are
// directly comparable — the table is the cross-method view the paper's
// figures aggregate away.
func TableObs(o Options) (*Table, error) {
	o = o.withDefaults()
	n := o.FourierN
	if n > 30000 {
		n = 30000 // the counters need a real tree, not the paper's scale
	}
	const dim = 16
	data, queries, _, err := fourierWorkload(o, n, dim)
	if err != nil {
		return nil, err
	}
	o.logf("tableobs: building all structures at dim=%d n=%d\n", dim, n)

	hybrid, err := BuildHybrid(data, o.PageSize, core.Config{})
	if err != nil {
		return nil, err
	}
	sr, err := BuildSR(data, o.PageSize)
	if err != nil {
		return nil, err
	}
	hb, err := BuildHB(data, o.PageSize)
	if err != nil {
		return nil, err
	}
	kdb, err := BuildKDB(data, o.PageSize)
	if err != nil {
		return nil, err
	}
	scan, err := BuildScan(data, o.PageSize)
	if err != nil {
		return nil, err
	}

	builds := []struct {
		label string
		idx   index.Index
	}{
		{"Hybrid tree", hybrid},
		{"SR-tree", sr},
		{"hB-tree", hb},
		{"KDB-tree", kdb},
		{"Seq scan", scan},
	}

	t := &Table{
		Title:   fmt.Sprintf("Per-method obs counters (FOURIER %dK %d-d, %d box queries)", n/1000, dim, len(queries)),
		Columns: []string{"Method", "node reads/query", "cache hit%", "prunes/query", "results/query"},
	}
	for _, b := range builds {
		reads, hits, misses := obs.IndexCounters(obs.Default(), b.idx.Name())
		prunes := obs.PruneCounter(obs.Default(), b.idx.Name())
		r0, h0, m0, p0 := reads.Value(), hits.Value(), misses.Value(), prunes.Value()
		results := 0
		for _, q := range queries {
			es, err := b.idx.Search(context.Background(), core.Query{Kind: core.Box, Rect: q})
			if err != nil {
				return nil, fmt.Errorf("tableobs: %s box query: %w", b.idx.Name(), err)
			}
			results += len(es)
		}
		dr := reads.Value() - r0
		dh := hits.Value() - h0
		dm := misses.Value() - m0
		dp := prunes.Value() - p0
		nq := float64(len(queries))
		hitPct := "-"
		if dh+dm > 0 {
			hitPct = fmt.Sprintf("%.1f%%", 100*float64(dh)/float64(dh+dm))
		}
		t.Rows = append(t.Rows, []string{
			b.label,
			fmt.Sprintf("%.1f", float64(dr)/nq),
			hitPct,
			fmt.Sprintf("%.1f", float64(dp)/nq),
			fmt.Sprintf("%.1f", float64(results)/nq),
		})
	}
	return t, nil
}
