package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/dataset"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/index"
	"hybridtree/internal/pagefile"
)

// AblationSplitPosition isolates the paper's Section 3.2 claim that
// splitting data nodes near the *middle* of the extent (more cubic BRs,
// smaller surface area) beats the conventional *median* split. Both
// variants use the EDA-optimal split dimension; only the position differs.
func AblationSplitPosition(o Options) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{
		Title:  "Ablation: data-node split position — middle of extent vs median (COLHIST)",
		XLabel: "dims", YLabel: "avg disk accesses per query",
		Series: []Series{{Label: "middle (paper)"}, {Label: "median"}},
	}
	for _, dim := range ColHistDims {
		data, queries, side, err := colhistWorkload(o, o.ColHistN, dim)
		if err != nil {
			return nil, err
		}
		fig.X = append(fig.X, float64(dim))
		for si, policy := range []core.SplitPolicy{core.EDAPolicy{}, core.EDAMedianPolicy{}} {
			tree, err := BuildHybrid(data, o.PageSize, core.Config{Policy: policy, QuerySide: side})
			if err != nil {
				return nil, err
			}
			m, err := RunBox(tree, queries, 0, 0)
			if err != nil {
				return nil, err
			}
			fig.Series[si].Y = append(fig.Series[si].Y, m.AvgIO)
			o.logf("ablation-pos: dim=%d %s io=%.1f\n", dim, policy.Name(), m.AvgIO)
		}
	}
	return fig, nil
}

// AblationQuerySide isolates the index-node EDA objective's dependence on
// the query-side parameter r (Section 3.3): the calibrated workload side,
// a badly misestimated side, and the uniform-distribution integral form.
func AblationQuerySide(o Options) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{
		Title:  "Ablation: EDA query-side parameter r for index-node splits (COLHIST)",
		XLabel: "dims", YLabel: "avg disk accesses per query",
		Series: []Series{
			{Label: "calibrated r"},
			{Label: "r=1.0 (overestimate)"},
			{Label: "uniform integral"},
		},
	}
	for _, dim := range ColHistDims {
		data, queries, side, err := colhistWorkload(o, o.ColHistN, dim)
		if err != nil {
			return nil, err
		}
		fig.X = append(fig.X, float64(dim))
		configs := []core.Config{
			{QuerySide: side},
			{QuerySide: 1.0},
			{QuerySide: 1.0, UniformQuerySide: true},
		}
		for si, cfg := range configs {
			tree, err := BuildHybrid(data, o.PageSize, cfg)
			if err != nil {
				return nil, err
			}
			m, err := RunBox(tree, queries, 0, 0)
			if err != nil {
				return nil, err
			}
			fig.Series[si].Y = append(fig.Series[si].Y, m.AvgIO)
			o.logf("ablation-r: dim=%d %s io=%.1f\n", dim, fig.Series[si].Label, m.AvgIO)
		}
	}
	return fig, nil
}

// AblationELSMemory verifies the paper's claim that the ELS side table
// stays small relative to the database (Section 3.4: "for 8K page, 4 bit
// precision and 64-d space, the overhead is less than 1%"). The table
// reports the overhead at our default 4K pages too, where the node count —
// and hence the side table — roughly doubles.
func AblationELSMemory(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "ELS side-table memory vs database size (COLHIST)",
		Columns: []string{"dims", "page", "bits", "ELS bytes", "db bytes", "overhead"},
	}
	for _, dim := range ColHistDims {
		data := dataset.ColHist(o.ColHistN, dim, o.Seed)
		for _, pageSize := range []int{o.PageSize, 8192} {
			tree, err := BuildHybrid(data, pageSize, core.Config{})
			if err != nil {
				return nil, err
			}
			// "Database size" in the paper's claim is the index file's
			// footprint: its pages.
			dbBytes := tree.File().NumPages() * pageSize
			for _, bits := range []int{4, 8} {
				if err := tree.SetELSPrecision(bits); err != nil {
					return nil, err
				}
				els := tree.ELSMemoryBytes()
				t.Rows = append(t.Rows, []string{
					itoa(dim), itoa(pageSize), itoa(bits), itoa(els), itoa(dbBytes),
					pct(float64(els) / float64(dbBytes)),
				})
			}
		}
	}
	return t, nil
}

// AblationMmap compares the two read-only serving backends over the same
// on-disk index: pread-per-page (DiskFile) vs a shared read-only memory
// mapping (MmapFile). The index is bulk-loaded once to a temporary file and
// reopened through each backend; logical page reads are identical by
// construction (same tree, same queries), so the delta isolates the read
// path itself. Falls back transparently where mmap is unavailable — the
// "mapped" column records which mode actually ran.
func AblationMmap(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Ablation: read-only serving backend — pread vs mmap (COLHIST)",
		Columns: []string{"dims", "backend", "mapped", "knn CPU/q", "box CPU/q", "avg IO/q"},
	}
	dir, err := os.MkdirTemp("", "hybridbench-mmap")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	const k = 10
	for _, dim := range ColHistDims {
		data, queries, side, err := colhistWorkload(o, o.ColHistN, dim)
		if err != nil {
			return nil, err
		}
		centers := make([]geom.Point, 0, o.Queries)
		for i := 0; i < o.Queries; i++ {
			centers = append(centers, data[(i*7919)%len(data)])
		}
		cfg := core.Config{Dim: dim, PageSize: o.PageSize, QuerySide: side}

		path := filepath.Join(dir, fmt.Sprintf("colhist-%d.ht", dim))
		df, err := pagefile.CreateDiskFile(path, o.PageSize)
		if err != nil {
			return nil, err
		}
		rids := make([]core.RecordID, len(data))
		for i := range rids {
			rids[i] = core.RecordID(i)
		}
		built, err := core.BulkLoad(df, cfg, data, rids)
		if err != nil {
			return nil, err
		}
		if err := built.Close(); err != nil {
			return nil, err
		}
		if err := df.Close(); err != nil {
			return nil, err
		}

		type backend struct {
			name string
			open func() (pagefile.File, error)
		}
		backends := []backend{
			{"disk", func() (pagefile.File, error) { return pagefile.OpenDiskFile(path, o.PageSize) }},
			{"mmap", func() (pagefile.File, error) { return pagefile.OpenMmapFile(path, o.PageSize) }},
		}
		var knnResults, boxResults []float64
		for _, be := range backends {
			file, err := be.open()
			if err != nil {
				return nil, err
			}
			tree, err := core.Open(file, cfg)
			if err != nil {
				file.Close()
				return nil, err
			}
			idx := &index.Hybrid{Tree: tree}
			// Warm pass decodes every touched page once, so the timed pass
			// measures the steady-state read path rather than cold decodes.
			if _, err := RunKNN(idx, centers, k, dist.L2(), 0, 0); err != nil {
				file.Close()
				return nil, err
			}
			tree.DropCaches()
			knn, err := RunKNN(idx, centers, k, dist.L2(), 0, 0)
			if err != nil {
				file.Close()
				return nil, err
			}
			tree.DropCaches()
			box, err := RunBox(idx, queries, 0, 0)
			if err != nil {
				file.Close()
				return nil, err
			}
			mapped := "-"
			if mf, ok := file.(*pagefile.MmapFile); ok {
				mapped = fmt.Sprintf("%v", mf.Mapped())
			}
			knnResults = append(knnResults, knn.AvgResults)
			boxResults = append(boxResults, box.AvgResults)
			t.Rows = append(t.Rows, []string{
				itoa(dim), be.name, mapped,
				knn.AvgCPU.Round(time.Microsecond).String(),
				box.AvgCPU.Round(time.Microsecond).String(),
				fmt.Sprintf("%.1f", knn.AvgIO+box.AvgIO),
			})
			o.logf("ablation-mmap: dim=%d %s knn=%v box=%v\n", dim, be.name, knn.AvgCPU, box.AvgCPU)
			if err := file.Close(); err != nil {
				return nil, err
			}
		}
		if knnResults[0] != knnResults[1] || boxResults[0] != boxResults[1] {
			return nil, fmt.Errorf("bench: mmap backend disagrees with disk at dim %d (knn %v vs %v, box %v vs %v)",
				dim, knnResults[0], knnResults[1], boxResults[0], boxResults[1])
		}
	}
	return t, nil
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func pct(f float64) string { return fmt.Sprintf("%.3f%%", 100*f) }

// AblationBulkLoad compares bulk loading against incremental insertion on
// COLHIST: construction cost, storage utilization, and query I/O. Bulk
// loading is the natural companion of the VAMSplit lineage the paper cites;
// the ablation quantifies what the dynamic tree gives up for being fully
// incremental.
func AblationBulkLoad(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Ablation: bulk load vs incremental insertion (COLHIST)",
		Columns: []string{"dims", "build", "build time", "data fill", "avg IO/query"},
	}
	for _, dim := range ColHistDims {
		data, queries, side, err := colhistWorkload(o, o.ColHistN, dim)
		if err != nil {
			return nil, err
		}
		run := func(name string, build func() (*index.Hybrid, time.Duration, error)) error {
			tree, elapsed, err := build()
			if err != nil {
				return err
			}
			st, err := tree.Tree.Stats()
			if err != nil {
				return err
			}
			m, err := RunBox(tree, queries, 0, 0)
			if err != nil {
				return err
			}
			t.Rows = append(t.Rows, []string{
				itoa(dim), name, elapsed.Round(time.Millisecond).String(),
				pct(st.AvgDataFill), fmt.Sprintf("%.1f", m.AvgIO),
			})
			return nil
		}
		err = run("incremental", func() (*index.Hybrid, time.Duration, error) {
			start := time.Now()
			tree, err := BuildHybrid(data, o.PageSize, core.Config{QuerySide: side})
			return tree, time.Since(start), err
		})
		if err != nil {
			return nil, err
		}
		err = run("bulk", func() (*index.Hybrid, time.Duration, error) {
			rids := make([]core.RecordID, len(data))
			for i := range rids {
				rids[i] = core.RecordID(i)
			}
			start := time.Now()
			file := pagefile.NewMemFile(o.PageSize)
			tree, err := core.BulkLoad(file, core.Config{Dim: dim, PageSize: o.PageSize, QuerySide: side}, data, rids)
			if err != nil {
				return nil, 0, err
			}
			return &index.Hybrid{Tree: tree, NameOverride: "hybrid-bulk"}, time.Since(start), nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
