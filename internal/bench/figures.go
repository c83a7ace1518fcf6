package bench

import (
	"fmt"

	"hybridtree/internal/core"
	"hybridtree/internal/dataset"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/index"
	"hybridtree/internal/seqscan"
	"hybridtree/internal/workload"
)

// ColHistDims and FourierDims are the dimensionalities of the paper's two
// datasets.
var (
	ColHistDims = []int{16, 32, 64}
	FourierDims = []int{8, 12, 16}
)

// colhistWorkload builds a COLHIST dataset and its calibrated box queries.
func colhistWorkload(o Options, n, dim int) ([]geom.Point, []geom.Rect, float64, error) {
	data := dataset.ColHist(n, dim, o.Seed)
	queries, side, err := workload.BoxQueries(data, o.Queries, workload.ColHistSelectivity, o.Seed+7)
	return data, queries, side, err
}

// fourierWorkload builds a FOURIER dataset and its calibrated box queries.
func fourierWorkload(o Options, n, dim int) ([]geom.Point, []geom.Rect, float64, error) {
	data := dataset.Fourier(n, dim, o.Seed)
	queries, side, err := workload.BoxQueries(data, o.Queries, workload.FourierSelectivity, o.Seed+7)
	return data, queries, side, err
}

// Fig5ab reproduces Figure 5(a) and (b): query performance of the hybrid
// tree built with EDA-optimal node splitting vs. the VAMSplit algorithm, on
// COLHIST at 16/32/64 dimensions. Returns the disk-access figure (a) and
// the CPU-time figure (b). Expected shape: EDA <= VAM everywhere, the gap
// widening with dimensionality.
func Fig5ab(o Options) (*Figure, *Figure, error) {
	o = o.withDefaults()
	figA := &Figure{
		Title:  "Figure 5(a): EDA-optimal vs VAM split — disk accesses (COLHIST)",
		XLabel: "dims", YLabel: "avg disk accesses per query",
		Series: []Series{{Label: "EDA-optimal"}, {Label: "VAM"}},
	}
	figB := &Figure{
		Title:  "Figure 5(b): EDA-optimal vs VAM split — CPU time (COLHIST)",
		XLabel: "dims", YLabel: "avg CPU seconds per query",
		Series: []Series{{Label: "EDA-optimal"}, {Label: "VAM"}},
	}
	for _, dim := range ColHistDims {
		data, queries, side, err := colhistWorkload(o, o.ColHistN, dim)
		if err != nil {
			return nil, nil, err
		}
		o.logf("fig5ab: dim=%d side=%.3g\n", dim, side)
		figA.X = append(figA.X, float64(dim))
		figB.X = append(figB.X, float64(dim))
		for si, policy := range []core.SplitPolicy{core.EDAPolicy{}, core.VAMPolicy{}} {
			tree, err := BuildHybrid(data, o.PageSize, core.Config{Policy: policy, QuerySide: side})
			if err != nil {
				return nil, nil, err
			}
			m, err := RunBox(tree, queries, 0, 0)
			if err != nil {
				return nil, nil, err
			}
			figA.Series[si].Y = append(figA.Series[si].Y, m.AvgIO)
			figB.Series[si].Y = append(figB.Series[si].Y, m.AvgCPU.Seconds())
			o.logf("fig5ab: dim=%d %s io=%.1f cpu=%v\n", dim, policy.Name(), m.AvgIO, m.AvgCPU)
		}
	}
	return figA, figB, nil
}

// ELSBitSweep is the x axis of Figure 5(c).
var ELSBitSweep = []int{0, 1, 2, 4, 6, 8, 12, 16}

// Fig5c reproduces Figure 5(c): the effect of encoded-live-space precision
// on disk accesses, COLHIST at 16/32/64 dimensions, bits 0 (no ELS) to 16.
// Expected shape: a large drop from 0 to ~4 bits, then a plateau.
func Fig5c(o Options) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{
		Title:  "Figure 5(c): effect of ELS precision on disk accesses (COLHIST)",
		XLabel: "bits/boundary", YLabel: "avg disk accesses per query",
	}
	for _, bits := range ELSBitSweep {
		fig.X = append(fig.X, float64(bits))
	}
	for _, dim := range ColHistDims {
		data, queries, side, err := colhistWorkload(o, o.ColHistN, dim)
		if err != nil {
			return nil, err
		}
		tree, err := BuildHybrid(data, o.PageSize, core.Config{QuerySide: side})
		if err != nil {
			return nil, err
		}
		s := Series{Label: fmt.Sprintf("%d-d COLHIST", dim)}
		for _, bits := range ELSBitSweep {
			// The structure is independent of ELS precision, so one build
			// serves the whole sweep.
			if err := tree.SetELSPrecision(bits); err != nil {
				return nil, err
			}
			m, err := RunBox(tree, queries, 0, 0)
			if err != nil {
				return nil, err
			}
			s.Y = append(s.Y, m.AvgIO)
			o.logf("fig5c: dim=%d bits=%d io=%.1f els=%dB\n", dim, bits, m.AvgIO, tree.ELSMemoryBytes())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// competitors builds the Figure 6/7 line-up over one dataset: hybrid tree,
// hB-tree, SR-tree. The scan baseline is returned separately.
func competitors(o Options, data []geom.Point, side float64) ([]index.Index, *seqscan.Scan, error) {
	hybrid, err := BuildHybrid(data, o.PageSize, core.Config{QuerySide: side})
	if err != nil {
		return nil, nil, err
	}
	hb, err := BuildHB(data, o.PageSize)
	if err != nil {
		return nil, nil, err
	}
	sr, err := BuildSR(data, o.PageSize)
	if err != nil {
		return nil, nil, err
	}
	scan, err := BuildScan(data, o.PageSize)
	if err != nil {
		return nil, nil, err
	}
	return []index.Index{hybrid, hb, sr}, scan, nil
}

// Fig6 reproduces Figure 6: scalability with dimensionality. Dataset is
// "FOURIER" — (a) I/O, (b) CPU over 8/12/16 dims — or "COLHIST" — (c) I/O,
// (d) CPU over 16/32/64 dims. Costs are normalized against linear scan
// (scan's normalized I/O is 0.1 and CPU is 1.0; both appear as a series).
// Expected shape: hybrid < hB < SR on I/O at every dimensionality, with SR
// crossing the 0.1 scan line first.
func Fig6(o Options, datasetName string) (*Figure, *Figure, error) {
	o = o.withDefaults()
	var dims []int
	var load func(Options, int, int) ([]geom.Point, []geom.Rect, float64, error)
	var n int
	var panel string
	switch datasetName {
	case "FOURIER":
		dims, load, n, panel = FourierDims, fourierWorkload, o.FourierN, "(a,b)"
	case "COLHIST":
		dims, load, n, panel = ColHistDims, colhistWorkload, o.ColHistN, "(c,d)"
	default:
		return nil, nil, fmt.Errorf("bench: unknown dataset %q", datasetName)
	}
	figIO := &Figure{
		Title:  fmt.Sprintf("Figure 6%s: normalized I/O cost vs dimensionality (%s %dK)", panel, datasetName, n/1000),
		XLabel: "dims", YLabel: "normalized I/O cost (scan = 0.1)",
		Series: []Series{{Label: "Hybrid Tree"}, {Label: "hB-tree"}, {Label: "SR-tree"}, {Label: "linear scan"}},
	}
	figCPU := &Figure{
		Title:  fmt.Sprintf("Figure 6%s: normalized CPU cost vs dimensionality (%s %dK)", panel, datasetName, n/1000),
		XLabel: "dims", YLabel: "normalized CPU cost (scan = 1.0)",
		Series: []Series{{Label: "Hybrid Tree"}, {Label: "hB-tree"}, {Label: "SR-tree"}, {Label: "linear scan"}},
	}
	for _, dim := range dims {
		data, queries, side, err := load(o, n, dim)
		if err != nil {
			return nil, nil, err
		}
		o.logf("fig6 %s: dim=%d side=%.3g building...\n", datasetName, dim, side)
		idxs, scan, err := competitors(o, data, side)
		if err != nil {
			return nil, nil, err
		}
		scanCPU, err := ScanCPU(scan, queries)
		if err != nil {
			return nil, nil, err
		}
		figIO.X = append(figIO.X, float64(dim))
		figCPU.X = append(figCPU.X, float64(dim))
		for si, idx := range idxs {
			m, err := RunBox(idx, queries, scan.NumPages(), scanCPU)
			if err != nil {
				return nil, nil, err
			}
			figIO.Series[si].Y = append(figIO.Series[si].Y, m.NormIO)
			figCPU.Series[si].Y = append(figCPU.Series[si].Y, m.NormCPU)
			o.logf("fig6 %s: dim=%d %s normIO=%.4f normCPU=%.4f (io=%.1f cpu=%v)\n",
				datasetName, dim, idx.Name(), m.NormIO, m.NormCPU, m.AvgIO, m.AvgCPU)
		}
		figIO.Series[3].Y = append(figIO.Series[3].Y, 0.1)
		figCPU.Series[3].Y = append(figCPU.Series[3].Y, 1.0)
	}
	return figIO, figCPU, nil
}

// Fig7ab reproduces Figure 7(a,b): scalability with database size on 64-d
// COLHIST. Sizes sweep from ~36% of ColHistN up to ColHistN (the paper's
// 25K..70K). Expected shape: the hybrid tree's normalized cost is flat to
// decreasing (sublinear absolute growth) and roughly an order of magnitude
// below the SR-tree.
func Fig7ab(o Options) (*Figure, *Figure, error) {
	o = o.withDefaults()
	const dim = 64
	figIO := &Figure{
		Title:  fmt.Sprintf("Figure 7(a): normalized I/O cost vs database size (64-d COLHIST, up to %dK)", o.ColHistN/1000),
		XLabel: "tuples(x1000)", YLabel: "normalized I/O cost (scan = 0.1)",
		Series: []Series{{Label: "Hybrid Tree"}, {Label: "hB-tree"}, {Label: "SR-tree"}, {Label: "linear scan"}},
	}
	figCPU := &Figure{
		Title:  "Figure 7(b): normalized CPU cost vs database size (64-d COLHIST)",
		XLabel: "tuples(x1000)", YLabel: "normalized CPU cost (scan = 1.0)",
		Series: []Series{{Label: "Hybrid Tree"}, {Label: "hB-tree"}, {Label: "SR-tree"}, {Label: "linear scan"}},
	}
	// The paper sweeps 25K..70K; scale the same 25/70..70/70 ratios.
	fractions := []float64{25.0 / 70, 34.0 / 70, 43.0 / 70, 52.0 / 70, 61.0 / 70, 1.0}
	full := dataset.ColHist(o.ColHistN, dim, o.Seed)
	for _, frac := range fractions {
		n := int(float64(o.ColHistN) * frac)
		data := full[:n]
		queries, side, err := workload.BoxQueries(data, o.Queries, workload.ColHistSelectivity, o.Seed+7)
		if err != nil {
			return nil, nil, err
		}
		o.logf("fig7ab: n=%d side=%.3g building...\n", n, side)
		idxs, scan, err := competitors(o, data, side)
		if err != nil {
			return nil, nil, err
		}
		scanCPU, err := ScanCPU(scan, queries)
		if err != nil {
			return nil, nil, err
		}
		figIO.X = append(figIO.X, float64(n)/1000)
		figCPU.X = append(figCPU.X, float64(n)/1000)
		for si, idx := range idxs {
			m, err := RunBox(idx, queries, scan.NumPages(), scanCPU)
			if err != nil {
				return nil, nil, err
			}
			figIO.Series[si].Y = append(figIO.Series[si].Y, m.NormIO)
			figCPU.Series[si].Y = append(figCPU.Series[si].Y, m.NormCPU)
			o.logf("fig7ab: n=%d %s normIO=%.4f normCPU=%.4f\n", n, idx.Name(), m.NormIO, m.NormCPU)
		}
		figIO.Series[3].Y = append(figIO.Series[3].Y, 0.1)
		figCPU.Series[3].Y = append(figCPU.Series[3].Y, 1.0)
	}
	return figIO, figCPU, nil
}

// Fig7cd reproduces Figure 7(c,d): distance-based range queries under the
// L1 (Manhattan) metric on COLHIST, hybrid tree vs SR-tree (the hB-tree is
// excluded because it does not support distance-based search — the paper's
// footnote 2). Expected shape: hybrid below SR at every dimensionality.
func Fig7cd(o Options) (*Figure, *Figure, error) {
	o = o.withDefaults()
	metric := dist.L1()
	figIO := &Figure{
		Title:  "Figure 7(c): normalized I/O cost, L1 distance queries (COLHIST)",
		XLabel: "dims", YLabel: "normalized I/O cost (scan = 0.1)",
		Series: []Series{{Label: "Hybrid Tree"}, {Label: "SR-tree"}, {Label: "linear scan"}},
	}
	figCPU := &Figure{
		Title:  "Figure 7(d): normalized CPU cost, L1 distance queries (COLHIST)",
		XLabel: "dims", YLabel: "normalized CPU cost (scan = 1.0)",
		Series: []Series{{Label: "Hybrid Tree"}, {Label: "SR-tree"}, {Label: "linear scan"}},
	}
	for _, dim := range ColHistDims {
		data := dataset.ColHist(o.ColHistN, dim, o.Seed)
		queries, radius, err := workload.RangeQueries(data, o.Queries, workload.ColHistSelectivity, metric, o.Seed+7)
		if err != nil {
			return nil, nil, err
		}
		o.logf("fig7cd: dim=%d radius=%.3g building...\n", dim, radius)
		// The EDA split objective's query-side parameter for an L1 ball of
		// radius R: the per-dimension share R/k of the distance budget.
		hybrid, err := BuildHybrid(data, o.PageSize, core.Config{QuerySide: radius / float64(dim)})
		if err != nil {
			return nil, nil, err
		}
		sr, err := BuildSR(data, o.PageSize)
		if err != nil {
			return nil, nil, err
		}
		scan, err := BuildScan(data, o.PageSize)
		if err != nil {
			return nil, nil, err
		}
		scanCPU, err := ScanCPURange(scan, queries, metric)
		if err != nil {
			return nil, nil, err
		}
		figIO.X = append(figIO.X, float64(dim))
		figCPU.X = append(figCPU.X, float64(dim))
		for si, idx := range []index.Index{hybrid, sr} {
			m, err := RunRange(idx, queries, metric, scan.NumPages(), scanCPU)
			if err != nil {
				return nil, nil, err
			}
			figIO.Series[si].Y = append(figIO.Series[si].Y, m.NormIO)
			figCPU.Series[si].Y = append(figCPU.Series[si].Y, m.NormCPU)
			o.logf("fig7cd: dim=%d %s normIO=%.4f normCPU=%.4f\n", dim, idx.Name(), m.NormIO, m.NormCPU)
		}
		figIO.Series[2].Y = append(figIO.Series[2].Y, 0.1)
		figCPU.Series[2].Y = append(figCPU.Series[2].Y, 1.0)
	}
	return figIO, figCPU, nil
}
