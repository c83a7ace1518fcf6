// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 4). It builds each access
// method over the synthetic FOURIER/COLHIST datasets, runs the calibrated
// constant-selectivity query batches, and reports the paper's metrics:
// average disk accesses, average CPU time, and both normalized against
// sequential scan (normalized I/O cost of a scan is 0.1 by the
// 10x-faster-sequential convention; normalized CPU cost of a scan is 1.0).
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/hbtree"
	"hybridtree/internal/index"
	"hybridtree/internal/kdbtree"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/seqscan"
	"hybridtree/internal/srtree"
	"hybridtree/internal/workload"
)

// Options scales the experiments. The zero value is usable; Defaults()
// gives the benchmark-suite scale and Paper() the paper's full scale.
type Options struct {
	// FourierN and ColHistN are dataset sizes.
	FourierN int
	ColHistN int
	// Queries is the number of queries per measurement point.
	Queries int
	// PageSize defaults to 4096, the paper's setting.
	PageSize int
	// Seed makes everything deterministic.
	Seed int64
	// Out receives progress and results; nil discards progress lines.
	Out io.Writer
}

// Defaults returns a scale that completes the whole suite in a few minutes
// on a laptop while preserving every qualitative shape.
func Defaults() Options {
	return Options{FourierN: 60000, ColHistN: 30000, Queries: 30, PageSize: 4096, Seed: 1}
}

// Paper returns the paper's experimental scale (FOURIER 400K, COLHIST 70K).
// Expect tens of minutes.
func Paper() Options {
	return Options{FourierN: 400000, ColHistN: 70000, Queries: 100, PageSize: 4096, Seed: 1}
}

func (o Options) withDefaults() Options {
	d := Defaults()
	if o.FourierN == 0 {
		o.FourierN = d.FourierN
	}
	if o.ColHistN == 0 {
		o.ColHistN = d.ColHistN
	}
	if o.Queries == 0 {
		o.Queries = d.Queries
	}
	if o.PageSize == 0 {
		o.PageSize = d.PageSize
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// BuildHybrid constructs a hybrid tree over data. querySide feeds the
// EDA split objective (pass the calibrated workload side).
func BuildHybrid(data []geom.Point, pageSize int, cfg core.Config) (*index.Hybrid, error) {
	dim := len(data[0])
	cfg.Dim = dim
	cfg.PageSize = pageSize
	file := pagefile.NewMemFile(pageSize)
	tree, err := core.New(file, cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range data {
		if err := tree.Insert(p, core.RecordID(i)); err != nil {
			return nil, fmt.Errorf("hybrid insert %d: %w", i, err)
		}
	}
	return &index.Hybrid{Tree: tree}, nil
}

// BuildSR constructs an SR-tree over data.
func BuildSR(data []geom.Point, pageSize int) (*srtree.Tree, error) {
	file := pagefile.NewMemFile(pageSize)
	tree, err := srtree.New(file, srtree.Config{Dim: len(data[0]), PageSize: pageSize})
	if err != nil {
		return nil, err
	}
	for i, p := range data {
		if err := tree.Insert(p, uint64(i)); err != nil {
			return nil, fmt.Errorf("sr insert %d: %w", i, err)
		}
	}
	return tree, nil
}

// BuildHB constructs an hB-tree over data.
func BuildHB(data []geom.Point, pageSize int) (*hbtree.Tree, error) {
	file := pagefile.NewMemFile(pageSize)
	tree, err := hbtree.New(file, hbtree.Config{Dim: len(data[0]), PageSize: pageSize})
	if err != nil {
		return nil, err
	}
	for i, p := range data {
		if err := tree.Insert(p, uint64(i)); err != nil {
			return nil, fmt.Errorf("hb insert %d: %w", i, err)
		}
	}
	return tree, nil
}

// BuildKDB constructs a K-D-B-tree over data.
func BuildKDB(data []geom.Point, pageSize int) (*kdbtree.Tree, error) {
	file := pagefile.NewMemFile(pageSize)
	tree, err := kdbtree.New(file, kdbtree.Config{Dim: len(data[0]), PageSize: pageSize})
	if err != nil {
		return nil, err
	}
	for i, p := range data {
		if err := tree.Insert(p, uint64(i)); err != nil {
			return nil, fmt.Errorf("kdb insert %d: %w", i, err)
		}
	}
	return tree, nil
}

// BuildScan constructs the sequential-scan baseline over data.
func BuildScan(data []geom.Point, pageSize int) (*seqscan.Scan, error) {
	file := pagefile.NewMemFile(pageSize)
	s, err := seqscan.New(file, len(data[0]))
	if err != nil {
		return nil, err
	}
	for i, p := range data {
		if err := s.Insert(p, uint64(i)); err != nil {
			return nil, fmt.Errorf("scan insert %d: %w", i, err)
		}
	}
	return s, nil
}

// Measurement is the outcome of one (method, workload) run.
type Measurement struct {
	Method     string
	AvgIO      float64 // average page reads per query (random + sequential)
	AvgCPU     time.Duration
	NormIO     float64 // paper's normalized I/O cost
	NormCPU    float64 // paper's normalized CPU cost
	AvgResults float64
}

// RunBox executes the box-query batch against idx. scanPages is the
// sequential-scan page count of the dataset (the normalization
// denominator); scanCPU the measured scan CPU per query (0 to skip CPU
// normalization).
func RunBox(idx index.Index, queries []geom.Rect, scanPages int, scanCPU time.Duration) (Measurement, error) {
	return run(idx, scanPages, scanCPU, len(queries), func(i int) core.Query {
		return core.Query{Kind: core.Box, Rect: queries[i]}
	})
}

// RunRange executes the distance-range batch under metric m.
func RunRange(idx index.Index, queries []workload.Ball, m dist.Metric, scanPages int, scanCPU time.Duration) (Measurement, error) {
	return run(idx, scanPages, scanCPU, len(queries), func(i int) core.Query {
		return core.Query{Kind: core.Range, Point: queries[i].Center, Radius: queries[i].Radius, Metric: m}
	})
}

// RunKNN executes a k-nearest-neighbor batch.
func RunKNN(idx index.Index, centers []geom.Point, k int, m dist.Metric, scanPages int, scanCPU time.Duration) (Measurement, error) {
	return run(idx, scanPages, scanCPU, len(centers), func(i int) core.Query {
		return core.Query{Kind: core.KNN, Point: centers[i], K: k, Metric: m}
	})
}

func run(idx index.Index, scanPages int, scanCPU time.Duration, n int, query func(i int) core.Query) (Measurement, error) {
	stats := idx.File().Stats()
	stats.Reset()
	results := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		res, err := idx.Search(context.Background(), query(i))
		if err != nil {
			return Measurement{}, err
		}
		results += len(res)
	}
	elapsed := time.Since(start)

	m := Measurement{
		Method:     idx.Name(),
		AvgIO:      float64(stats.Reads()) / float64(n),
		AvgCPU:     elapsed / time.Duration(n),
		AvgResults: float64(results) / float64(n),
	}
	if scanPages > 0 {
		// Per-query normalized I/O; divide the batch stats by n first.
		perQuery := pagefile.Stats{
			RandomReads: stats.RandomReads,
			SeqReads:    stats.SeqReads,
		}
		m.NormIO = perQuery.NormalizedIO(scanPages) / float64(n)
	}
	if scanCPU > 0 {
		m.NormCPU = float64(m.AvgCPU) / float64(scanCPU)
	}
	return m, nil
}

// ScanCPU measures the average CPU time of the scan baseline on the batch
// (its normalized CPU cost is 1.0 by definition).
func ScanCPU(s *seqscan.Scan, queries []geom.Rect) (time.Duration, error) {
	m, err := RunBox(s, queries, 0, 0)
	if err != nil {
		return 0, err
	}
	return m.AvgCPU, nil
}

// ScanCPURange measures scan CPU for a distance-range batch.
func ScanCPURange(s *seqscan.Scan, queries []workload.Ball, metric dist.Metric) (time.Duration, error) {
	m, err := RunRange(s, queries, metric, 0, 0)
	if err != nil {
		return 0, err
	}
	return m.AvgCPU, nil
}
