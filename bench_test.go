// Package hybridtree_bench holds the testing.B entry points that regenerate
// every table and figure of the paper's evaluation (Section 4). Each
// benchmark runs one experiment per iteration at the default reduced scale
// (a few minutes for the full suite; see cmd/hybridbench -paper for the
// paper's full scale) and reports the headline numbers as custom metrics so
// `go test -bench` output doubles as the reproduction record:
//
//	go test -bench=. -benchmem ./...
//
// Metric naming: series label + x value, e.g. "hybrid-normIO@64d" is the
// hybrid tree's normalized I/O cost at 64 dimensions. The paper's linear
// scan reference lines are 0.1 (I/O) and 1.0 (CPU) by construction.
package hybridtree_bench

import (
	"fmt"
	"strings"
	"testing"

	"hybridtree/internal/bench"
)

// benchOptions is the scale used by the benchmark suite. Deterministic and
// laptop-sized while preserving every qualitative shape of the paper.
func benchOptions() bench.Options {
	o := bench.Defaults()
	o.ColHistN = 20000
	o.FourierN = 40000
	o.Queries = 25
	return o
}

// BenchmarkFig5a_EDAvsVAM_DiskAccesses reproduces Figure 5(a): disk
// accesses per query for EDA-optimal vs VAMSplit node splitting on COLHIST.
func BenchmarkFig5a_EDAvsVAM_DiskAccesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figA, _, err := bench.Fig5ab(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, figA, "d")
		}
	}
}

// BenchmarkFig5b_EDAvsVAM_CPU reproduces Figure 5(b): CPU time per query
// for EDA-optimal vs VAMSplit node splitting on COLHIST.
func BenchmarkFig5b_EDAvsVAM_CPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, figB, err := bench.Fig5ab(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, figB, "d")
		}
	}
}

// BenchmarkFig5c_ELSPrecision reproduces Figure 5(c): disk accesses vs
// encoded-live-space precision on COLHIST.
func BenchmarkFig5c_ELSPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig5c(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, fig, "bits")
		}
	}
}

// BenchmarkFig6ab_Fourier reproduces Figure 6(a,b): normalized I/O and CPU
// cost vs dimensionality on FOURIER, hybrid vs hB vs SR vs linear scan.
func BenchmarkFig6ab_Fourier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figIO, figCPU, err := bench.Fig6(benchOptions(), "FOURIER")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, figIO, "d")
			reportFigure(b, figCPU, "dCPU")
		}
	}
}

// BenchmarkFig6cd_ColHist reproduces Figure 6(c,d): normalized I/O and CPU
// cost vs dimensionality on COLHIST.
func BenchmarkFig6cd_ColHist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figIO, figCPU, err := bench.Fig6(benchOptions(), "COLHIST")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, figIO, "d")
			reportFigure(b, figCPU, "dCPU")
		}
	}
}

// BenchmarkFig7ab_DatabaseSize reproduces Figure 7(a,b): scalability with
// database size on 64-d COLHIST.
func BenchmarkFig7ab_DatabaseSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figIO, figCPU, err := bench.Fig7ab(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, figIO, "K")
			reportFigure(b, figCPU, "KCPU")
		}
	}
}

// BenchmarkFig7cd_L1Distance reproduces Figure 7(c,d): L1 distance-based
// range queries on COLHIST, hybrid vs SR (hB excluded, paper footnote 2).
func BenchmarkFig7cd_L1Distance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figIO, figCPU, err := bench.Fig7cd(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, figIO, "d")
			reportFigure(b, figCPU, "dCPU")
		}
	}
}

// BenchmarkTable1_SplittingStrategies reproduces Table 1: the structural
// audit of splitting strategies across the four index structures.
func BenchmarkTable1_SplittingStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Table1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			var sb strings.Builder
			t.Print(&sb)
			b.Log(sb.String())
		}
	}
}

// BenchmarkTable2_StructureComparison reproduces Table 2: the hybrid tree
// against BR-based and kd-tree-based structures.
func BenchmarkTable2_StructureComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			var sb strings.Builder
			t.Print(&sb)
			b.Log(sb.String())
		}
	}
}

// BenchmarkAblationSplitPosition isolates the middle-vs-median data-node
// split position claim of Section 3.2.
func BenchmarkAblationSplitPosition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationSplitPosition(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, fig, "d")
		}
	}
}

// BenchmarkAblationQuerySide isolates the EDA objective's query-side
// parameter (Section 3.3).
func BenchmarkAblationQuerySide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationQuerySide(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, fig, "d")
		}
	}
}

func reportFigure(b *testing.B, figure *bench.Figure, unit string) {
	for _, s := range figure.Series {
		label := strings.ReplaceAll(s.Label, " ", "")
		label = strings.ReplaceAll(label, "(", "")
		label = strings.ReplaceAll(label, ")", "")
		for i, y := range s.Y {
			b.ReportMetric(y, fmt.Sprintf("%s@%g%s", label, figure.X[i], unit))
		}
	}
}

// BenchmarkAblationBulkLoad compares bulk loading vs incremental insertion
// (build time, fill, query I/O).
func BenchmarkAblationBulkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationBulkLoad(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
