package workload

import (
	"testing"

	"hybridtree/internal/dataset"
	"hybridtree/internal/dist"
)

// BenchmarkCalibrateColHist64d calibrates the box side and the L1 range
// radius at the end-to-end benchmark's shape: 40,000 64-d COLHIST vectors,
// 32 centres, 0.2 % selectivity.
func BenchmarkCalibrateColHist64d(b *testing.B) {
	data := dataset.ColHist(40000, 64, 1999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BoxQueries(data, 32, ColHistSelectivity, 1999); err != nil {
			b.Fatal(err)
		}
		if _, _, err := RangeQueries(data, 32, ColHistSelectivity, dist.L1(), 1999); err != nil {
			b.Fatal(err)
		}
	}
}
