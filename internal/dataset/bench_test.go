package dataset

import "testing"

// BenchmarkColHist64d generates the end-to-end benchmark's collection:
// 110,000 64-d COLHIST vectors of seed 1999. It fans out over GOMAXPROCS,
// so compare runs at the same -cpu.
func BenchmarkColHist64d(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ColHist(110000, 64, 1999)
	}
}
