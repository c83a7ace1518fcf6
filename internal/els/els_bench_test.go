package els

import (
	"testing"

	"hybridtree/internal/geom"
)

func benchRects(dim int) (geom.Rect, geom.Rect) {
	outer := geom.UnitCube(dim)
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := 0; d < dim; d++ {
		lo[d] = 0.2 + float32(d%5)*0.01
		hi[d] = lo[d] + 0.1
	}
	return outer, geom.Rect{Lo: lo, Hi: hi}
}

func BenchmarkEncode64d8bit(b *testing.B) {
	outer, live := benchRects(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode(outer, live, 8)
	}
}

func BenchmarkDecode64d8bit(b *testing.B) {
	outer, live := benchRects(64)
	e := encode(outer, live, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode(outer, e, 8)
	}
}

func BenchmarkTableGetMemoized(b *testing.B) {
	outer, live := benchRects(64)
	tab := NewTable(8)
	tab.Set(1, outer, live)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Get(1, outer)
	}
}
