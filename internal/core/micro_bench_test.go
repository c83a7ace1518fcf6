package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"hybridtree/internal/dataset"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// Micro-benchmarks for the hybrid tree's individual operations. The
// repository-level bench_test.go reproduces the paper's figures; these
// isolate per-operation costs for profiling and regression tracking.

func benchPoints(n, dim int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
	}
	return pts
}

func benchTree(b *testing.B, n, dim int) (*Tree, []geom.Point) {
	b.Helper()
	pts := benchPoints(n, dim, 1)
	file := pagefile.NewMemFile(pagefile.DefaultPageSize)
	tree, err := New(file, Config{Dim: dim})
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range pts {
		if err := tree.Insert(p, RecordID(i)); err != nil {
			b.Fatal(err)
		}
	}
	return tree, pts
}

// colHistTree bulk-loads the first n vectors of a synthetic COLHIST
// collection (the benchmark's palette) and returns the tree with the next
// held vectors, which are not in it.
func colHistTree(tb testing.TB, n, held, dim int) (*Tree, []geom.Point) {
	tb.Helper()
	pts := dataset.ColHist(n+held, dim, 1999)
	rids := make([]RecordID, n)
	for i := range rids {
		rids[i] = RecordID(i)
	}
	tree, err := BulkLoad(pagefile.NewMemFile(pagefile.DefaultPageSize), Config{Dim: dim}, pts[:n], rids)
	if err != nil {
		tb.Fatal(err)
	}
	return tree, pts[n:]
}

func BenchmarkInsert16d(b *testing.B) {
	pts := benchPoints(b.N+1000, 16, 2)
	file := pagefile.NewMemFile(pagefile.DefaultPageSize)
	tree, err := New(file, Config{Dim: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(pts[i], RecordID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert64d(b *testing.B) {
	pts := benchPoints(b.N+1000, 64, 3)
	file := pagefile.NewMemFile(pagefile.DefaultPageSize)
	tree, err := New(file, Config{Dim: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(pts[i], RecordID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertColHist64d inserts held-out COLHIST vectors into a tree
// bulk-loaded from 40k of them — the shape of the benchmark's durable
// insert workload, without its log. BenchmarkInsert64d instead grows a tree
// from uniform data by insertion alone.
func BenchmarkInsertColHist64d(b *testing.B) {
	const n = 40000
	tree, held := colHistTree(b, n, b.N, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i, p := range held {
		if err := tree.Insert(p, RecordID(n+i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad16d(b *testing.B) {
	pts := benchPoints(20000, 16, 4)
	rids := make([]RecordID, len(pts))
	for i := range rids {
		rids[i] = RecordID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file := pagefile.NewMemFile(pagefile.DefaultPageSize)
		if _, err := BulkLoad(file, Config{Dim: 16}, pts, rids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkLoadColHist64d bulk-loads the benchmark's shape: 40,000
// COLHIST vectors at 64-d into 4 KB pages. Unlike uniform data, the skewed
// histograms make most splits peel one page off the end of a range, so each
// vector is sorted at ≈ 57 split levels rather than ≈ 12. The levels'
// bounding rectangles are derived rather than rescanned, so a build reads
// 31.2 M coordinates, not 146.4 M; a level's cost is now mostly those
// reads, the gather of the split coordinate and the radix sort.
func BenchmarkBulkLoadColHist64d(b *testing.B) {
	pts := dataset.ColHist(40000, 64, 1999)
	rids := make([]RecordID, len(pts))
	for i := range rids {
		rids[i] = RecordID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file := pagefile.NewMemFile(pagefile.DefaultPageSize)
		if _, err := BulkLoad(file, Config{Dim: 64}, pts, rids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchBox16d(b *testing.B) {
	tree, _ := benchTree(b, 20000, 16)
	rng := rand.New(rand.NewSource(5))
	queries := make([]geom.Rect, 64)
	for i := range queries {
		queries[i] = randQueryRect(rng, 16, 0.4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.SearchBox(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchKNN16d(b *testing.B) {
	tree, pts := benchTree(b, 20000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.SearchKNN(pts[i%len(pts)], 10, dist.L2()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchKNNApprox16d(b *testing.B) {
	tree, pts := benchTree(b, 20000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.SearchKNNApprox(pts[i%len(pts)], 10, dist.L2(), 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchRangeL1_64d(b *testing.B) {
	tree, pts := benchTree(b, 10000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.SearchRange(pts[i%len(pts)], 0.8, dist.L1()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchKNNCtxL1_64d is the query shape of the benchmark's k-NN
// workloads, in process: COLHIST 64-d, n = 40,000 bulk-loaded (ELS on,
// 4096-byte pages), k = 10 under L1 at held-out anchors, warm node cache and
// query context.
func BenchmarkSearchKNNCtxL1_64d(b *testing.B) {
	tree, anchors := colHistTree(b, 40000, 1000, 64)
	c := NewQueryContext()
	l1 := dist.L1()
	var dst []Neighbor
	var err error
	// Warm pass: every anchor once, so the node cache holds what the
	// measured queries read and allocs/op is the hot path's alone.
	for _, q := range anchors {
		if dst, err = tree.Search(nil, c, Query{Kind: KNN, Point: q, K: 10, Metric: l1}, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = tree.Search(nil, c, Query{Kind: KNN, Point: anchors[i%len(anchors)], K: 10, Metric: l1}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchKNNColdL1_64d is the in-process twin of the benchmark's
// cold64-knn workload: the same tree and queries as
// BenchmarkSearchKNNCtxL1_64d, but on a DiskFile, reopened after the bulk
// load, with the decoded-node caches dropped (untimed) before every query —
// so each node access is a page read plus decode.
func BenchmarkSearchKNNColdL1_64d(b *testing.B) {
	const n = 40000
	pts := dataset.ColHist(n+1000, 64, 1999)
	rids := make([]RecordID, n)
	for i := range rids {
		rids[i] = RecordID(i)
	}
	path := filepath.Join(b.TempDir(), "index.ht")
	disk, err := pagefile.CreateDiskFile(path, pagefile.DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	built, err := BulkLoad(disk, Config{Dim: 64}, pts[:n], rids)
	if err != nil {
		b.Fatal(err)
	}
	if err := built.Close(); err != nil {
		b.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		b.Fatal(err)
	}
	if disk, err = pagefile.OpenDiskFile(path, pagefile.DefaultPageSize); err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	tree, err := Open(disk, Config{Dim: 64})
	if err != nil {
		b.Fatal(err)
	}
	anchors, c, l1 := pts[n:], NewQueryContext(), dist.L1()
	var dst []Neighbor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree.DropCaches()
		b.StartTimer()
		dst, err = tree.Search(nil, c, Query{Kind: KNN, Point: anchors[i%len(anchors)], K: 10, Metric: l1}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelete16d(b *testing.B) {
	pts := benchPoints(b.N+20000, 16, 6)
	file := pagefile.NewMemFile(pagefile.DefaultPageSize)
	tree, err := New(file, Config{Dim: 16})
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range pts {
		if err := tree.Insert(p, RecordID(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := tree.Delete(pts[i], RecordID(i))
		if err != nil {
			b.Fatal(err)
		}
		if !found {
			b.Fatalf("entry %d missing", i)
		}
	}
}

func BenchmarkNodeEncode64d(b *testing.B) {
	pts := benchPoints(15, 64, 7)
	n := &node{id: 1, leaf: true, dim: 64, kdRoot: kdNone}
	for i, p := range pts {
		n.appendPoint(p, RecordID(i))
	}
	buf := make([]byte, pagefile.DefaultPageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.encode(buf, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeDecode64d(b *testing.B) {
	pts := benchPoints(15, 64, 8)
	n := &node{id: 1, leaf: true, dim: 64, kdRoot: kdNone}
	for i, p := range pts {
		n.appendPoint(p, RecordID(i))
	}
	buf := make([]byte, pagefile.DefaultPageSize)
	size, err := n.encode(buf, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeNode(1, buf[:size], 64); err != nil {
			b.Fatal(err)
		}
	}
}

// Ctx-variant benchmarks: steady-state costs with a caller-held query
// context and recycled result buffer. With all nodes cached these should
// report ~0 allocs/op — the headline number of the zero-allocation hot
// path (compare BenchmarkSearchKNN16d, which pays a pooled-context
// check-out plus a fresh result slice per call).

func BenchmarkSearchBoxCtx16d(b *testing.B) {
	tree, _ := benchTree(b, 20000, 16)
	rng := rand.New(rand.NewSource(5))
	queries := make([]geom.Rect, 64)
	for i := range queries {
		queries[i] = randQueryRect(rng, 16, 0.4)
	}
	c := NewQueryContext()
	var dst []Neighbor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = tree.Search(nil, c, Query{Kind: Box, Rect: queries[i%len(queries)]}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchKNNCtx16d(b *testing.B) {
	tree, pts := benchTree(b, 20000, 16)
	c := NewQueryContext()
	var dst []Neighbor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = tree.Search(nil, c, Query{Kind: KNN, Point: pts[i%len(pts)], K: 10, Metric: dist.L2()}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Tracer-overhead pair: the same warm-context k-NN workload with no tracer
// vs with a configured-but-nop tracer. The internal/perf tracer-overhead
// ratio gate compares exactly these two in the same run, and the alloc gate
// pins both at 0 allocs/op — tracing off must stay free.

func BenchmarkSearchKNNTracerOff(b *testing.B) {
	tree, pts := benchTree(b, 20000, 16)
	tree.setTracer(nil)
	c := NewQueryContext()
	var dst []Neighbor
	// Warm pass: grow the context arena and result buffer to steady state so
	// allocs/op measures the hot path, not one-time growth.
	var err error
	if dst, err = tree.Search(nil, c, Query{Kind: KNN, Point: pts[0], K: 10, Metric: dist.L2()}, dst[:0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = tree.Search(nil, c, Query{Kind: KNN, Point: pts[i%len(pts)], K: 10, Metric: dist.L2()}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchKNNTracerNop(b *testing.B) {
	tree, pts := benchTree(b, 20000, 16)
	tree.setTracer(obs.Nop())
	c := NewQueryContext()
	var dst []Neighbor
	var err error
	if dst, err = tree.Search(nil, c, Query{Kind: KNN, Point: pts[0], K: 10, Metric: dist.L2()}, dst[:0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = tree.Search(nil, c, Query{Kind: KNN, Point: pts[i%len(pts)], K: 10, Metric: dist.L2()}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchRangeCtxL2_16d(b *testing.B) {
	tree, pts := benchTree(b, 20000, 16)
	c := NewQueryContext()
	var dst []Neighbor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = tree.Search(nil, c, Query{Kind: Range, Point: pts[i%len(pts)], Radius: 0.5, Metric: dist.L2()}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
