package hybridtree_bench

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridtree/internal/bench"
	"hybridtree/internal/core"
	"hybridtree/internal/dist"
)

// The parallel-read benchmarks compare the pre-refactor single-mutex path
// (bench.SerialTree: every search behind one exclusive lock) against the
// read-parallel concurrent.Tree on one shared fixture. Run with -cpu to
// sweep worker counts, e.g.:
//
//	go test -bench='ReadPath' -cpu=1,4,8 .
//
// Each benchmark reports queries/sec; the interesting number is the ratio
// between the two paths at the same -cpu value.

var (
	tpOnce    sync.Once
	tpFixture *bench.ThroughputFixture
	tpErr     error
)

func throughputFixture(b *testing.B) *bench.ThroughputFixture {
	tpOnce.Do(func() {
		// 40K uniform 16-d points on 4096-byte pages, 256 data-anchored
		// queries — big enough that a k-NN search does real traversal work,
		// small enough to build once in seconds.
		tpFixture, tpErr = bench.NewThroughputFixture(40000, 16, 256, 4096, 1)
	})
	if tpErr != nil {
		b.Fatal(tpErr)
	}
	return tpFixture
}

func reportQPS(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "queries/sec")
	}
}

// BenchmarkReadPathSingleMutexKNN is the old read path: concurrent callers
// serialized behind one exclusive mutex. Throughput stays flat (or
// degrades) as -cpu grows.
func BenchmarkReadPathSingleMutexKNN(b *testing.B) {
	f := throughputFixture(b)
	var i atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := f.Queries[int(i.Add(1))%len(f.Queries)]
			if _, err := f.Serial.SearchKNN(q, 10, dist.L2()); err != nil {
				b.Error(err)
				return
			}
		}
	})
	reportQPS(b)
}

// BenchmarkReadPathParallelKNN is the new read path: searches share a
// reader lock, node caches are sharded, counters are atomic. Throughput
// scales with -cpu.
func BenchmarkReadPathParallelKNN(b *testing.B) {
	f := throughputFixture(b)
	var i atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := f.Queries[int(i.Add(1))%len(f.Queries)]
			if _, err := f.Parallel.SearchKNN(q, 10, dist.L2()); err != nil {
				b.Error(err)
				return
			}
		}
	})
	reportQPS(b)
}

// BenchmarkReadPathSingleMutexBox / BenchmarkReadPathParallelBox are the
// box-query versions of the same comparison.
func BenchmarkReadPathSingleMutexBox(b *testing.B) {
	f := throughputFixture(b)
	var i atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := f.Boxes[int(i.Add(1))%len(f.Boxes)]
			if _, err := f.Serial.SearchBox(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
	reportQPS(b)
}

func BenchmarkReadPathParallelBox(b *testing.B) {
	f := throughputFixture(b)
	var i atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := f.Boxes[int(i.Add(1))%len(f.Boxes)]
			if _, err := f.Parallel.SearchBox(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
	reportQPS(b)
}

var (
	ioOnce    sync.Once
	ioFixture *bench.ThroughputFixture
	ioErr     error
)

func simIOFixture(b *testing.B) *bench.ThroughputFixture {
	ioOnce.Do(func() {
		// Same shape as the in-memory fixture but smaller, with 50µs of
		// simulated latency per page read — the disk-access-bound regime the
		// paper's cost model describes.
		ioFixture, ioErr = bench.NewThroughputFixtureIO(10000, 16, 128, 4096, 2, 50*time.Microsecond)
	})
	if ioErr != nil {
		b.Fatal(ioErr)
	}
	return ioFixture
}

// BenchmarkSimIOColdKNNSingleMutex / BenchmarkSimIOColdKNNParallel rerun
// the single-mutex vs read-parallel comparison with per-read latency and a
// cache drop before every query, so each search pays the full cold-path
// read cost. Here parallelism pays even on one core: concurrent readers
// overlap their simulated I/O waits, while the single mutex serializes
// them.
func BenchmarkSimIOColdKNNSingleMutex(b *testing.B) {
	f := simIOFixture(b)
	var i atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := f.Queries[int(i.Add(1))%len(f.Queries)]
			f.Serial.DropCaches()
			if _, err := f.Serial.SearchKNN(q, 10, dist.L2()); err != nil {
				b.Error(err)
				return
			}
		}
	})
	reportQPS(b)
}

func BenchmarkSimIOColdKNNParallel(b *testing.B) {
	f := simIOFixture(b)
	var i atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := f.Queries[int(i.Add(1))%len(f.Queries)]
			f.Parallel.DropCaches()
			if _, err := f.Parallel.SearchKNN(q, 10, dist.L2()); err != nil {
				b.Error(err)
				return
			}
		}
	})
	reportQPS(b)
}

// BenchmarkSearchKNNBatch measures the batch executor end to end: one call
// fans the whole query slice across the bounded worker pool.
func BenchmarkSearchKNNBatch(b *testing.B) {
	f := throughputFixture(b)
	qs := make([]core.Query, len(f.Queries))
	for i, p := range f.Queries {
		qs[i] = core.Query{Kind: core.KNN, Point: p, K: 10, Metric: dist.L2()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Parallel.SearchBatch(qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(f.Queries))/b.Elapsed().Seconds(), "queries/sec")
}
