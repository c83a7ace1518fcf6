package concurrent

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/obs"
)

// ctxPool recycles query contexts across batches: each batch worker checks
// one context out for the lifetime of its whole query slice, so every query
// after the worker's first runs on warm scratch state (rect arena, kd-walk
// stacks, frontier heap) without touching the allocator or the pool.
var ctxPool sync.Pool

func getCtx() *core.QueryContext {
	if v := ctxPool.Get(); v != nil {
		return v.(*core.QueryContext)
	}
	return core.NewQueryContext()
}

func putCtx(c *core.QueryContext) { ctxPool.Put(c) }

// batchMetrics are the executor's shared registered instruments. Workers
// observe into unregistered per-worker histograms (atomic adds, but with no
// cross-core contention) and fold them into these with one Merge at worker
// exit, so the hot loop never touches a shared cache line.
type batchMetrics struct {
	batches *obs.Counter
	queries *obs.Counter
	panics  *obs.Counter   // queries that panicked and were isolated
	queryNS *obs.Histogram // per-query latency inside the worker
	waitNS  *obs.Histogram // queue wait: batch submission -> worker dequeues the item
}

var (
	batchMetricsOnce sync.Once
	batchMetricsVal  *batchMetrics
)

func batchObs() *batchMetrics {
	batchMetricsOnce.Do(func() {
		r := obs.Default()
		batchMetricsVal = &batchMetrics{
			batches: r.Counter("concurrent_batches_total"),
			queries: r.Counter("concurrent_batch_queries_total"),
			panics:  r.Counter("concurrent_query_panics_total"),
			queryNS: r.Histogram("concurrent_batch_query_ns"),
			waitNS:  r.Histogram("concurrent_batch_queue_wait_ns"),
		}
	})
	return batchMetricsVal
}

// runIsolated executes one batch item, converting a panic into a per-query
// error. The search path unwinds cleanly under panic: the query context's
// deferred release (which also unpins the item's snapshot) runs, so the
// context survives for the next item.
func runIsolated(c *core.QueryContext, i int, do func(c *core.QueryContext, i int) error) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("concurrent: query %d panicked: %v", i, r)
			panicked = true
		}
	}()
	return do(c, i), false
}

// runBatch fans n work items across a bounded pool of min(GOMAXPROCS, n)
// workers pulling indices from a shared atomic counter. Each worker owns one
// pooled query context for its entire slice, and each item pins its own
// MVCC snapshot independently, so writers commit between queries of a long
// batch instead of starving behind it. The first error stops the
// remaining workers (in-flight items finish); results already produced stay
// in place and the error is returned. A panicking item is isolated: it
// resolves to an error for its own slot, the rest of the batch keeps
// running, and the first panic's error is reported if nothing else failed.
func (t *Tree) runBatch(n int, do func(c *core.QueryContext, i int) error) error {
	m := batchObs()
	m.batches.Inc()
	m.queries.Add(uint64(n))
	submitted := time.Now()
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		c := getCtx()
		defer putCtx(c)
		var query, wait obs.Histogram
		defer func() {
			m.queryNS.Merge(&query)
			m.waitNS.Merge(&wait)
		}()
		var panicErr error
		for i := 0; i < n; i++ {
			begin := time.Now()
			wait.Observe(int64(begin.Sub(submitted)))
			c.SetQueueWait(begin.Sub(submitted))
			err, panicked := runIsolated(c, i, do)
			query.ObserveSince(begin)
			if err != nil {
				if !panicked {
					return err
				}
				m.panics.Inc()
				if panicErr == nil {
					panicErr = err
				}
			}
		}
		return panicErr
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := getCtx()
			defer putCtx(c)
			// Per-worker scratch histograms, folded into the registry once.
			var query, wait obs.Histogram
			defer func() {
				m.queryNS.Merge(&query)
				m.waitNS.Merge(&wait)
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				begin := time.Now()
				wait.Observe(int64(begin.Sub(submitted)))
				c.SetQueueWait(begin.Sub(submitted))
				err, panicked := runIsolated(c, i, do)
				query.ObserveSince(begin)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					if panicked {
						m.panics.Inc()
						continue // isolated: the rest of the batch proceeds
					}
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// SearchBatch answers qs — any mix of kinds — across the worker pool;
// out[i] corresponds to qs[i]. On error, the slice holds whatever queries
// completed before the failure; unfinished slots are nil.
func (t *Tree) SearchBatch(qs []core.Query) ([][]core.Neighbor, error) {
	out := make([][]core.Neighbor, len(qs))
	err := t.runBatch(len(qs), func(c *core.QueryContext, i int) error {
		ns, err := cloned(t.tree.Search(nil, c, qs[i], nil))
		if err != nil {
			return err
		}
		out[i] = ns
		return nil
	})
	return out, err
}
