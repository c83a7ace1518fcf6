package concurrent

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
)

// Admission-control sentinels.
var (
	// ErrShed is returned when the executor rejects a request without
	// running it: the queue was full at submission, or the request's context
	// ended while it waited for a slot. A shed request did no tree work at
	// all.
	ErrShed = errors.New("concurrent: request shed by admission control")

	// ErrClosed is returned for requests submitted after Close.
	ErrClosed = errors.New("concurrent: executor closed")
)

// ExecutorConfig sizes an Executor.
type ExecutorConfig struct {
	// Workers is the number of requests that may run at once (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the requests waiting for a slot (default 2×Workers).
	// A full queue sheds new requests with ErrShed instead of queueing them
	// behind work that would blow their deadlines anyway.
	QueueDepth int
}

func (cfg ExecutorConfig) withDefaults() ExecutorConfig {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	return cfg
}

// ctxPool recycles query contexts across requests, so every request after
// the first runs on warm scratch state (rect arena, kd-walk stacks, frontier
// heap) without touching the allocator.
var ctxPool sync.Pool

func getCtx() *core.QueryContext {
	if v := ctxPool.Get(); v != nil {
		return v.(*core.QueryContext)
	}
	return core.NewQueryContext()
}

func putCtx(c *core.QueryContext) { ctxPool.Put(c) }

// execMetrics is the executor's shared obs bundle.
type execMetrics struct {
	outcomes *obs.Outcomes
	panics   *obs.Counter
	depth    *obs.Gauge // live requests waiting for a slot
}

var (
	execMetricsOnce sync.Once
	execMetricsVal  *execMetrics
)

func execObs() *execMetrics {
	execMetricsOnce.Do(func() {
		r := obs.Default()
		execMetricsVal = &execMetrics{
			outcomes: obs.NewOutcomes(r, "concurrent_request_outcomes_total"),
			panics:   r.Counter("concurrent_executor_panics_total"),
			depth:    r.Gauge("concurrent_executor_queue_depth"),
		}
	})
	return execMetricsVal
}

// Executor is the tree's admission-control front door: two counting
// semaphores under which the request's own goroutine runs the query. Workers
// bounds the requests running at once, QueueDepth the requests waiting for a
// slot. Overload resolves at the edge — a full queue sheds new requests
// immediately (ErrShed) rather than letting latency grow without bound — and
// a waiting request whose context ends sheds at that moment, before it costs
// the tree anything. Every request runs on a pooled QueryContext, is
// panic-isolated, and resolves to exactly one outcome counter in
// concurrent_request_outcomes_total. Close drains: requests already admitted
// still run (or shed when their contexts end), then Close returns.
type Executor struct {
	tree   *Tree
	admit  chan struct{} // one token per admitted request: Workers + QueueDepth
	slots  chan struct{} // one token per running request: Workers
	closed atomic.Bool
	m      *execMetrics
}

// NewExecutor builds the admission gate over t. It starts no goroutine.
func NewExecutor(t *Tree, cfg ExecutorConfig) *Executor {
	cfg = cfg.withDefaults()
	return &Executor{
		tree:  t,
		admit: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		slots: make(chan struct{}, cfg.Workers),
		m:     execObs(),
	}
}

// Do admits fn and blocks until it resolves. fn runs on the calling
// goroutine with a pooled QueryContext, lock-free against the MVCC snapshot
// its search pins (it never blocks behind a writer). The error is fn's own,
// ErrShed (queue full, or ctx ended before a slot came free), ErrClosed, or
// a panic converted to an error: a panic in the search (or in fn itself)
// fails that request alone. The snapshot pin unwinds through the deferred
// release in the layers below; the query context a panic interrupted is
// dropped rather than pooled. Time spent waiting for a slot is attributed
// to the first search fn runs, as its trace's queue wait.
func (e *Executor) Do(ctx context.Context, fn func(c *core.QueryContext) error) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	wait, err := e.acquire(ctx)
	if err != nil {
		e.m.outcomes.Record(obs.OutcomeShed)
		return err
	}
	c := getCtx()
	c.SetQueueWait(wait)
	defer func() {
		if r := recover(); r != nil {
			e.m.panics.Inc()
			err = fmt.Errorf("concurrent: request panicked: %v", r)
		} else {
			c.SetQueueWait(0) // fn ran no search: the wait is not the next request's
			putCtx(c)
		}
		<-e.slots
		<-e.admit
		e.m.outcomes.Record(core.ClassifyOutcome(err))
	}()
	return fn(c)
}

// acquire admits the request and takes a running slot, waiting for one if
// need be, and reports how long it waited (zero, untimed, when a slot was
// free). On nil error the caller holds a token of each semaphore; on error
// it holds neither and did no tree work.
func (e *Executor) acquire(ctx context.Context) (wait time.Duration, err error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	select {
	case e.admit <- struct{}{}:
	default:
		return 0, fmt.Errorf("%w: queue full", ErrShed)
	}
	held := true
	select {
	case e.slots <- struct{}{}:
	default:
		// A released slot goes to a waiter, never to a newcomer: while
		// anyone waits the channel is full, so the select above fails.
		e.m.depth.Add(1)
		begin := time.Now()
		select {
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			held = false
		}
		wait = time.Since(begin)
		e.m.depth.Add(-1)
	}
	// Deadline-aware shedding: a request whose context ended before it got
	// to run sheds instead of charging the tree, slot in hand or not (the
	// select picks at random when a slot and the end arrive together).
	if err := ctx.Err(); err != nil {
		if held {
			<-e.slots
		}
		<-e.admit
		return 0, fmt.Errorf("%w: %v while queued", ErrShed, err)
	}
	return wait, nil
}

// Search runs q through the executor, bounded by ctx and q.Budget. Degraded
// results (budget exhausted) are returned alongside their
// *core.ErrBudgetExceeded.
func (e *Executor) Search(ctx context.Context, q core.Query) ([]core.Neighbor, error) {
	var out []core.Neighbor
	err := e.Do(ctx, func(c *core.QueryContext) (err error) {
		out, err = cloned(e.tree.tree.Search(ctx, c, q, nil))
		return err
	})
	return out, err
}

// SearchKNN is Search for a budgeted k-NN.
func (e *Executor) SearchKNN(ctx context.Context, q geom.Point, k int, m dist.Metric, b core.Budget) ([]core.Neighbor, error) {
	return e.Search(ctx, core.Query{Kind: core.KNN, Point: q, K: k, Metric: m, Budget: b})
}

// SearchRange is Search for a budgeted range query.
func (e *Executor) SearchRange(ctx context.Context, q geom.Point, radius float64, m dist.Metric, b core.Budget) ([]core.Neighbor, error) {
	return e.Search(ctx, core.Query{Kind: core.Range, Point: q, Radius: radius, Metric: m, Budget: b})
}

// SearchBox is Search for a budgeted box query, narrowed to entries.
func (e *Executor) SearchBox(ctx context.Context, q geom.Rect, b core.Budget) ([]core.Entry, error) {
	return core.Entries(e.Search(ctx, core.Query{Kind: core.Box, Rect: q, Budget: b}))
}

// Close stops admission (subsequent Do calls return ErrClosed) and waits
// for every admitted request, running or waiting, to resolve: once Close
// holds every admission token, no request does. A Do that read closed just
// before the flag flipped either got its token first, and Close waits for
// it, or finds none left and sheds.
func (e *Executor) Close() {
	if e.closed.Swap(true) {
		return
	}
	for i := 0; i < cap(e.admit); i++ {
		e.admit <- struct{}{}
	}
}
