package concurrent

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
)

// panicMetric panics on every distance call — the fault the panic-isolation
// tests inject through the public search API.
type panicMetric struct{}

func (panicMetric) Name() string                     { return "panic" }
func (panicMetric) Distance(a, b geom.Point) float64 { panic("injected metric panic") }
func (panicMetric) MinDistRect(p geom.Point, r geom.Rect) float64 {
	panic("injected metric panic")
}

// waiting is the number of admitted requests not yet holding a running slot.
// It is exact once the requests it counts have parked (an admitted request
// counts as waiting for the instant between its two tokens).
func (e *Executor) waiting() int { return len(e.admit) - len(e.slots) }

// awaitWaiting polls until n requests wait for a slot.
func awaitWaiting(t *testing.T, e *Executor, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for e.waiting() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests waiting, want %d", e.waiting(), n)
		}
		runtime.Gosched()
	}
}

// TestExecutorStartsNoGoroutines: admission is a pair of semaphores, not a
// worker pool — the request's own goroutine runs the query.
func TestExecutorStartsNoGoroutines(t *testing.T) {
	tree, pts := buildTree(t, 4, 500, 512)
	defer tree.Close()
	before := runtime.NumGoroutine()
	e := NewExecutor(tree, ExecutorConfig{Workers: 8, QueueDepth: 16})
	if _, err := e.SearchKNN(context.Background(), pts[0], 5, dist.L2(), core.Budget{}); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines: %d before NewExecutor, %d after a query", before, got)
	}
	e.Close()
}

func TestExecutorShedsWhenQueueFull(t *testing.T) {
	tree, pts := buildTree(t, 4, 500, 512)
	defer tree.Close()
	// One running slot, depth-1 queue, and the slot held by a blocking task:
	// the queue fills deterministically.
	e := NewExecutor(tree, ExecutorConfig{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(1)
	go func() {
		defer wedged.Done()
		_ = e.Do(context.Background(), func(c *core.QueryContext) error {
			close(started)
			<-block
			return nil
		})
	}()
	<-started

	// Fill the queue (one slot), then watch the next submit shed.
	var queued sync.WaitGroup
	queued.Add(1)
	go func() {
		defer queued.Done()
		_, _ = e.SearchKNN(context.Background(), pts[0], 5, dist.L2(), core.Budget{})
	}()
	awaitWaiting(t, e, 1)

	_, err := e.SearchKNN(context.Background(), pts[1], 5, dist.L2(), core.Budget{})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}

	close(block)
	queued.Wait()
	wedged.Wait()
	e.Close()
}

func TestExecutorShedsExpiredDeadlineWhileQueued(t *testing.T) {
	tree, _ := buildTree(t, 4, 500, 512)
	defer tree.Close()
	e := NewExecutor(tree, ExecutorConfig{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	started := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(1)
	go func() {
		defer wedged.Done()
		_ = e.Do(context.Background(), func(c *core.QueryContext) error {
			close(started)
			<-block
			return nil
		})
	}()
	<-started

	// This request waits behind the wedge. Its context ends while the slot
	// is still held, and it must shed at that moment — not run, and not
	// wait for the slot to come free first.
	ctx, cancel := context.WithCancel(context.Background())
	var ran bool
	shed := make(chan error, 1)
	go func() {
		shed <- e.Do(ctx, func(c *core.QueryContext) error {
			ran = true
			return nil
		})
	}()
	awaitWaiting(t, e, 1)
	cancel()
	select {
	case err := <-shed:
		if !errors.Is(err, ErrShed) {
			t.Fatalf("err = %v, want ErrShed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued request still waiting after its context ended")
	}
	if ran {
		t.Fatal("expired request ran anyway")
	}
	if n := e.waiting(); n != 0 {
		t.Fatalf("%d requests waiting after the shed, want 0", n)
	}

	// A context that has already ended sheds even when a slot is free.
	close(block)
	wedged.Wait()
	err := e.Do(ctx, func(c *core.QueryContext) error { ran = true; return nil })
	if !errors.Is(err, ErrShed) || ran {
		t.Fatalf("ended context on an idle executor: err = %v, ran = %v; want ErrShed, false", err, ran)
	}
	e.Close()
}

func TestExecutorPanicIsolation(t *testing.T) {
	tree, pts := buildTree(t, 4, 500, 512)
	defer tree.Close()
	e := NewExecutor(tree, ExecutorConfig{Workers: 2, QueueDepth: 4})
	defer e.Close()

	_, err := e.SearchKNN(context.Background(), pts[0], 5, panicMetric{}, core.Budget{})
	if err == nil || errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want panic-converted error", err)
	}

	// The slot was released and no lock leaked: a normal query and a
	// mutation both still go through.
	ns, err := e.SearchKNN(context.Background(), pts[1], 5, dist.L2(), core.Budget{})
	if err != nil || len(ns) != 5 {
		t.Fatalf("post-panic query: %v (%d results)", err, len(ns))
	}
	if err := tree.Insert(pts[0], core.RecordID(99999)); err != nil {
		t.Fatalf("post-panic insert (write lock): %v", err)
	}
}

func TestExecutorCloseDrains(t *testing.T) {
	tree, pts := buildTree(t, 4, 500, 512)
	defer tree.Close()
	e := NewExecutor(tree, ExecutorConfig{Workers: 2, QueueDepth: 8})

	const n = 16
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.SearchKNN(context.Background(), pts[i], 5, dist.L2(), core.Budget{})
		}(i)
	}
	wg.Wait()
	e.Close()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrShed) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := e.Do(context.Background(), func(c *core.QueryContext) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Do: err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	e.Close()

	// Close waits for what it admitted: a running request and one waiting
	// behind it both resolve before Close returns, and the waiter runs.
	e = NewExecutor(tree, ExecutorConfig{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int32
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = e.Do(context.Background(), func(*core.QueryContext) error { close(started); <-block; ran.Add(1); return nil })
	}()
	<-started
	go func() {
		defer wg.Done()
		_ = e.Do(context.Background(), func(*core.QueryContext) error { ran.Add(1); return nil })
	}()
	awaitWaiting(t, e, 1)
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a request running and one waiting")
	case <-time.After(20 * time.Millisecond):
	}
	close(block)
	<-closed
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d admitted requests ran before Close returned, want 2", n)
	}
	wg.Wait()
}

// TestExecutorNoGoroutineLeak bounds goroutine growth across executor
// lifecycles.
func TestExecutorNoGoroutineLeak(t *testing.T) {
	tree, pts := buildTree(t, 4, 500, 512)
	defer tree.Close()
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		e := NewExecutor(tree, ExecutorConfig{Workers: 4, QueueDepth: 8})
		for i := 0; i < 8; i++ {
			_, _ = e.SearchKNN(context.Background(), pts[i], 3, dist.L2(), core.Budget{})
		}
		e.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
		runtime.GC()
	}
}

// lastTrace hands every operation a fresh trace and keeps the latest one.
type lastTrace struct {
	mu sync.Mutex
	tr *obs.Trace
}

func (l *lastTrace) StartTrace(op string) *obs.Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tr = obs.NewTrace(op)
	return l.tr
}

func (l *lastTrace) last() *obs.Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tr
}

// TestExecutorQueueWaitInTrace: a served request that waited for a slot
// reports the wait as its trace's queue-wait stage, and a request that
// waited but ran no search leaves no wait on its pooled context for the
// next request to report.
func TestExecutorQueueWaitInTrace(t *testing.T) {
	const hold = 5 * time.Millisecond
	rec := &lastTrace{}
	core.SetDefaultTracer(rec)
	tree, pts := buildTree(t, 4, 500, 512)
	core.SetDefaultTracer(nil)
	defer tree.Close()
	e := NewExecutor(tree, ExecutorConfig{Workers: 1, QueueDepth: 1})
	defer e.Close()

	// waitBehind runs fn as a request that waits while another holds the
	// only slot for 2×hold after the first one was admitted.
	waitBehind := func(fn func(*core.QueryContext) error) error {
		holding, release := make(chan struct{}), make(chan struct{})
		held, done := make(chan error, 1), make(chan error, 1)
		go func() {
			held <- e.Do(context.Background(), func(*core.QueryContext) error { close(holding); <-release; return nil })
		}()
		<-holding
		go func() { done <- e.Do(context.Background(), fn) }()
		awaitWaiting(t, e, 1)
		time.Sleep(2 * hold)
		close(release)
		return errors.Join(<-held, <-done)
	}
	q := core.Query{Kind: core.KNN, Point: pts[0], K: 5, Metric: dist.L2()}
	search := func(c *core.QueryContext) error {
		_, err := tree.tree.Search(context.Background(), c, q, nil)
		return err
	}
	if err := waitBehind(search); err != nil {
		t.Fatal(err)
	}
	if s := rec.last().Stages; s == nil || s.QueueWaitNs < int64(hold) {
		t.Fatalf("waiting request's stages %+v, want queue wait >= %v", s, hold)
	}

	// The pooled context a searchless waiter ran on, searched on next
	// (nothing else runs), must carry no queue wait.
	var pooled *core.QueryContext
	if err := waitBehind(func(c *core.QueryContext) error { pooled = c; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := search(pooled); err != nil {
		t.Fatal(err)
	}
	if s := rec.last().Stages; s != nil && s.QueueWaitNs != 0 {
		t.Fatalf("next search on the waiter's context reports queue wait %v", time.Duration(s.QueueWaitNs))
	}
}

func TestExecutorBudgetDegradesThroughStack(t *testing.T) {
	tree, pts := buildTree(t, 6, 3000, 512)
	defer tree.Close()
	e := NewExecutor(tree, ExecutorConfig{Workers: 2, QueueDepth: 4})
	defer e.Close()

	ns, err := e.SearchKNN(context.Background(), pts[0], 10, dist.L2(), core.Budget{MaxPageReads: 3})
	var be *core.ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *core.ErrBudgetExceeded", err)
	}
	if len(ns) != be.Partial {
		t.Fatalf("degraded results %d != Partial %d", len(ns), be.Partial)
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Dist < ns[i-1].Dist {
			t.Fatalf("degraded results unsorted at %d", i)
		}
	}
}

// TestExecutorQueuedDeadlineShedVsClose saturates the queue with requests
// whose deadlines expire while they wait, then races Close against the
// drain. Whatever interleaving the scheduler picks, every submitted task
// must resolve to exactly one verdict — success, its own query error,
// ErrShed (queue full or expired-while-queued), or ErrClosed — and the
// outcome counters must account for every admitted request. Run under
// -race this also proves the submit-vs-close and drain paths share no
// unsynchronized state.
func TestExecutorQueuedDeadlineShedVsClose(t *testing.T) {
	tree, pts := buildTree(t, 4, 500, 512)
	defer tree.Close()

	const rounds = 8
	const submitters = 32
	for round := 0; round < rounds; round++ {
		e := NewExecutor(tree, ExecutorConfig{Workers: 1, QueueDepth: 2})

		// Hold the only slot so the queue saturates and queued deadlines
		// expire behind it.
		block := make(chan struct{})
		started := make(chan struct{})
		var wedged sync.WaitGroup
		wedged.Add(1)
		go func() {
			defer wedged.Done()
			_ = e.Do(context.Background(), func(c *core.QueryContext) error {
				close(started)
				<-block
				return nil
			})
		}()
		<-started

		verdicts := make([]error, submitters)
		delivered := make([]int32, submitters)
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%3)*time.Millisecond)
				defer cancel()
				_, err := e.SearchKNN(ctx, pts[i%len(pts)], 3, dist.L2(), core.Budget{})
				verdicts[i] = err
				atomic.AddInt32(&delivered[i], 1)
			}(i)
		}

		// Let the deadlines lapse while the queue is saturated, then race
		// the unwedge against Close.
		time.Sleep(5 * time.Millisecond)
		var closing sync.WaitGroup
		closing.Add(1)
		go func() {
			defer closing.Done()
			e.Close()
		}()
		close(block)
		wg.Wait()
		closing.Wait()
		wedged.Wait()

		for i := 0; i < submitters; i++ {
			if n := atomic.LoadInt32(&delivered[i]); n != 1 {
				t.Fatalf("round %d: task %d delivered %d verdicts, want exactly 1", round, i, n)
			}
			err := verdicts[i]
			switch {
			case err == nil:
			case errors.Is(err, ErrShed):
			case errors.Is(err, ErrClosed):
			case errors.Is(err, context.DeadlineExceeded):
			default:
				t.Fatalf("round %d: task %d: unexpected verdict %v", round, i, err)
			}
		}
		// Post-close: admission stays shut, no hangs.
		if err := e.Do(context.Background(), func(c *core.QueryContext) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: post-close Do: err = %v, want ErrClosed", round, err)
		}
	}
}

// TestSearchZeroAlloc is core's zero-allocation property seen through the
// front door: on a warm pool, Executor.Search allocates the answer — the
// result slice and one cloned point per result — and nothing else; the
// admission gate, the pooled context and the Query value cost no allocation.
func TestSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool are not exact under -race")
	}
	tree, pts := buildTree(t, 6, 3000, 512)
	defer tree.Close()
	e := NewExecutor(tree, ExecutorConfig{Workers: 1})
	defer e.Close()
	const k = 10
	ctx := context.Background()
	q := core.Query{Kind: core.KNN, Point: pts[0], K: k, Metric: dist.L2()}
	run := func() {
		if ns, err := e.Search(ctx, q); err != nil || len(ns) != k {
			t.Fatalf("%d results, err %v", len(ns), err)
		}
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != k+1 {
		t.Errorf("Executor.Search: %v allocs/op for %d results, want %d", got, k, k+1)
	}
}
