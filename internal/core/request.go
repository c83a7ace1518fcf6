package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hybridtree/internal/obs"
)

// Budget bounds one query's resource consumption. Zero fields are unlimited.
// A budget differs from a context deadline in how exhaustion resolves: a
// cancelled or timed-out context abandons the query (its results are
// discarded), while an exhausted budget degrades it — the query returns the
// valid partial answer it had built plus a typed *ErrBudgetExceeded, so a
// k-NN under a page budget yields best-found-so-far instead of nothing.
// This is the enforcement half of the paper's I/O cost model: the model
// predicts pages per query, the budget makes the prediction a hard bound.
type Budget struct {
	// MaxPageReads caps logical node reads (cache hits included, matching
	// the node-visit accounting of Stats and the trace layer).
	MaxPageReads int
	// MaxWallTime caps elapsed time from the first node visit.
	MaxWallTime time.Duration
	// MaxHeapPushes caps k-NN frontier insertions, bounding memory and the
	// O(log n) heap work per visited kd-leaf.
	MaxHeapPushes int
}

// Unlimited reports whether the budget constrains nothing.
func (b Budget) Unlimited() bool {
	return b.MaxPageReads <= 0 && b.MaxWallTime <= 0 && b.MaxHeapPushes <= 0
}

// ErrBudgetExceeded reports that a query exhausted one Budget resource.
// The query's return value still holds a valid partial result; Partial is
// its length. Retrieve it with errors.As.
type ErrBudgetExceeded struct {
	Op       string // "box", "range", "knn"
	Resource string // "page_reads", "wall_time", "heap_pushes"
	Limit    int64
	Used     int64
	Partial  int // entries in the degraded result
}

func (e *ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("core: %s query exceeded %s budget (%d > %d), %d partial results",
		e.Op, e.Resource, e.Used, e.Limit, e.Partial)
}

// arm installs one query's lifecycle bounds on the context. ctx may be nil
// (treated as context.Background()). Capturing ctx.Done() once here keeps
// the per-visit check to a channel poll instead of an interface call.
func (qc *queryCtx) arm(ctx context.Context, b Budget) {
	if ctx != nil {
		qc.ctx = ctx
		qc.done = ctx.Done()
	}
	if b.MaxWallTime > 0 {
		qc.budgetDeadline = time.Now().Add(b.MaxWallTime)
	}
	qc.maxPages = b.MaxPageReads
	qc.maxPushes = b.MaxHeapPushes
}

// disarm clears the lifecycle bounds; acquire calls it so a pooled context
// never carries a previous query's cancellation into the next one.
func (qc *queryCtx) disarm() {
	qc.ctx = nil
	qc.done = nil
	qc.budgetDeadline = time.Time{}
	qc.maxPages = 0
	qc.maxPushes = 0
	qc.visited = 0
}

// checkVisit is the per-node-visit lifecycle gate, called once per traversal
// step before the node is read. For an unarmed query (Background context,
// zero budget) it is a handful of always-false branches — no allocation, no
// syscall — which is what keeps TestSearchZeroAlloc and the tracer overhead
// gate intact. time.Now is consulted only when a wall-time budget is set.
func (qc *queryCtx) checkVisit(kind Kind) error {
	qc.visited++
	if qc.done != nil {
		select {
		case <-qc.done:
			return qc.ctx.Err()
		default:
		}
	}
	if qc.maxPages > 0 && qc.visited > qc.maxPages {
		return &ErrBudgetExceeded{Op: kind.String(), Resource: "page_reads",
			Limit: int64(qc.maxPages), Used: int64(qc.visited)}
	}
	if qc.maxPushes > 0 && qc.tally.heapPushes > qc.maxPushes {
		return &ErrBudgetExceeded{Op: kind.String(), Resource: "heap_pushes",
			Limit: int64(qc.maxPushes), Used: int64(qc.tally.heapPushes)}
	}
	if !qc.budgetDeadline.IsZero() && time.Now().After(qc.budgetDeadline) {
		return &ErrBudgetExceeded{Op: kind.String(), Resource: "wall_time",
			Limit: qc.budgetDeadline.UnixNano(), Used: time.Now().UnixNano()}
	}
	return nil
}

// ClassifyOutcome maps a query error onto the request-outcome taxonomy:
// nil is ok, context errors are cancelled/timeout, a budget error is a
// degraded (partial but valid) answer, everything else is an error.
// Layers above the tree (the concurrent executor, the simulator) reuse it
// so every layer buckets identically.
func ClassifyOutcome(err error) obs.OutcomeKind { return classifyOutcome(err) }

func classifyOutcome(err error) obs.OutcomeKind {
	if err == nil {
		return obs.OutcomeOK
	}
	if errors.Is(err, context.Canceled) {
		return obs.OutcomeCancelled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return obs.OutcomeTimeout
	}
	var be *ErrBudgetExceeded
	if errors.As(err, &be) {
		return obs.OutcomeDegraded
	}
	return obs.OutcomeError
}

// isCtxErr reports whether err means the caller abandoned the query (as
// opposed to the query degrading or failing), in which case partial results
// are discarded.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
