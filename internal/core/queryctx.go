package core

import (
	"context"
	"time"

	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/pqueue"
)

// QueryContext carries the reusable scratch state of one in-flight search:
// a rectangle arena, the kd-walk frame stack, the pending-visit stack, the
// best-first frontier heap and the k-best collector. A context may be reused
// across any number of queries (of any dimensionality and query type) but
// must never be used by two searches at once; the plain search methods pull
// one from a per-tree sync.Pool, while the concurrent executor holds one per
// admitted request. A warm context makes the
// cached-node query path allocation-free except for the result slice, which
// the *Ctx search variants let the caller recycle too.
type QueryContext struct {
	qc queryCtx
}

// NewQueryContext returns an empty context; it sizes itself lazily on first
// use and is not tied to any particular tree.
func NewQueryContext() *QueryContext { return &QueryContext{} }

// SetQueueWait attributes d of executor queue wait (admission to a running
// slot) to the next query run on this context. The executor calls it before
// running each admitted request; the next beginQuery folds it into that
// query's trace (when tracing is on) and clears it either way.
func (c *QueryContext) SetQueueWait(d time.Duration) { c.qc.queueWait = d }

// getCtx takes a context from the tree's pool (allocating on a cold pool).
func (t *Tree) getCtx() *QueryContext {
	if v := t.qcPool.Get(); v != nil {
		return v.(*QueryContext)
	}
	return NewQueryContext()
}

// putCtx returns a context to the pool for the next query.
func (t *Tree) putCtx(c *QueryContext) { t.qcPool.Put(c) }

// visitRef is one pending subtree visit: a child page plus the arena slot
// holding its mapped bounding region. span is the trace-span index of the
// node that enqueued the visit (-1 at the root, and ignored entirely when
// the query is untraced).
type visitRef struct {
	child pagefile.PageID
	slot  int32
	span  int32
}

// kdFrame is one suspended position of the iterative intra-node kd walk.
// stage 0 = node not yet expanded; 1 = left subtree done (upper boundary
// still narrowed); 2 = right subtree done (lower boundary still narrowed).
// saved holds the boundary coordinate the current stage must restore.
type kdFrame struct {
	idx   int32
	stage uint8
	saved float32
}

// queryCtx is the inner, unexported state of a QueryContext.
type queryCtx struct {
	dim  int
	busy bool // guards against concurrent use of one context

	arena   rectArena
	frames  []kdFrame
	pending []visitRef
	pq      pqueue.Min[visitRef]
	best    *pqueue.KBest[Neighbor]

	// walk is the current node's mutable bounding region (narrowed and
	// restored one boundary at a time during the kd walk); near is the
	// query point clamped into it (kept by distance walks with an additive
	// kernel); scratch holds walk ∩ live-space intersections. All three view
	// the coords backing array.
	walk    geom.Rect
	near    geom.Point
	scratch geom.Rect
	coords  []float32

	// Leaf-scan scratch for the slab batch kernels: dists receives one
	// additive-kernel sum per leaf point, hits the indices a box filter kept.
	// Both grow to the query's high-water leaf size and are then reused.
	dists []float64
	hits  []int32

	// MVCC snapshot state: ver is the pinned tree version this query
	// traverses, pin the reader-pin slot keeping its node versions alive.
	// pinStart/pinObs/pinGauge carry the pin-duration instrumentation when
	// metrics are on. Set by Tree.pinCtx, cleared by release.
	ver      *treeVersion
	pin      *pinSlot
	pinStart time.Time
	pinObs   *obs.Histogram
	pinGauge *obs.Gauge

	// tally accumulates this query's traversal counts as plain ints
	// (flushed to shared atomic counters once per query); tr is the
	// query's trace, nil when tracing is off. queueWait is executor queue
	// time attributed by SetQueueWait before the query starts; beginQuery
	// transfers it into the trace's stage set and clears it. See metrics.go.
	tally     tally
	tr        *obs.Trace
	queueWait time.Duration

	// Request-lifecycle bounds, set by arm and consulted by checkVisit once
	// per node visit; all zero for a plain (Background, unbudgeted) query.
	// See request.go.
	ctx            context.Context
	done           <-chan struct{}
	budgetDeadline time.Time
	maxPages       int
	maxPushes      int
	visited        int
}

// acquire readies the context for one query of the given dimensionality.
// It panics when the context is already driving another search: sharing a
// context between concurrent queries would silently corrupt both.
func (qc *queryCtx) acquire(dim int) {
	if qc.busy {
		panic("core: QueryContext used by two searches at once")
	}
	qc.busy = true
	if qc.dim != dim {
		qc.dim = dim
		qc.coords = make([]float32, 5*dim)
		qc.walk = geom.Rect{Lo: qc.coords[0:dim], Hi: qc.coords[dim : 2*dim]}
		qc.scratch = geom.Rect{Lo: qc.coords[2*dim : 3*dim], Hi: qc.coords[3*dim : 4*dim]}
		qc.near = qc.coords[4*dim : 5*dim]
	}
	qc.arena.reset(dim)
	qc.frames = qc.frames[:0]
	qc.pending = qc.pending[:0]
	qc.pq.Reset()
	qc.disarm()
}

// pinCtx pins the current snapshot into qc: it claims a reader-pin slot
// first and loads the published tree version second — that order, against
// the committing writer's publish-then-scan, is what makes reclamation safe
// (see store.pin). Zero locks, zero allocations.
func (t *Tree) pinCtx(qc *queryCtx) *treeVersion {
	sl, _ := t.store.pin()
	qc.pin = sl
	v := t.current.Load()
	qc.ver = v
	if m := t.metrics; m != nil {
		m.mvccPins.Add(1)
		qc.pinGauge = m.mvccPins
		qc.pinObs = m.mvccPinNs
		qc.pinStart = time.Now()
	}
	return v
}

// release unpins the context's snapshot (letting its epoch drain) and marks
// the context idle again.
func (qc *queryCtx) release() {
	if qc.pin != nil {
		qc.pin.v.Store(0)
		qc.pin = nil
		if qc.pinGauge != nil {
			qc.pinGauge.Add(-1)
			qc.pinGauge = nil
		}
		if qc.pinObs != nil {
			qc.pinObs.Observe(int64(time.Since(qc.pinStart)))
			qc.pinObs = nil
		}
	}
	qc.ver = nil
	qc.busy = false
}

// distSlab returns the context's distance-output buffer with room for n
// leaf entries, growing it only past the previous high-water mark.
func (qc *queryCtx) distSlab(n int) []float64 {
	if cap(qc.dists) < n {
		qc.dists = make([]float64, n)
	}
	return qc.dists[:n]
}

// kbest returns the context's k-best collector, reset for a fresh query;
// the collector is rebuilt only when k changes.
func (qc *queryCtx) kbest(k int) *pqueue.KBest[Neighbor] {
	if qc.best == nil || qc.best.K() != k {
		qc.best = pqueue.NewKBest[Neighbor](k)
	} else {
		qc.best.Reset()
	}
	return qc.best
}

// rectArena stores the bounding regions of pending visits as index-addressed
// slots in one flat backing array: slot s occupies
// buf[2*s*dim : 2*(s+1)*dim], lower corner first. Replacing every per-visit
// geom.Rect clone (two slice allocations) with a copy into a slot is what
// removes the traversal's allocation-per-node behavior; the arena itself
// grows to a query's high-water mark once and is then reused verbatim by
// every later query on the same context.
type rectArena struct {
	dim  int
	buf  []float32
	free []int32
	top  int32
}

// reset prepares the arena for a new query, keeping its backing storage
// when the dimensionality is unchanged.
func (a *rectArena) reset(dim int) {
	if a.dim != dim {
		a.dim = dim
		a.buf = a.buf[:0:0]
	}
	a.top = 0
	a.free = a.free[:0]
}

// put copies r into a free slot and returns the slot index.
func (a *rectArena) put(r geom.Rect) int32 {
	var s int32
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		s = a.top
		a.top++
		if need := int(a.top) * 2 * a.dim; need > len(a.buf) {
			a.buf = append(a.buf, make([]float32, need-len(a.buf))...)
		}
	}
	off := int(s) * 2 * a.dim
	copy(a.buf[off:off+a.dim], r.Lo)
	copy(a.buf[off+a.dim:off+2*a.dim], r.Hi)
	return s
}

// copyOut copies slot s into dst, whose corners must already have the
// arena's dimensionality.
func (a *rectArena) copyOut(s int32, dst geom.Rect) {
	off := int(s) * 2 * a.dim
	copy(dst.Lo, a.buf[off:off+a.dim])
	copy(dst.Hi, a.buf[off+a.dim:off+2*a.dim])
}

// release returns slot s to the free list.
func (a *rectArena) release(s int32) { a.free = append(a.free, s) }

// reverseVisits flips a just-appended run of visits so that popping the
// pending stack yields them in kd order — the same depth-first order the
// recursive implementation produced.
func reverseVisits(v []visitRef) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}
