package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/pqueue"
)

// Entry is one stored record returned by a search.
type Entry struct {
	Point geom.Point
	RID   RecordID
}

// Neighbor is a search result annotated with its distance to the query.
type Neighbor struct {
	Entry
	Dist float64
}

// The search implementations below are allocation-free on the cached-node
// path: inter-node traversal runs over an explicit pending stack (or the
// best-first frontier heap) of visitRefs whose bounding regions live in the
// QueryContext's rect arena, and the intra-node kd walk is an iterative loop
// over reusable kdFrames instead of a recursive closure. Traversal order —
// and therefore result order and the Stats accounting — is identical to the
// recursive implementation: a node's surviving kd-leaves are pushed in
// reverse kd order so the stack pops them in kd order, exactly the
// depth-first sequence recursion produced.
//
// Instrumentation rides the same loops: traversal counts accumulate as
// plain ints in the context's tally (flushed to shared atomic counters once
// per query), and when a trace is active every visited node gets a span,
// with kd decisions and prune verdicts charged to the span of the node
// where they happened. With tracing off qc.tr is nil and every tr.* call is
// an inlined nil check, which is what keeps TestSearchZeroAlloc at zero.

// getqTraced reads a node for a query. When the query carries a live trace
// it also attributes the fetch + decode wall time to the trace's page-read
// stage; untraced queries take the bare getq call with no clock reads.
func (t *Tree) getqTraced(tr *obs.Trace, id pagefile.PageID, epoch uint64) (*node, bool, error) {
	if tr == nil {
		return t.store.getq(id, epoch)
	}
	t0 := time.Now()
	n, hit, err := t.store.getq(id, epoch)
	tr.AddPageRead(int64(time.Since(t0)))
	return n, hit, err
}

// SearchBox returns every entry whose vector lies inside q (boundaries
// inclusive) — the feature-based bounding-box query of Section 3.5, and the
// query type of the paper's Figures 5 and 6.
func (t *Tree) SearchBox(q geom.Rect) ([]Entry, error) {
	c := t.getCtx()
	defer t.putCtx(c)
	return t.SearchBoxCtx(c, q, nil)
}

// SearchBoxCtx is SearchBox with caller-managed scratch state: results are
// appended to dst (which may be nil or a recycled buffer). A caller that
// reuses both c and dst runs the cached-node query path without allocating.
// On error the entries appended so far remain in the returned slice.
func (t *Tree) SearchBoxCtx(c *QueryContext, q geom.Rect, dst []Entry) ([]Entry, error) {
	return t.SearchBoxContext(nil, c, q, Budget{}, dst)
}

// SearchBoxContext is SearchBoxCtx under a request lifecycle: cancellation
// and the context deadline are checked once per node visit (abandoning the
// query returns ctx.Err() with dst unchanged past its input length), and
// budget exhaustion returns *ErrBudgetExceeded with the entries found so far
// kept in dst — a valid subset of the full answer. A nil ctx and zero
// Budget run the plain unarmed path.
func (t *Tree) SearchBoxContext(ctx context.Context, c *QueryContext, q geom.Rect, b Budget, dst []Entry) ([]Entry, error) {
	if q.Dim() != t.cfg.Dim {
		return dst, fmt.Errorf("core: query has dim %d, tree expects %d", q.Dim(), t.cfg.Dim)
	}
	qc := &c.qc
	qc.acquire(t.cfg.Dim)
	defer qc.release()
	t.pinCtx(qc)
	qc.arm(ctx, b)
	_, start := t.beginQuery(qc, opBox)
	base := len(dst)
	dst, err := t.runBox(qc, q, dst)
	if err != nil {
		if isCtxErr(err) {
			dst = dst[:base]
		} else if be, ok := err.(*ErrBudgetExceeded); ok {
			be.Partial = len(dst) - base
		}
	}
	t.finishQuery(qc, opBox, start, len(dst)-base, err)
	return dst, err
}

// runBox is the box query's traversal loop, shared by SearchBoxCtx and
// ExplainBox (which supplies its own trace via qc.tr).
func (t *Tree) runBox(qc *queryCtx, q geom.Rect, dst []Entry) ([]Entry, error) {
	tr := qc.tr
	pending := append(qc.pending, visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1})
	for len(pending) > 0 {
		if err := qc.checkVisit(opBox); err != nil {
			qc.pending = pending[:0]
			return dst, err
		}
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		n, hit, err := t.getqTraced(tr, v.child, qc.ver.epoch)
		if err != nil {
			qc.pending = pending[:0]
			return dst, err
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if n.leaf {
			qc.tally.scanned += n.count()
			tr.Scan(span, n.count())
			var scan0 time.Time
			if tr != nil {
				scan0 = time.Now()
			}
			// One linear pass over the slab collects the contained indices;
			// the containment test matches geom.Rect.Contains exactly.
			qc.hits = dist.FilterBoxSlab(q.Lo, q.Hi, n.vals, n.dim, qc.hits[:0])
			for _, i := range qc.hits {
				tr.Hit(span)
				dst = append(dst, Entry{Point: n.point(int(i)), RID: n.rids[i]})
			}
			if tr != nil {
				tr.AddCompute(int64(time.Since(scan0)))
			}
			continue
		}
		if n.kdRoot == kdNone {
			continue
		}
		mark := len(pending)
		pending = t.kdWalkBox(qc, n, q, span, pending)
		reverseVisits(pending[mark:])
	}
	qc.pending = pending[:0]
	return dst, nil
}

// kdWalkBox runs the box query's intra-node kd walk over index node n,
// narrowing one boundary of qc.walk per internal record (and re-testing only
// that boundary — the "a boundary is checked only once" property of Section
// 3.1) and appending one visit per surviving kd-leaf, in kd order. Leaves
// pass the second step of the paper's two-step overlap check (the encoded
// live space) before being kept. span is the current node's trace span.
func (t *Tree) kdWalkBox(qc *queryCtx, n *node, q geom.Rect, span int32, pending []visitRef) []visitRef {
	br := qc.walk
	tr := qc.tr
	kd, els, space := n.kd, qc.ver.els, t.cfg.Space
	st := append(qc.frames, kdFrame{idx: n.kdRoot})
	for len(st) > 0 {
		f := &st[len(st)-1]
		k := &kd[f.idx]
		switch f.stage {
		case 0:
			if k.isLeaf() {
				st = st[:len(st)-1]
				live, ok := els.Get(uint32(k.Child), space)
				if ok {
					qc.tally.elsHits++
					tr.ELSHit(span)
					if !live.Intersects(q) {
						qc.tally.elsPrunes++
						tr.ELSPrune(span)
						continue
					}
				}
				qc.tally.descents++
				tr.Descend(span)
				pending = append(pending, visitRef{child: k.Child, slot: qc.arena.put(br), span: span})
				continue
			}
			d := int(k.Dim)
			f.saved = br.Hi[d]
			f.stage = 1
			if k.Lsp < br.Hi[d] {
				br.Hi[d] = k.Lsp
			}
			if q.Lo[d] <= br.Hi[d] && br.Hi[d] >= br.Lo[d] {
				tr.KDLeft(span)
				st = append(st, kdFrame{idx: k.Left})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		case 1:
			d := int(k.Dim)
			br.Hi[d] = f.saved
			f.saved = br.Lo[d]
			f.stage = 2
			if k.Rsp > br.Lo[d] {
				br.Lo[d] = k.Rsp
			}
			if q.Hi[d] >= br.Lo[d] && br.Hi[d] >= br.Lo[d] {
				tr.KDRight(span)
				st = append(st, kdFrame{idx: k.Right})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		default:
			br.Lo[int(k.Dim)] = f.saved
			st = st[:len(st)-1]
		}
	}
	qc.frames = st[:0]
	return pending
}

// SearchPoint returns the record ids stored exactly at p.
func (t *Tree) SearchPoint(p geom.Point) ([]RecordID, error) {
	entries, err := t.SearchBox(geom.Rect{Lo: p, Hi: p})
	if err != nil {
		return nil, err
	}
	rids := make([]RecordID, 0, len(entries))
	for _, e := range entries {
		rids = append(rids, e.RID)
	}
	return rids, nil
}

// SearchRange returns every entry within distance radius of q under metric
// m — the distance-based range query of Section 3.5. The metric is supplied
// per query: nothing about the tree is specialized to it.
func (t *Tree) SearchRange(q geom.Point, radius float64, m dist.Metric) ([]Neighbor, error) {
	c := t.getCtx()
	defer t.putCtx(c)
	return t.SearchRangeCtx(c, q, radius, m, nil)
}

// SearchRangeCtx is SearchRange with caller-managed scratch state and result
// buffer (see SearchBoxCtx). When m has an additive kernel (dist.AsAdditive:
// L1, L2 and their weighted forms) membership and pruning compare sums
// against the radius mapped into sum space, leaf scans abandon a candidate
// once its partial sum exceeds it, and only reported neighbors pay the root.
func (t *Tree) SearchRangeCtx(c *QueryContext, q geom.Point, radius float64, m dist.Metric, dst []Neighbor) ([]Neighbor, error) {
	return t.SearchRangeContext(nil, c, q, radius, m, Budget{}, dst)
}

// SearchRangeContext is SearchRangeCtx under a request lifecycle (see
// SearchBoxContext): ctx abandonment discards partial results and returns
// ctx.Err(); budget exhaustion keeps the neighbors found so far in dst — a
// valid subset of the full answer — and returns *ErrBudgetExceeded.
func (t *Tree) SearchRangeContext(ctx context.Context, c *QueryContext, q geom.Point, radius float64, m dist.Metric, b Budget, dst []Neighbor) ([]Neighbor, error) {
	if len(q) != t.cfg.Dim {
		return dst, fmt.Errorf("core: query has dim %d, tree expects %d", len(q), t.cfg.Dim)
	}
	if radius < 0 {
		return dst, fmt.Errorf("core: negative radius %g", radius)
	}
	qc := &c.qc
	qc.acquire(t.cfg.Dim)
	defer qc.release()
	t.pinCtx(qc)
	qc.arm(ctx, b)
	tr, start := t.beginQuery(qc, opRange)
	base := len(dst)

	mp := dispatch(m)
	bound := mp.space(radius)

	pending := append(qc.pending, visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1})
	for len(pending) > 0 {
		if err := qc.checkVisit(opRange); err != nil {
			qc.pending = pending[:0]
			if isCtxErr(err) {
				dst = dst[:base]
			} else if be, ok := err.(*ErrBudgetExceeded); ok {
				be.Partial = len(dst) - base
			}
			t.finishQuery(qc, opRange, start, len(dst)-base, err)
			return dst, err
		}
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		n, hit, err := t.getqTraced(tr, v.child, qc.ver.epoch)
		if err != nil {
			qc.pending = pending[:0]
			t.finishQuery(qc, opRange, start, len(dst)-base, err)
			return dst, err
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if n.leaf {
			qc.tally.scanned += n.count()
			tr.Scan(span, n.count())
			var scan0 time.Time
			if tr != nil {
				scan0 = time.Now()
			}
			if mp.fast {
				// Batch kernel: one linear pass over the slab with
				// partial-sum abandonment at the bound. Accepted sums
				// (<= bound) root to exactly Metric.Distance.
				out := qc.distSlab(n.count())
				mp.add.SumSlab(q, n.vals, n.dim, bound, out)
				for i, sum := range out {
					if sum <= bound {
						tr.Hit(span)
						dst = append(dst, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: mp.add.Root(sum)})
					}
				}
			} else {
				for i := 0; i < n.count(); i++ {
					if d := m.Distance(q, n.point(i)); d <= bound {
						tr.Hit(span)
						dst = append(dst, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d})
					}
				}
			}
			if tr != nil {
				tr.AddCompute(int64(time.Since(scan0)))
			}
			continue
		}
		if n.kdRoot == kdNone {
			continue
		}
		mark := len(pending)
		pending = t.kdWalkDist(qc, n, q, &mp, bound, false, span, pending)
		reverseVisits(pending[mark:])
	}
	qc.pending = pending[:0]
	t.finishQuery(qc, opRange, start, len(dst)-base, nil)
	return dst, nil
}

// metricPath is a query's one metric dispatch: the additive kernel when the
// metric vouches for one — distances are then compared in its sum space —
// and the generic Metric methods otherwise.
type metricPath struct {
	m    dist.Metric
	add  dist.Additive
	fast bool
}

func dispatch(m dist.Metric) metricPath {
	add, fast := dist.AsAdditive(m)
	return metricPath{m: m, add: add, fast: fast}
}

// space maps a distance bound, or a factor scaling one, into the space the
// path compares in.
func (mp *metricPath) space(b float64) float64 {
	if mp.fast {
		return mp.add.SumBound(b)
	}
	return b
}

// regionDist is the path-space MINDIST from q to br ∩ live — a strictly
// tighter bound than the max of the two separate MINDISTs — or to br alone
// for a child with no encoded live space, and whether the intersection is
// empty. The additive kernel reads both rectangles once, writes nothing and
// stops at a partial sum once that exceeds bound.
func (mp *metricPath) regionDist(q geom.Point, br, live geom.Rect, hasLive bool, bound float64, scratch *geom.Rect) (float64, bool) {
	switch {
	case mp.fast && hasLive:
		return mp.add.SumRectCap(q, br, live, bound)
	case mp.fast:
		return mp.add.SumRectCap(q, br, br, bound)
	case !hasLive:
		return mp.m.MinDistRect(q, br), false
	case !intersectInto(scratch, br, live):
		return 0, true
	}
	return mp.m.MinDistRect(q, *scratch), false
}

// kdWalkDist is the intra-node kd walk of the distance-based queries:
// surviving kd-leaves are those whose region lies within bound (in mp's
// space) of q. The range query appends them to pending in kd order; k-NN
// (frontier set) pushes them onto the best-first frontier with the region's
// MINDIST as priority.
func (t *Tree) kdWalkDist(qc *queryCtx, n *node, q geom.Point, mp *metricPath, bound float64, frontier bool, span int32, pending []visitRef) []visitRef {
	br := qc.walk
	tr := qc.tr
	kd, els, space := n.kd, qc.ver.els, t.cfg.Space
	st := append(qc.frames, kdFrame{idx: n.kdRoot})
	for len(st) > 0 {
		f := &st[len(st)-1]
		k := &kd[f.idx]
		switch f.stage {
		case 0:
			if k.isLeaf() {
				st = st[:len(st)-1]
				live, ok := els.Get(uint32(k.Child), space)
				if ok {
					qc.tally.elsHits++
					tr.ELSHit(span)
				}
				lb, empty := mp.regionDist(q, br, live, ok, bound, &qc.scratch)
				switch {
				case empty:
					qc.tally.elsPrunes++
					tr.ELSPrune(span)
				case !(lb <= bound):
					qc.tally.distPrunes++
					tr.DistPrune(span)
				case frontier:
					qc.tally.heapPushes++
					tr.Descend(span)
					qc.pq.Push(visitRef{child: k.Child, slot: qc.arena.put(br), span: span}, lb)
				default:
					qc.tally.descents++
					tr.Descend(span)
					pending = append(pending, visitRef{child: k.Child, slot: qc.arena.put(br), span: span})
				}
				continue
			}
			d := int(k.Dim)
			f.saved = br.Hi[d]
			f.stage = 1
			if k.Lsp < br.Hi[d] {
				br.Hi[d] = k.Lsp
			}
			if br.Hi[d] >= br.Lo[d] {
				tr.KDLeft(span)
				st = append(st, kdFrame{idx: k.Left})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		case 1:
			d := int(k.Dim)
			br.Hi[d] = f.saved
			f.saved = br.Lo[d]
			f.stage = 2
			if k.Rsp > br.Lo[d] {
				br.Lo[d] = k.Rsp
			}
			if br.Hi[d] >= br.Lo[d] {
				tr.KDRight(span)
				st = append(st, kdFrame{idx: k.Right})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		default:
			br.Lo[int(k.Dim)] = f.saved
			st = st[:len(st)-1]
		}
	}
	qc.frames = st[:0]
	return pending
}

// SearchKNN returns the k entries nearest to q under metric m, closest
// first, using best-first (Hjaltason–Samet) traversal: nodes are expanded
// in order of the MINDIST between q and their (live-space-tightened) BRs,
// stopping when the next node cannot beat the current k-th distance.
func (t *Tree) SearchKNN(q geom.Point, k int, m dist.Metric) ([]Neighbor, error) {
	c := t.getCtx()
	defer t.putCtx(c)
	return t.SearchKNNCtx(c, q, k, m, nil)
}

// SearchKNNCtx is SearchKNN with caller-managed scratch state and result
// buffer (see SearchBoxCtx): the k results are appended to dst.
func (t *Tree) SearchKNNCtx(c *QueryContext, q geom.Point, k int, m dist.Metric, dst []Neighbor) ([]Neighbor, error) {
	return t.searchKNN(nil, c, q, k, m, 0, Budget{}, dst)
}

// SearchKNNContext is SearchKNNCtx under a request lifecycle (see
// SearchBoxContext). Budget exhaustion degrades rather than fails: the
// best-found-so-far neighbors are appended to dst, sorted and with true
// (rooted) distances — a valid answer to a smaller effort — alongside
// the *ErrBudgetExceeded. Context abandonment returns ctx.Err() with dst
// unchanged past its input length.
func (t *Tree) SearchKNNContext(ctx context.Context, c *QueryContext, q geom.Point, k int, m dist.Metric, b Budget, dst []Neighbor) ([]Neighbor, error) {
	return t.searchKNN(ctx, c, q, k, m, 0, b, dst)
}

// searchKNN is the shared exact/(1+epsilon)-approximate best-first search;
// epsilon = 0 is exact. When m has an additive kernel, frontier priorities,
// pruning bounds and leaf scans all work in its sum space (with partial-sum
// early abandonment against the current k-th best) and only the k reported
// results pay the root.
func (t *Tree) searchKNN(ctx context.Context, c *QueryContext, q geom.Point, k int, m dist.Metric, epsilon float64, b Budget, dst []Neighbor) ([]Neighbor, error) {
	if len(q) != t.cfg.Dim {
		return dst, fmt.Errorf("core: query has dim %d, tree expects %d", len(q), t.cfg.Dim)
	}
	if k < 1 {
		return dst, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if epsilon < 0 {
		return dst, fmt.Errorf("core: epsilon %g must be >= 0", epsilon)
	}
	qc := &c.qc
	qc.acquire(t.cfg.Dim)
	defer qc.release()
	t.pinCtx(qc)
	qc.arm(ctx, b)
	tr, start := t.beginQuery(qc, opKNN)
	base := len(dst)

	mp := dispatch(m)
	// shrink scales the pruning bound for approximate search, mapped into
	// the path's space like the bound itself. epsilon = 0 gives shrink = 1,
	// and x*1 == x for floats, so the exact path is untouched.
	shrink := mp.space(1 / (1 + epsilon))

	pq := &qc.pq
	best := qc.kbest(k)
	pq.Push(visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1}, 0)
	for pq.Len() > 0 {
		if lerr := qc.checkVisit(opKNN); lerr != nil {
			if be, ok := lerr.(*ErrBudgetExceeded); ok {
				// Degrade to best-found-so-far: every neighbor in the
				// collector is real, sorted and correctly ranked — it is
				// the exact answer a smaller tree would have given.
				prev := len(dst)
				dst = flushKNN(best, &mp, dst)
				be.Partial = len(dst) - prev
				t.finishQuery(qc, opKNN, start, len(dst)-prev, lerr)
				return dst, lerr
			}
			t.finishQuery(qc, opKNN, start, 0, lerr)
			return dst, lerr
		}
		v, mindist := pq.Pop()
		if best.Full() && mindist > best.Bound()*shrink {
			break
		}
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		n, hit, err := t.getqTraced(tr, v.child, qc.ver.epoch)
		if err != nil {
			t.finishQuery(qc, opKNN, start, 0, err)
			return dst, err
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if n.leaf {
			qc.tally.scanned += n.count()
			tr.Scan(span, n.count())
			var scan0 time.Time
			if tr != nil {
				scan0 = time.Now()
			}
			if mp.fast {
				// Batch kernel against the bound at leaf entry. A candidate
				// whose exact sum beats only the *stale* bound reaches
				// Offer, which rejects it with no state change (priority >=
				// current worst) — exactly the candidates a per-point loop
				// would skip after refreshing the bound, so results and Hit
				// counts are identical to the generic path.
				bound := math.Inf(1)
				if best.Full() {
					bound = best.Bound()
				}
				out := qc.distSlab(n.count())
				mp.add.SumSlab(q, n.vals, n.dim, bound, out)
				for i, sum := range out {
					if sum > bound {
						continue // abandoned or beaten; Offer would reject it
					}
					if best.Offer(Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: sum}, sum) {
						tr.Hit(span)
					}
				}
			} else {
				for i := 0; i < n.count(); i++ {
					d := m.Distance(q, n.point(i))
					if best.Offer(Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d}, d) {
						tr.Hit(span)
					}
				}
			}
			if tr != nil {
				tr.AddCompute(int64(time.Since(scan0)))
			}
			continue
		}
		if n.kdRoot != kdNone {
			// The k-th best moves only in leaf scans, so one bound serves
			// the whole walk.
			bound := math.Inf(1)
			if best.Full() {
				bound = best.Bound() * shrink
			}
			t.kdWalkDist(qc, n, q, &mp, bound, true, span, nil)
		}
	}
	dst = flushKNN(best, &mp, dst)
	t.finishQuery(qc, opKNN, start, len(dst)-base, nil)
	return dst, nil
}

// flushKNN appends the collector's neighbors to dst, closest first,
// converting the additive path's sums back to distances.
func flushKNN(best *pqueue.KBest[Neighbor], mp *metricPath, dst []Neighbor) []Neighbor {
	if dst == nil {
		dst = make([]Neighbor, 0, best.Len())
	}
	base := len(dst)
	dst = best.AppendSorted(dst)
	if mp.fast {
		for i := base; i < len(dst); i++ {
			dst[i].Dist = mp.add.Root(dst[i].Dist)
		}
	}
	return dst
}

// intersectInto writes the intersection of a and b into dst (which must
// have matching dimensionality) and reports whether it is non-empty.
func intersectInto(dst *geom.Rect, a, b geom.Rect) bool {
	for d := range dst.Lo {
		lo, hi := a.Lo[d], a.Hi[d]
		if b.Lo[d] > lo {
			lo = b.Lo[d]
		}
		if b.Hi[d] < hi {
			hi = b.Hi[d]
		}
		if lo > hi {
			return false
		}
		dst.Lo[d], dst.Hi[d] = lo, hi
	}
	return true
}
