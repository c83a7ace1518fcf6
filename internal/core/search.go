package core

import (
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

// depthFirst is the traversal of the box and range queries: an explicit
// pending stack of subtree visits popped in kd order. The leaf scan is the
// only place the two kinds differ. A non-nil visit (box only) receives each
// hit instead of dst and stops the walk by returning false; streamed counts
// the hits it was handed.
func (t *Tree) depthFirst(qc *queryCtx, q *Query, dst []Neighbor, visit func(Entry) bool) (_ []Neighbor, streamed int, _ error) {
	tr := qc.tr
	var mp metricPath
	var bound float64
	if q.Kind == Range {
		// With an additive kernel (dist.AsAdditive: L1, L2 and their
		// weighted forms) membership and pruning compare sums against the
		// radius mapped into sum space; only reported neighbors pay the root.
		mp = dispatch(q.Metric)
		bound = mp.space(q.Radius)
	}
	qc.pending = append(qc.pending, visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1})
	for len(qc.pending) > 0 {
		if err := qc.checkVisit(q.Kind); err != nil {
			return dst, streamed, err
		}
		v := qc.pending[len(qc.pending)-1]
		qc.pending = qc.pending[:len(qc.pending)-1]
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		n, hit, err := t.getqTraced(tr, v.child, qc.ver.epoch)
		if err != nil {
			return dst, streamed, err
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if !n.leaf {
			if n.kdRoot != kdNone {
				mark := len(qc.pending)
				t.kdWalk(qc, n, q, &mp, bound, span)
				reverseVisits(qc.pending[mark:])
			}
			continue
		}
		qc.tally.scanned += n.count()
		tr.Scan(span, n.count())
		var scan0 time.Time
		if tr != nil {
			scan0 = time.Now()
		}
		switch {
		case q.Kind == Box:
			// One linear pass over the slab collects the contained indices;
			// the containment test matches geom.Rect.Contains exactly.
			qc.hits = dist.FilterBoxSlab(q.Rect.Lo, q.Rect.Hi, n.vals, n.dim, qc.hits[:0])
			for _, i := range qc.hits {
				tr.Hit(span)
				e := Entry{Point: n.point(int(i)), RID: n.rids[i]}
				if visit == nil {
					dst = append(dst, Neighbor{Entry: e})
					continue
				}
				streamed++
				if !visit(e) {
					return dst, streamed, nil
				}
			}
		case mp.fast:
			// Batch kernel: one linear pass over the slab with partial-sum
			// abandonment at the bound. Accepted sums (<= bound) root to
			// exactly Metric.Distance.
			out := qc.distSlab(n.count())
			mp.add.SumSlab(q.Point, n.vals, n.dim, bound, out)
			for i, sum := range out {
				if sum <= bound {
					tr.Hit(span)
					dst = append(dst, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: mp.add.Root(sum)})
				}
			}
		default:
			for i := 0; i < n.count(); i++ {
				if d := q.Metric.Distance(q.Point, n.point(i)); d <= bound {
					tr.Hit(span)
					dst = append(dst, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d})
				}
			}
		}
		if tr != nil {
			tr.AddCompute(int64(time.Since(scan0)))
		}
	}
	return dst, streamed, nil
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

// regionDist is the generic-metric MINDIST from q to br ∩ live — a
// strictly tighter bound than the max of the two separate MINDISTs — or to
// br alone for a child with no encoded live space, and whether the
// intersection is empty. Additive metrics take the fused kernel instead
// (see kdWalk).
func (mp *metricPath) regionDist(q geom.Point, br, live geom.Rect, hasLive bool, scratch *geom.Rect) (float64, bool) {
	switch {
	case !hasLive:
		return mp.m.MinDistRect(q, br), false
	case !intersectInto(scratch, br, live):
		return 0, true
	}
	return mp.m.MinDistRect(q, *scratch), false
}

// kdWalk is the intra-node kd walk over index node n, shared by all three
// kinds: it narrows one boundary of qc.walk per internal record (re-testing
// only that boundary — the "a boundary is checked only once" property of
// Section 3.1) and keeps the kd-leaves the query can reach. A box keeps a
// leaf whose encoded live space it intersects (the second step of the
// paper's two-step overlap check); the distance queries keep one whose
// region lies within bound (in mp's space) of the point. Box and range
// append survivors to qc.pending in kd order; k-NN pushes them onto the
// best-first frontier with the region's MINDIST as priority.
//
// With an additive kernel the walk also keeps near, the query point
// clamped into br: computed once on entry, then re-clamped in the one
// dimension a kd step narrows or restores, so at every kd leaf near is
// exactly q clamped into br and the fused kernel clamps it into the live
// space alone. Box walks (mp.fast is false for them) skip the bookkeeping.
func (t *Tree) kdWalk(qc *queryCtx, n *node, q *Query, mp *metricPath, bound float64, span int32) {
	br, near, qp := qc.walk, qc.near, q.Point
	tr := qc.tr
	box, fast := q.Kind == Box, mp.fast
	rect := q.Rect
	if fast {
		for d := range near {
			near[d] = clampTo(qp[d], br.Lo[d], br.Hi[d])
		}
	}
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
				var lb float64
				var empty bool
				switch {
				case box:
					empty = ok && !live.Intersects(rect)
				case fast:
					if !ok {
						live = br
					}
					lb, empty = mp.add.SumRectCap(qp, near, br, live, bound)
				default:
					lb, empty = mp.regionDist(qp, br, live, ok, &qc.scratch)
				}
				switch {
				case empty:
					qc.tally.elsPrunes++
					tr.ELSPrune(span)
				case !(lb <= bound):
					qc.tally.distPrunes++
					tr.DistPrune(span)
				case q.Kind == KNN:
					qc.tally.heapPushes++
					tr.Descend(span)
					qc.pq.Push(visitRef{child: k.Child, slot: qc.arena.put(br), span: span}, lb)
				default:
					qc.tally.descents++
					tr.Descend(span)
					qc.pending = append(qc.pending, visitRef{child: k.Child, slot: qc.arena.put(br), span: span})
				}
				continue
			}
			d := int(k.Dim)
			f.saved = br.Hi[d]
			f.stage = 1
			if k.Lsp < br.Hi[d] {
				br.Hi[d] = k.Lsp
			}
			if br.Hi[d] >= br.Lo[d] && (!box || rect.Lo[d] <= br.Hi[d]) {
				if fast {
					near[d] = clampTo(qp[d], br.Lo[d], br.Hi[d])
				}
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
			if br.Hi[d] >= br.Lo[d] && (!box || rect.Hi[d] >= br.Lo[d]) {
				if fast {
					near[d] = clampTo(qp[d], br.Lo[d], br.Hi[d])
				}
				tr.KDRight(span)
				st = append(st, kdFrame{idx: k.Right})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		default:
			d := int(k.Dim)
			br.Lo[d] = f.saved
			if fast {
				near[d] = clampTo(qp[d], br.Lo[d], br.Hi[d])
			}
			st = st[:len(st)-1]
		}
	}
	qc.frames = st[:0]
}

// clampTo is v clamped into [lo, hi].
func clampTo(v, lo, hi float32) float32 { return min(max(v, lo), hi) }

// bestFirst is the k-NN traversal (Hjaltason–Samet): nodes are expanded in
// order of the MINDIST between the query point and their
// (live-space-tightened) BRs, stopping when the next node cannot beat the
// current k-th distance — shrunk by 1/(1+Epsilon) for approximate search.
// When the metric has an additive kernel, frontier priorities, pruning
// bounds and leaf scans all work in its sum space (with partial-sum early
// abandonment against the current k-th best) and only the k reported
// results pay the root. A budget error ends the walk early and still
// flushes: every neighbor in the collector is real, sorted and correctly
// ranked — the exact answer a smaller tree would have given.
func (t *Tree) bestFirst(qc *queryCtx, q *Query, dst []Neighbor) ([]Neighbor, error) {
	tr := qc.tr
	mp := dispatch(q.Metric)
	// shrink scales the pruning bound for approximate search, mapped into
	// the path's space like the bound itself. epsilon = 0 gives shrink = 1,
	// and x*1 == x for floats, so the exact path is untouched.
	shrink := mp.space(1 / (1 + q.Epsilon))

	pq := &qc.pq
	best := qc.kbest(q.K)
	var budgetErr error
	pq.Push(visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1}, 0)
	for pq.Len() > 0 {
		if err := qc.checkVisit(KNN); err != nil {
			if isCtxErr(err) {
				return dst, err
			}
			budgetErr = err
			break
		}
		v, mindist := pq.Pop()
		if best.Full() && mindist > best.Bound()*shrink {
			break
		}
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		n, hit, err := t.getqTraced(tr, v.child, qc.ver.epoch)
		if err != nil {
			return dst, err
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if !n.leaf {
			if n.kdRoot != kdNone {
				// The k-th best moves only in leaf scans, so one bound serves
				// the whole walk.
				bound := math.Inf(1)
				if best.Full() {
					bound = best.Bound() * shrink
				}
				t.kdWalk(qc, n, q, &mp, bound, span)
			}
			continue
		}
		qc.tally.scanned += n.count()
		tr.Scan(span, n.count())
		var scan0 time.Time
		if tr != nil {
			scan0 = time.Now()
		}
		if mp.fast {
			// Batch kernel against the bound at leaf entry. A candidate
			// whose exact sum beats only the *stale* bound reaches Offer,
			// which rejects it with no state change (priority >= current
			// worst) — exactly the candidates a per-point loop would skip
			// after refreshing the bound, so results and Hit counts are
			// identical to the generic path.
			bound := math.Inf(1)
			if best.Full() {
				bound = best.Bound()
			}
			out := qc.distSlab(n.count())
			mp.add.SumSlab(q.Point, n.vals, n.dim, bound, out)
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
				d := q.Metric.Distance(q.Point, n.point(i))
				if best.Offer(Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d}, d) {
					tr.Hit(span)
				}
			}
		}
		if tr != nil {
			tr.AddCompute(int64(time.Since(scan0)))
		}
	}
	return flushKNN(best, &mp, dst), budgetErr
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
