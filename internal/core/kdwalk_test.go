package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/pqueue"
)

// This file holds the distance queries' kd walk to a reference written from
// scratch: a recursive walk that clones the bounding region at every kd
// step and prices each kd leaf with refRegionSum, the fused MINDIST kernel
// as it was before the walk kept the clamped query (it intersects BR and
// live space itself, four IEEE min/max per dimension). The reference best-
// first and depth-first traversals around it mirror bestFirst and
// depthFirst, scanning leaves one row at a time with refRowSum, the
// pre-batching leaf kernel.

// refKernel is an additive metric's shape, spelled out for the oracles:
// term = w·|Δ|² (sq) or w·|Δ|, w nil for the unweighted norms.
type refKernel struct {
	sq bool
	w  []float64
}

func (k refKernel) term(d int, g float64) float64 {
	if k.sq {
		g *= g
	}
	if k.w != nil {
		g *= k.w[d]
	}
	return g
}

func (k refKernel) root(s float64) float64 {
	if k.sq {
		return math.Sqrt(s)
	}
	return s
}

// refRegionSum is the oracle kernel: the sum from q to a ∩ b in dimension
// order, empty at the first empty dimension reached, abandoned once the
// running sum exceeds bound.
func (k refKernel) refRegionSum(q geom.Point, a, b geom.Rect, bound float64) (sum float64, empty bool) {
	for d, v := range q {
		lo, hi := max(a.Lo[d], b.Lo[d]), min(a.Hi[d], b.Hi[d])
		if lo > hi {
			return sum, true
		}
		g := math.Abs(float64(v) - float64(min(max(v, lo), hi)))
		if sum += k.term(d, g); sum > bound {
			return sum, false
		}
	}
	return sum, false
}

// refRowSum is the one-row leaf kernel, abandoned once past bound.
func (k refKernel) refRowSum(q, p geom.Point, bound float64) float64 {
	s := 0.0
	for d, v := range q {
		if s += k.term(d, math.Abs(float64(v)-float64(p[d]))); s > bound {
			break
		}
	}
	return s
}

// refPush is one kd leaf the walk kept: its child, mapped BR and priority.
type refPush struct {
	child pagefile.PageID
	br    geom.Rect
	prio  float64
}

// refKDWalk walks index node n from br in kd order, cloning the region at
// every step, and returns the kd leaves within bound of q (in sum space)
// with their priorities, counting prunes and ELS lookups into ta.
func (t *Tree) refKDWalk(n *node, br geom.Rect, q geom.Point, k refKernel, bound float64, ta *tally) []refPush {
	var out []refPush
	space := t.cfg.Space
	els := t.current.Load().els
	var walk func(idx int32, br geom.Rect)
	walk = func(idx int32, br geom.Rect) {
		kn := &n.kd[idx]
		if kn.isLeaf() {
			live, ok := els.Get(uint32(kn.Child), space)
			if ok {
				ta.elsHits++
			} else {
				live = br
			}
			lb, empty := k.refRegionSum(q, br, live, bound)
			switch {
			case empty:
				ta.elsPrunes++
			case !(lb <= bound):
				ta.distPrunes++
			default:
				out = append(out, refPush{child: kn.Child, br: br.Clone(), prio: lb})
			}
			return
		}
		d := int(kn.Dim)
		left := br.Clone()
		left.Hi[d] = min(left.Hi[d], kn.Lsp)
		if left.Hi[d] >= left.Lo[d] {
			walk(kn.Left, left)
		} else {
			ta.kdPrunes++
		}
		right := br.Clone()
		right.Lo[d] = max(right.Lo[d], kn.Rsp)
		if right.Hi[d] >= right.Lo[d] {
			walk(kn.Right, right)
		} else {
			ta.kdPrunes++
		}
	}
	walk(n.kdRoot, br.Clone())
	return out
}

// checkKDWalk runs the real kdWalk on index node n from br and requires the
// reference's survivors — children, mapped BRs and, for k-NN, priorities
// bit for bit — and its per-node tally.
func (t *Tree) checkKDWalk(tb testing.TB, n *node, br geom.Rect, q *Query, bound float64, want []refPush, wantTa tally) {
	tb.Helper()
	qc := &queryCtx{}
	qc.acquire(t.cfg.Dim)
	qc.ver = t.current.Load()
	copy(qc.walk.Lo, br.Lo)
	copy(qc.walk.Hi, br.Hi)
	mp := dispatch(q.Metric)
	t.kdWalk(qc, n, q, &mp, bound, -1)

	rect := func(slot int32) geom.Rect {
		r := geom.Rect{Lo: make(geom.Point, t.cfg.Dim), Hi: make(geom.Point, t.cfg.Dim)}
		qc.arena.copyOut(slot, r)
		return r
	}
	var got []refPush
	if q.Kind == KNN {
		for qc.pq.Len() > 0 {
			v, prio := qc.pq.Pop()
			got = append(got, refPush{child: v.child, br: rect(v.slot), prio: prio})
		}
		// Each kd leaf names a distinct child, so child order is canonical.
		slices.SortFunc(got, func(a, b refPush) int { return int(a.child) - int(b.child) })
		want = slices.Clone(want)
		slices.SortFunc(want, func(a, b refPush) int { return int(a.child) - int(b.child) })
	} else {
		for _, v := range qc.pending {
			got = append(got, refPush{child: v.child, br: rect(v.slot)})
		}
	}
	if len(got) != len(want) {
		tb.Fatalf("%v node %d: kdWalk kept %d kd leaves, reference %d", q.Kind, n.id, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.child != w.child || !g.br.Equal(w.br) || q.Kind == KNN && math.Float64bits(g.prio) != math.Float64bits(w.prio) {
			tb.Fatalf("%v node %d survivor %d: kdWalk (child %d, br %v, priority %v), reference (child %d, br %v, priority %v)",
				q.Kind, n.id, i, g.child, g.br, g.prio, w.child, w.br, w.prio)
		}
	}
	if qc.tally != wantTa {
		tb.Fatalf("%v node %d: kdWalk tally %+v, reference %+v", q.Kind, n.id, qc.tally, wantTa)
	}
}

// refSearch answers a k-NN or range query the way bestFirst and
// depthFirst do, but through the reference walk and kernels, holding the
// real kdWalk to it at every index node visited. It returns the answer and
// the query's tally.
func (t *Tree) refSearch(tb testing.TB, q *Query, k refKernel) ([]Neighbor, tally) {
	tb.Helper()
	var ta tally
	type visit struct {
		child pagefile.PageID
		br    geom.Rect
	}
	get := func(id pagefile.PageID) *node {
		n, err := t.store.get(id)
		if err != nil {
			tb.Fatal(err)
		}
		return n
	}
	expand := func(n *node, br geom.Rect, bound float64) []refPush {
		var nodeTa tally
		pushes := t.refKDWalk(n, br, q.Point, k, bound, &nodeTa)
		if q.Kind == KNN {
			nodeTa.heapPushes = len(pushes)
		} else {
			nodeTa.descents = len(pushes)
		}
		t.checkKDWalk(tb, n, br, q, bound, pushes, nodeTa)
		ta.kdPrunes += nodeTa.kdPrunes
		ta.elsHits += nodeTa.elsHits
		ta.elsPrunes += nodeTa.elsPrunes
		ta.distPrunes += nodeTa.distPrunes
		ta.heapPushes += nodeTa.heapPushes
		ta.descents += nodeTa.descents
		return pushes
	}

	var out []Neighbor
	if q.Kind == Range {
		bound := q.Radius
		if k.sq {
			bound *= bound
		}
		stack := []visit{{t.current.Load().root, t.cfg.Space.Clone()}}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := get(v.child)
			if !n.leaf {
				if n.kdRoot != kdNone {
					pushes := expand(n, v.br, bound)
					for i := len(pushes) - 1; i >= 0; i-- {
						stack = append(stack, visit{pushes[i].child, pushes[i].br})
					}
				}
				continue
			}
			ta.scanned += n.count()
			for i := 0; i < n.count(); i++ {
				if s := k.refRowSum(q.Point, n.point(i), bound); s <= bound {
					out = append(out, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: k.root(s)})
				}
			}
		}
		return out, ta
	}

	var pq pqueue.Min[visit]
	best := pqueue.NewKBest[Neighbor](q.K)
	pq.Push(visit{t.current.Load().root, t.cfg.Space.Clone()}, 0)
	for pq.Len() > 0 {
		v, mindist := pq.Pop()
		if best.Full() && mindist > best.Bound() {
			break
		}
		n := get(v.child)
		bound := math.Inf(1)
		if best.Full() {
			bound = best.Bound()
		}
		if !n.leaf {
			if n.kdRoot != kdNone {
				for _, p := range expand(n, v.br, bound) {
					pq.Push(visit{p.child, p.br}, p.prio)
				}
			}
			continue
		}
		ta.scanned += n.count()
		for i := 0; i < n.count(); i++ {
			if s := k.refRowSum(q.Point, n.point(i), bound); s <= bound {
				best.Offer(Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: s}, s)
			}
		}
	}
	out = best.AppendSorted(out)
	for i := range out {
		out[i].Dist = k.root(out[i].Dist)
	}
	return out, ta
}

// FuzzKDWalk holds k-NN and range search to the reference walk on small
// bulk-loaded trees: answers (entries, order and distances bit for bit),
// the query's tally, and at every index node visited the survivors and
// priorities the real kdWalk produced. The fuzz bytes pick a dimensionality
// of 2–8, a page of 256–512 bytes and then coordinates on the k/16 grid,
// so split positions, ELS boundaries and query coordinates tie; the tree
// is filled out to its size by a generator the bytes seed, and queries
// (L1, L2 and their weighted forms) reach a little outside the data space.
func FuzzKDWalk(f *testing.F) {
	f.Add([]byte{0, 0, 1})
	f.Add([]byte("kd walk over a grid of sixteenths, some of it tied"))
	f.Add(bytes.Repeat([]byte{6, 8, 3, 16, 0, 9, 12, 4, 7}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		next := func() int {
			if len(data) == 0 {
				return rng.Intn(256)
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		dim := 2 + next()%7
		pageSize := 256 + 32*(next()%9)
		n := 60 + next()*2
		pts := make([]geom.Point, n)
		rids := make([]RecordID, n)
		for i := range pts {
			pts[i] = make(geom.Point, dim)
			for d := range pts[i] {
				pts[i][d] = float32(next()%17) / 16
			}
			rids[i] = RecordID(i)
		}
		tree, err := BulkLoad(pagefile.NewMemFile(pageSize), Config{Dim: dim, PageSize: pageSize}, pts, rids)
		if err != nil {
			t.Fatal(err)
		}

		w := make([]float64, dim)
		for d := range w {
			w[d] = float64(next()%5) / 2
		}
		metrics := []struct {
			m dist.Metric
			k refKernel
		}{
			{dist.L1(), refKernel{}},
			{dist.L2(), refKernel{sq: true}},
			{dist.WeightedLp{P: 1, Weights: w}, refKernel{w: w}},
			{dist.WeightedLp{P: 2, Weights: w}, refKernel{sq: true, w: w}},
		}
		c := NewQueryContext()
		for i := 0; i < 6; i++ {
			q := make(geom.Point, dim)
			for d := range q {
				q[d] = float32(next()%25-4) / 16
			}
			mk := metrics[next()%len(metrics)]
			for _, query := range []Query{
				{Kind: KNN, Point: q, K: 1 + next()%10, Metric: mk.m},
				{Kind: Range, Point: q, Radius: float64(next()%17) / 16 * float64(dim) / 4, Metric: mk.m},
			} {
				got, err := tree.Search(nil, c, query, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotTa := c.qc.tally
				want, wantTa := tree.refSearch(t, &query, mk.k)
				if len(got) != len(want) {
					t.Fatalf("%v %s at %v: %d answers, reference %d", query.Kind, mk.m.Name(), q, len(got), len(want))
				}
				for j := range got {
					if got[j].RID != want[j].RID || math.Float64bits(got[j].Dist) != math.Float64bits(want[j].Dist) {
						t.Fatalf("%v %s at %v: answer %d is (rid %d, %v), reference (rid %d, %v)",
							query.Kind, mk.m.Name(), q, j, got[j].RID, got[j].Dist, want[j].RID, want[j].Dist)
					}
				}
				if gotTa != wantTa {
					t.Fatalf("%v %s at %v: tally %+v, reference %+v", query.Kind, mk.m.Name(), q, gotTa, wantTa)
				}
			}
		}
	})
}
