package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/pqueue"
)

// This file pins the iterative, arena-based query path against the original
// recursive implementation, kept below as reference code (refBoxAt &c. are
// verbatim copies of the pre-rewrite traversals, Clone()s and all). On a
// fixed workload the rewrite must return byte-identical result slices in the
// same order AND charge exactly the same number of node accesses to the
// file's Stats — it is a memory-behavior change only.

func (t *Tree) refSearchBox(q geom.Rect) ([]Entry, error) {
	var out []Entry
	err := t.refBoxAt(t.root, t.cfg.Space, q, &out)
	return out, err
}

func (t *Tree) refBoxAt(id pagefile.PageID, br geom.Rect, q geom.Rect, out *[]Entry) error {
	n, err := t.store.get(id)
	if err != nil {
		return err
	}
	if n.leaf {
		for i := range n.rids {
			if p := n.point(i); q.Contains(p) {
				*out = append(*out, Entry{Point: p, RID: n.rids[i]})
			}
		}
		return nil
	}
	if n.kdRoot == kdNone {
		return nil
	}
	type visit struct {
		child pagefile.PageID
		br    geom.Rect
	}
	var visits []visit
	brWalk := br.Clone()
	var walk func(idx int32)
	walk = func(idx int32) {
		k := &n.kd[idx]
		if k.isLeaf() {
			live, ok := t.els.Get(uint32(k.Child), t.cfg.Space)
			if ok && !live.Intersects(q) {
				return
			}
			visits = append(visits, visit{child: k.Child, br: brWalk.Clone()})
			return
		}
		d := int(k.Dim)
		oldHi := brWalk.Hi[d]
		if k.Lsp < oldHi {
			brWalk.Hi[d] = k.Lsp
		}
		if q.Lo[d] <= brWalk.Hi[d] && brWalk.Hi[d] >= brWalk.Lo[d] {
			walk(k.Left)
		}
		brWalk.Hi[d] = oldHi
		oldLo := brWalk.Lo[d]
		if k.Rsp > oldLo {
			brWalk.Lo[d] = k.Rsp
		}
		if q.Hi[d] >= brWalk.Lo[d] && brWalk.Hi[d] >= brWalk.Lo[d] {
			walk(k.Right)
		}
		brWalk.Lo[d] = oldLo
	}
	walk(n.kdRoot)
	for _, v := range visits {
		if err := t.refBoxAt(v.child, v.br, q, out); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) refSearchRange(q geom.Point, radius float64, m dist.Metric) ([]Neighbor, error) {
	var out []Neighbor
	err := t.refRangeAt(t.root, t.cfg.Space, q, radius, m, &out)
	return out, err
}

func (t *Tree) refRangeAt(id pagefile.PageID, br geom.Rect, q geom.Point, radius float64, m dist.Metric, out *[]Neighbor) error {
	n, err := t.store.get(id)
	if err != nil {
		return err
	}
	if n.leaf {
		for i := range n.rids {
			p := n.point(i)
			if d := m.Distance(q, p); d <= radius {
				*out = append(*out, Neighbor{Entry: Entry{Point: p, RID: n.rids[i]}, Dist: d})
			}
		}
		return nil
	}
	type visit struct {
		child pagefile.PageID
		br    geom.Rect
	}
	var visits []visit
	brWalk := br.Clone()
	scratch := geom.Rect{Lo: make(geom.Point, t.cfg.Dim), Hi: make(geom.Point, t.cfg.Dim)}
	var walk func(idx int32)
	walk = func(idx int32) {
		k := &n.kd[idx]
		if k.isLeaf() {
			lb := 0.0
			if live, ok := t.els.Get(uint32(k.Child), t.cfg.Space); ok {
				if !intersectInto(&scratch, brWalk, live) {
					return
				}
				lb = m.MinDistRect(q, scratch)
			} else {
				lb = m.MinDistRect(q, brWalk)
			}
			if lb <= radius {
				visits = append(visits, visit{child: k.Child, br: brWalk.Clone()})
			}
			return
		}
		d := int(k.Dim)
		oldHi := brWalk.Hi[d]
		if k.Lsp < oldHi {
			brWalk.Hi[d] = k.Lsp
		}
		if brWalk.Hi[d] >= brWalk.Lo[d] {
			walk(k.Left)
		}
		brWalk.Hi[d] = oldHi
		oldLo := brWalk.Lo[d]
		if k.Rsp > oldLo {
			brWalk.Lo[d] = k.Rsp
		}
		if brWalk.Hi[d] >= brWalk.Lo[d] {
			walk(k.Right)
		}
		brWalk.Lo[d] = oldLo
	}
	if n.kdRoot != kdNone {
		walk(n.kdRoot)
	}
	for _, v := range visits {
		if err := t.refRangeAt(v.child, v.br, q, radius, m, out); err != nil {
			return err
		}
	}
	return nil
}

// refSearchKNN is the seed's best-first search; eps > 0 shrinks its pruning
// bound by 1/(1+eps), in plain distance space.
func (t *Tree) refSearchKNN(q geom.Point, k int, m dist.Metric, eps float64) ([]Neighbor, error) {
	shrink := 1 / (1 + eps)
	type frontier struct {
		id pagefile.PageID
		br geom.Rect
	}
	var pq pqueue.Min[frontier]
	best := pqueue.NewKBest[Neighbor](k)

	rootBR := t.cfg.Space
	pq.Push(frontier{id: t.root, br: rootBR}, 0)
	for pq.Len() > 0 {
		f, mindist := pq.Pop()
		if best.Full() && mindist > best.Bound()*shrink {
			break
		}
		n, err := t.store.get(f.id)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			for i := range n.rids {
				p := n.point(i)
				d := m.Distance(q, p)
				best.Offer(Neighbor{Entry: Entry{Point: p, RID: n.rids[i]}, Dist: d}, d)
			}
			continue
		}
		brWalk := f.br.Clone()
		scratch := geom.Rect{Lo: make(geom.Point, t.cfg.Dim), Hi: make(geom.Point, t.cfg.Dim)}
		var walk func(idx int32)
		walk = func(idx int32) {
			k2 := &n.kd[idx]
			if k2.isLeaf() {
				var md float64
				if live, ok := t.els.Get(uint32(k2.Child), t.cfg.Space); ok {
					if !intersectInto(&scratch, brWalk, live) {
						return
					}
					md = m.MinDistRect(q, scratch)
				} else {
					md = m.MinDistRect(q, brWalk)
				}
				if !best.Full() || md <= best.Bound()*shrink {
					pq.Push(frontier{id: k2.Child, br: brWalk.Clone()}, md)
				}
				return
			}
			d := int(k2.Dim)
			oldHi := brWalk.Hi[d]
			if k2.Lsp < oldHi {
				brWalk.Hi[d] = k2.Lsp
			}
			if brWalk.Hi[d] >= brWalk.Lo[d] {
				walk(k2.Left)
			}
			brWalk.Hi[d] = oldHi
			oldLo := brWalk.Lo[d]
			if k2.Rsp > oldLo {
				brWalk.Lo[d] = k2.Rsp
			}
			if brWalk.Hi[d] >= brWalk.Lo[d] {
				walk(k2.Right)
			}
			brWalk.Lo[d] = oldLo
		}
		if n.kdRoot != kdNone {
			walk(n.kdRoot)
		}
	}
	neighbors, _ := best.Sorted()
	return neighbors, nil
}

func parityTree(t *testing.T, n, dim int, seed int64) (*Tree, []geom.Point, *pagefile.Stats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	file := pagefile.NewMemFile(pagefile.DefaultPageSize)
	tree, err := New(file, Config{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree, pts, file.Stats()
}

// reads runs fn and returns how many node accesses it charged.
func reads(t *testing.T, st *pagefile.Stats, fn func() error) uint64 {
	t.Helper()
	before := st.RandomReads
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return st.RandomReads - before
}

// checkDistParity holds one range query and one k-NN query (approximate
// when eps > 0) to the seed recursion: same neighbors, bit for bit and in
// the same order, for the same number of node reads.
func checkDistParity(t *testing.T, tree *Tree, st *pagefile.Stats, c *QueryContext, q geom.Point, m dist.Metric, radius float64, k int, eps float64) {
	t.Helper()
	var wantR, gotR, wantK, gotK []Neighbor
	wantReads := reads(t, st, func() error { var e error; wantR, e = tree.refSearchRange(q, radius, m); return e })
	gotReads := reads(t, st, func() error {
		var e error
		gotR, e = tree.Search(nil, nil, Query{Kind: Range, Point: q, Radius: radius, Metric: m}, nil)
		return e
	})
	if !reflect.DeepEqual(gotR, wantR) {
		t.Fatalf("%s range r=%g: results differ from seed implementation", m.Name(), radius)
	}
	if gotReads != wantReads {
		t.Fatalf("%s range r=%g: %d node reads, seed charged %d", m.Name(), radius, gotReads, wantReads)
	}

	wantReads = reads(t, st, func() error { var e error; wantK, e = tree.refSearchKNN(q, k, m, eps); return e })
	knn := Query{Kind: KNN, Point: q, K: k, Metric: m, Epsilon: eps}
	gotReads = reads(t, st, func() error { var e error; gotK, e = tree.Search(nil, nil, knn, nil); return e })
	if !reflect.DeepEqual(gotK, wantK) {
		t.Fatalf("%s knn k=%d eps=%g: results differ from seed implementation", m.Name(), k, eps)
	}
	if gotReads != wantReads {
		t.Fatalf("%s knn k=%d eps=%g: %d node reads, seed charged %d", m.Name(), k, eps, gotReads, wantReads)
	}
	gotKCtx, err := tree.Search(nil, c, knn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotKCtx, wantK) {
		t.Fatalf("%s knn k=%d eps=%g: caller-held context diverges", m.Name(), k, eps)
	}
}

func TestSearchParityWithSeed(t *testing.T) {
	t.Run("uniform12d", parityUniform12d)
	t.Run("colhist64d", parityColHist64d)
}

func parityUniform12d(t *testing.T) {
	tree, pts, st := parityTree(t, 6000, 12, 41)
	rng := rand.New(rand.NewSource(42))
	w := make([]float64, 12)
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	wlp, err := dist.NewWeightedLp(2, w)
	if err != nil {
		t.Fatal(err)
	}
	metrics := []dist.Metric{dist.L1(), dist.L2(), dist.LpMetric{P: 2}, dist.Linf(), wlp}
	c := NewQueryContext()

	for qi := 0; qi < 30; qi++ {
		box := randQueryRect(rng, 12, 0.5)
		var want []Entry
		wantReads := reads(t, st, func() error { var e error; want, e = tree.refSearchBox(box); return e })
		var got []Entry
		gotReads := reads(t, st, func() error {
			var e error
			got, e = Entries(tree.Search(nil, nil, Query{Kind: Box, Rect: box}, nil))
			return e
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("box query %d: results differ from seed implementation", qi)
		}
		if gotReads != wantReads {
			t.Fatalf("box query %d: %d node reads, seed charged %d", qi, gotReads, wantReads)
		}
		gotCtx, err := Entries(tree.Search(nil, c, Query{Kind: Box, Rect: box}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotCtx, want) {
			t.Fatalf("box query %d: caller-held context diverges", qi)
		}

		q := pts[rng.Intn(len(pts))]
		for _, m := range metrics {
			checkDistParity(t, tree, st, c, q, m, 0.2+rng.Float64()*0.6, 1+rng.Intn(20), 0)
		}
	}
}

// parityColHist64d is the same pin on the benchmark's tree shape,
// where the additive kernel earns its keep: 64-d COLHIST, bulk-loaded, ELS
// on, queried at held-out anchors under L1 and a weighted L1 — range, exact
// k-NN and approximate k-NN (in L1's sum space the shrunk bound is the
// seed's own, so even eps > 0 must agree exactly).
func parityColHist64d(t *testing.T) {
	tree, anchors := colHistTree(t, 8000, 40, 64)
	st := tree.File().Stats()
	rng := rand.New(rand.NewSource(45))
	w := make([]float64, 64)
	for i := range w {
		w[i] = rng.Float64() * 2
	}
	wl1, err := dist.NewWeightedLp(1, w)
	if err != nil {
		t.Fatal(err)
	}
	c := NewQueryContext()
	for _, q := range anchors {
		for _, m := range []dist.Metric{dist.L1(), wl1} {
			// A radius that reaches a handful of neighbors under m.
			near, err := tree.SearchKNN(q, 5, m)
			if err != nil {
				t.Fatal(err)
			}
			k := 1 + rng.Intn(20)
			checkDistParity(t, tree, st, c, q, m, near[4].Dist, k, 0)
			checkDistParity(t, tree, st, c, q, m, near[4].Dist/2, k, 0.5)
		}
	}
}

// TestSearchBoxFuncParity checks the streaming traversal emits the same
// entries in the same order as the seed recursion, for the same node reads
// as SearchBox: it is the one depth-first loop with a visitor attached.
func TestSearchBoxFuncParity(t *testing.T) {
	tree, _, st := parityTree(t, 3000, 8, 43)
	rng := rand.New(rand.NewSource(44))
	for qi := 0; qi < 20; qi++ {
		box := randQueryRect(rng, 8, 0.6)
		want, err := tree.refSearchBox(box)
		if err != nil {
			t.Fatal(err)
		}
		wantReads := reads(t, st, func() error { _, e := tree.SearchBox(box); return e })
		var got []Entry
		gotReads := reads(t, st, func() error {
			return tree.searchBoxFunc(box, func(e Entry) bool {
				got = append(got, e)
				return true
			})
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("box func query %d: stream differs from seed implementation", qi)
		}
		if gotReads != wantReads {
			t.Fatalf("box func query %d: %d node reads, SearchBox charged %d", qi, gotReads, wantReads)
		}
	}
}
