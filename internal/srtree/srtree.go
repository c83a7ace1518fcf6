// Package srtree implements the SR-tree of Katayama and Satoh (SIGMOD
// 1997), the data-partitioning competitor in the paper's evaluation. Each
// internal entry carries both a bounding sphere (the SS-tree's region,
// compact in volume) and a bounding rectangle (compact in diameter); a
// node's region is their intersection. Entries therefore cost
// Θ(dimensionality) bytes, so the fanout *decreases linearly with
// dimensionality* — the structural weakness (Table 1: low fanout for large
// k, high overlap) the hybrid tree is built to avoid, and the reason the
// SR-tree falls behind past ~10 dimensions in Figure 6.
package srtree

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/index"
	"hybridtree/internal/nodestore"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/pqueue"
)

// Config controls tree geometry.
type Config struct {
	Dim      int
	PageSize int
	// MinFill is the minimum fill fraction enforced by splits; default 0.4
	// (the SS-/SR-tree setting).
	MinFill float64
}

// entry is one internal-node routing entry: a child page with its bounding
// sphere (Centroid, Radius), bounding rectangle, and subtree cardinality
// (the weight for centroid maintenance).
type entry struct {
	child    pagefile.PageID
	centroid geom.Point
	radius   float64
	rect     geom.Rect
	count    int32
}

type node struct {
	id   pagefile.PageID
	leaf bool
	pts  []geom.Point
	rids []uint64
	ents []entry
}

// Tree is an SR-tree over a page file.
type Tree struct {
	cfg    Config
	file   pagefile.File
	store  *nodestore.Store[*node]
	root   pagefile.PageID
	height int
	size   int
	prunes *obs.Counter // index_prunes_total{method="sr"}
}

const headerSize = 6

func (cfg *Config) leafCap() int { return (cfg.PageSize - headerSize) / (8 + 4*cfg.Dim) }

// nodeCap is the internal fanout: each entry stores child id (4), centroid
// (4k), radius (4), rect (8k) and count (4) — 12k+12 bytes, shrinking
// linearly in k.
func (cfg *Config) nodeCap() int { return (cfg.PageSize - headerSize) / (12*cfg.Dim + 12) }

func (cfg *Config) minLeaf() int { return atLeast1(int(cfg.MinFill * float64(cfg.leafCap()))) }
func (cfg *Config) minNode() int { return atLeast1(int(cfg.MinFill * float64(cfg.nodeCap()))) }

func atLeast1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// New creates an empty SR-tree on file.
func New(file pagefile.File, cfg Config) (*Tree, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("srtree: dim must be >= 1, got %d", cfg.Dim)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = file.PageSize()
	}
	if cfg.PageSize != file.PageSize() {
		return nil, fmt.Errorf("srtree: page size %d != file page size %d", cfg.PageSize, file.PageSize())
	}
	if cfg.MinFill == 0 {
		cfg.MinFill = 0.4
	}
	if cfg.MinFill < 0 || cfg.MinFill > 0.5 {
		return nil, fmt.Errorf("srtree: MinFill %g outside [0, 0.5]", cfg.MinFill)
	}
	if cfg.leafCap() < 2 || cfg.nodeCap() < 2 {
		return nil, fmt.Errorf("srtree: page size %d too small for %d dimensions", cfg.PageSize, cfg.Dim)
	}
	t := &Tree{cfg: cfg, file: file, prunes: obs.PruneCounter(obs.Default(), "sr")}
	t.store = nodestore.New[*node](file, codec{dim: cfg.Dim})
	t.store.SetObsMethod("sr")
	root, err := t.newNode(true)
	if err != nil {
		return nil, err
	}
	if err := t.store.Put(root.id, root); err != nil {
		return nil, err
	}
	t.root = root.id
	t.height = 1
	return t, nil
}

func (t *Tree) newNode(leaf bool) (*node, error) {
	id, err := t.store.Alloc()
	if err != nil {
		return nil, err
	}
	return &node{id: id, leaf: leaf}, nil
}

// Name implements index.Index.
func (t *Tree) Name() string { return "sr" }

// File implements index.Index.
func (t *Tree) File() pagefile.File { return t.file }

// Insert implements index.Index using the SS-tree descent rule the SR-tree
// adopts: follow the child whose centroid is nearest to the new point.
func (t *Tree) Insert(p geom.Point, rid uint64) error {
	if len(p) != t.cfg.Dim {
		return fmt.Errorf("srtree: vector has dim %d, want %d", len(p), t.cfg.Dim)
	}
	sp, err := t.insertAt(t.root, p.Clone(), rid)
	if err != nil {
		return err
	}
	if sp != nil {
		root, err := t.newNode(false)
		if err != nil {
			return err
		}
		root.ents = []entry{sp.left, sp.right}
		if err := t.store.Put(root.id, root); err != nil {
			return err
		}
		t.root = root.id
		t.height++
	}
	t.size++
	return nil
}

// Delete implements index.Index. The descent follows bounding rectangles,
// which entryFor keeps exact, so every copy of the entry is reachable.
// Emptied nodes are kept in place with empty regions (like the KDB-tree's
// empty regions); their entries stop matching any query and future inserts
// may repopulate them.
func (t *Tree) Delete(p geom.Point, rid uint64) (bool, error) {
	if len(p) != t.cfg.Dim {
		return false, fmt.Errorf("srtree: vector has dim %d, want %d", len(p), t.cfg.Dim)
	}
	found, err := t.deleteAt(t.root, p, rid)
	if err != nil || !found {
		return false, err
	}
	t.size--
	return true, nil
}

func (t *Tree) deleteAt(id pagefile.PageID, p geom.Point, rid uint64) (bool, error) {
	n, err := t.store.Get(id)
	if err != nil {
		return false, err
	}
	if n.leaf {
		for i := range n.pts {
			if n.rids[i] == rid && n.pts[i].Equal(p) {
				last := len(n.pts) - 1
				n.pts[i], n.rids[i] = n.pts[last], n.rids[last]
				n.pts = n.pts[:last]
				n.rids = n.rids[:last]
				return true, t.store.Put(n.id, n)
			}
		}
		return false, nil
	}
	for i := range n.ents {
		if !n.ents[i].rect.Contains(p) {
			continue
		}
		found, err := t.deleteAt(n.ents[i].child, p, rid)
		if err != nil {
			return false, err
		}
		if !found {
			continue
		}
		e, err := t.entryFor(n.ents[i].child)
		if err != nil {
			return false, err
		}
		n.ents[i] = e
		return true, t.store.Put(n.id, n)
	}
	return false, nil
}

type splitPair struct {
	left, right entry
}

func (t *Tree) insertAt(id pagefile.PageID, p geom.Point, rid uint64) (*splitPair, error) {
	n, err := t.store.Get(id)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		n.pts = append(n.pts, p)
		n.rids = append(n.rids, rid)
		if len(n.pts) > t.cfg.leafCap() {
			return t.splitLeaf(n)
		}
		return nil, t.store.Put(n.id, n)
	}

	// Nearest centroid (Euclidean, the tree's native geometry).
	best, bestDist := 0, math.Inf(1)
	for i := range n.ents {
		if d := dist.L2().Distance(n.ents[i].centroid, p); d < bestDist {
			best, bestDist = i, d
		}
	}
	sp, err := t.insertAt(n.ents[best].child, p, rid)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		n.ents[best] = sp.left
		n.ents = append(n.ents, sp.right)
		if len(n.ents) > t.cfg.nodeCap() {
			return t.splitNode(n)
		}
	} else {
		// Refresh the routing entry from the child's new content.
		e, err := t.entryFor(n.ents[best].child)
		if err != nil {
			return nil, err
		}
		n.ents[best] = e
	}
	return nil, t.store.Put(n.id, n)
}

// entryFor recomputes the routing entry describing a child from the child's
// contents: for leaves, exact centroid/radius/rect over the points; for
// internal children, the weighted centroid of its entries with the radius
// bounded by max(centroid distance + child radius).
func (t *Tree) entryFor(id pagefile.PageID) (entry, error) {
	n, err := t.store.Get(id)
	if err != nil {
		return entry{}, err
	}
	if n.leaf {
		if len(n.pts) == 0 {
			// Drained by deletes: an empty region that matches nothing.
			return entry{child: id, centroid: make(geom.Point, t.cfg.Dim),
				rect: geom.EmptyRect(t.cfg.Dim)}, nil
		}
		c := geom.Centroid(n.pts)
		r := 0.0
		for _, p := range n.pts {
			if d := dist.L2().Distance(c, p); d > r {
				r = d
			}
		}
		return entry{child: id, centroid: c, radius: r,
			rect: geom.BoundingRect(n.pts), count: int32(len(n.pts))}, nil
	}
	var total int32
	acc := make([]float64, t.cfg.Dim)
	rect := geom.EmptyRect(t.cfg.Dim)
	for _, e := range n.ents {
		total += e.count
		for d := range acc {
			acc[d] += float64(e.centroid[d]) * float64(e.count)
		}
		rect.EnlargeRect(e.rect)
	}
	if total == 0 {
		// Every child drained by deletes.
		return entry{child: id, centroid: make(geom.Point, t.cfg.Dim),
			rect: geom.EmptyRect(t.cfg.Dim)}, nil
	}
	c := make(geom.Point, t.cfg.Dim)
	for d := range c {
		c[d] = float32(acc[d] / float64(total))
	}
	r := 0.0
	for _, e := range n.ents {
		if e.count == 0 {
			continue // drained child; its placeholder centroid means nothing
		}
		if d := dist.L2().Distance(c, e.centroid) + e.radius; d > r {
			r = d
		}
	}
	return entry{child: id, centroid: c, radius: r, rect: rect, count: total}, nil
}

// splitLeaf splits an overflowing leaf with the SS-tree's variance rule:
// the dimension of maximum coordinate variance, at the position (respecting
// minimum fill) minimizing the summed variance of the two halves.
func (t *Tree) splitLeaf(n *node) (*splitPair, error) {
	dim := maxVarianceDim(n.pts, nil, t.cfg.Dim)
	order := make([]int, len(n.pts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return n.pts[order[a]][dim] < n.pts[order[b]][dim] })
	coords := make([]float64, len(order))
	for i, j := range order {
		coords[i] = float64(n.pts[j][dim])
	}
	cut := bestVarianceCut(coords, t.cfg.minLeaf())

	right, err := t.newNode(true)
	if err != nil {
		return nil, err
	}
	var lp []geom.Point
	var lr []uint64
	for _, j := range order[:cut] {
		lp = append(lp, n.pts[j])
		lr = append(lr, n.rids[j])
	}
	for _, j := range order[cut:] {
		right.pts = append(right.pts, n.pts[j])
		right.rids = append(right.rids, n.rids[j])
	}
	n.pts, n.rids = lp, lr
	return t.finishSplit(n, right)
}

// splitNode splits an overflowing internal node by the variance of its
// entries' centroids.
func (t *Tree) splitNode(n *node) (*splitPair, error) {
	cents := make([]geom.Point, len(n.ents))
	for i := range n.ents {
		cents[i] = n.ents[i].centroid
	}
	dim := maxVarianceDim(cents, nil, t.cfg.Dim)
	order := make([]int, len(n.ents))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return n.ents[order[a]].centroid[dim] < n.ents[order[b]].centroid[dim]
	})
	coords := make([]float64, len(order))
	for i, j := range order {
		coords[i] = float64(n.ents[j].centroid[dim])
	}
	cut := bestVarianceCut(coords, t.cfg.minNode())

	right, err := t.newNode(false)
	if err != nil {
		return nil, err
	}
	var le []entry
	for _, j := range order[:cut] {
		le = append(le, n.ents[j])
	}
	for _, j := range order[cut:] {
		right.ents = append(right.ents, n.ents[j])
	}
	n.ents = le
	return t.finishSplit(n, right)
}

func (t *Tree) finishSplit(left, right *node) (*splitPair, error) {
	if err := t.store.Put(left.id, left); err != nil {
		return nil, err
	}
	if err := t.store.Put(right.id, right); err != nil {
		return nil, err
	}
	el, err := t.entryFor(left.id)
	if err != nil {
		return nil, err
	}
	er, err := t.entryFor(right.id)
	if err != nil {
		return nil, err
	}
	return &splitPair{left: el, right: er}, nil
}

// maxVarianceDim returns the dimension with the largest coordinate variance
// over the given points.
func maxVarianceDim(pts []geom.Point, _ []int, dim int) int {
	best, bestVar := 0, -1.0
	for d := 0; d < dim; d++ {
		var sum, sumSq float64
		for _, p := range pts {
			v := float64(p[d])
			sum += v
			sumSq += v * v
		}
		n := float64(len(pts))
		variance := sumSq/n - (sum/n)*(sum/n)
		if variance > bestVar {
			best, bestVar = d, variance
		}
	}
	return best
}

// bestVarianceCut chooses the split index in [minFill, n-minFill]
// minimizing the summed variance of the two sides of the sorted coordinate
// list, in O(n) via prefix sums.
func bestVarianceCut(sorted []float64, minFill int) int {
	n := len(sorted)
	if 2*minFill > n {
		minFill = n / 2
	}
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
		prefixSq[i+1] = prefixSq[i] + v*v
	}
	varOf := func(lo, hi int) float64 { // [lo,hi)
		c := float64(hi - lo)
		s := prefix[hi] - prefix[lo]
		sq := prefixSq[hi] - prefixSq[lo]
		return sq/c - (s/c)*(s/c)
	}
	bestCut, bestScore := minFill, math.Inf(1)
	for cut := minFill; cut <= n-minFill; cut++ {
		if cut == 0 || cut == n {
			continue
		}
		if score := varOf(0, cut) + varOf(cut, n); score < bestScore {
			bestCut, bestScore = cut, score
		}
	}
	return bestCut
}

// regionMinDist returns a lower bound on m-distance from q to any point of
// the entry's region (rect ∩ sphere). The rectangle bound always applies;
// the Euclidean sphere bound applies when m dominates L2.
func regionMinDist(q geom.Point, e *entry, m dist.Metric, sphereOK bool) float64 {
	lb := m.MinDistRect(q, e.rect)
	if sphereOK {
		if sb := dist.L2().Distance(q, e.centroid) - e.radius; sb > lb {
			lb = sb
		}
	}
	return lb
}

// regionMinDistSum is regionMinDist in the sum space of a metric's additive
// kernel. The rectangle bound is summed natively; the sphere bound keeps its
// one centroid sqrt (the L2 point distance) and maps the resulting clearance
// into sum space, which is monotone because both bounds are non-negative.
func regionMinDistSum(q geom.Point, e *entry, add dist.Additive, sphereOK bool) float64 {
	lb := add.SumRect(q, e.rect)
	if sphereOK {
		if dc := dist.L2().Distance(q, e.centroid) - e.radius; dc > 0 {
			if sb := add.SumBound(dc); sb > lb {
				lb = sb
			}
		}
	}
	return lb
}

// Search implements index.Index.
func (t *Tree) Search(ctx context.Context, q core.Query) ([]core.Neighbor, error) {
	if err := index.Check(ctx, q, t.cfg.Dim); err != nil {
		return nil, err
	}
	switch q.Kind {
	case core.Box:
		return t.searchBox(q.Rect)
	case core.Range:
		return t.searchRange(q.Point, q.Radius, q.Metric)
	}
	return t.searchKNN(q.Point, q.K, q.Metric)
}

// searchBox visits a child when the query box intersects both its bounding
// rectangle and its bounding sphere.
func (t *Tree) searchBox(q geom.Rect) ([]core.Neighbor, error) {
	var out []core.Neighbor
	pruned := 0
	var walk func(id pagefile.PageID) error
	walk = func(id pagefile.PageID) error {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		if n.leaf {
			for i, p := range n.pts {
				if q.Contains(p) {
					out = append(out, core.Neighbor{Entry: core.Entry{Point: p, RID: core.RecordID(n.rids[i])}})
				}
			}
			return nil
		}
		for i := range n.ents {
			e := &n.ents[i]
			if !e.rect.Intersects(q) {
				pruned++
				continue
			}
			if dist.L2().MinDistRect(e.centroid, q) > e.radius {
				pruned++ // sphere misses the query box
				continue
			}
			if err := walk(e.child); err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(t.root)
	t.prunes.Add(uint64(pruned))
	return out, err
}

// searchRange visits every child whose region lies within radius of q.
func (t *Tree) searchRange(q geom.Point, radius float64, m dist.Metric) ([]core.Neighbor, error) {
	sphereOK := dist.DominatesL2(m)
	add, fast := dist.AsAdditive(m)
	bound := radius
	if fast {
		bound = add.SumBound(radius)
	}
	var out []core.Neighbor
	pruned := 0
	var walk func(id pagefile.PageID) error
	walk = func(id pagefile.PageID) error {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		if n.leaf {
			for i, p := range n.pts {
				if fast {
					if sum := add.SumBounded(q, p, bound); sum <= bound {
						out = append(out, core.Neighbor{Entry: core.Entry{Point: p, RID: core.RecordID(n.rids[i])}, Dist: add.Root(sum)})
					}
				} else if d := m.Distance(q, p); d <= radius {
					out = append(out, core.Neighbor{Entry: core.Entry{Point: p, RID: core.RecordID(n.rids[i])}, Dist: d})
				}
			}
			return nil
		}
		for i := range n.ents {
			var lb float64
			if fast {
				lb = regionMinDistSum(q, &n.ents[i], add, sphereOK)
			} else {
				lb = regionMinDist(q, &n.ents[i], m, sphereOK)
			}
			if lb <= bound {
				if err := walk(n.ents[i].child); err != nil {
					return err
				}
			} else {
				pruned++
			}
		}
		return nil
	}
	err := walk(t.root)
	t.prunes.Add(uint64(pruned))
	return out, err
}

// searchKNN is best-first traversal over the rect∩sphere regions.
func (t *Tree) searchKNN(q geom.Point, k int, m dist.Metric) ([]core.Neighbor, error) {
	sphereOK := dist.DominatesL2(m)
	add, fast := dist.AsAdditive(m)
	pruned := 0
	var pq pqueue.Min[pagefile.PageID]
	best := pqueue.NewKBest[core.Neighbor](k)
	pq.Push(t.root, 0)
	for pq.Len() > 0 {
		id, mindist := pq.Pop()
		if best.Full() && mindist > best.Bound() {
			break
		}
		n, err := t.store.Get(id)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			bound := math.Inf(1)
			if best.Full() {
				bound = best.Bound()
			}
			for i, p := range n.pts {
				var d float64
				if fast {
					d = add.SumBounded(q, p, bound)
				} else {
					d = m.Distance(q, p)
				}
				if d > bound {
					continue // abandoned or beaten; Offer would reject it
				}
				best.Offer(core.Neighbor{Entry: core.Entry{Point: p, RID: core.RecordID(n.rids[i])}, Dist: d}, d)
				if best.Full() {
					bound = best.Bound()
				}
			}
			continue
		}
		for i := range n.ents {
			var md float64
			if fast {
				md = regionMinDistSum(q, &n.ents[i], add, sphereOK)
			} else {
				md = regionMinDist(q, &n.ents[i], m, sphereOK)
			}
			if !best.Full() || md <= best.Bound() {
				pq.Push(n.ents[i].child, md)
			} else {
				pruned++
			}
		}
	}
	t.prunes.Add(uint64(pruned))
	ns, _ := best.Sorted()
	if fast {
		for i := range ns {
			ns[i].Dist = add.Root(ns[i].Dist)
		}
	}
	return ns, nil
}

// Stats summarizes the tree structure (fanout and utilization rows of the
// Table 1 comparison).
type Stats struct {
	Height     int
	LeafNodes  int
	IndexNodes int
	Entries    int
	AvgFanout  float64
	LeafCap    int
	NodeCap    int
}

// Stats walks the tree without perturbing access counters.
func (t *Tree) Stats() (Stats, error) {
	saved := *t.file.Stats()
	defer func() { *t.file.Stats() = saved }()
	savedObs := t.store.PauseObs()
	defer t.store.ResumeObs(savedObs)
	st := Stats{Height: t.height, LeafCap: t.cfg.leafCap(), NodeCap: t.cfg.nodeCap()}
	fanout := 0
	var walk func(id pagefile.PageID) error
	walk = func(id pagefile.PageID) error {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		if n.leaf {
			st.LeafNodes++
			st.Entries += len(n.pts)
			return nil
		}
		st.IndexNodes++
		fanout += len(n.ents)
		for i := range n.ents {
			if err := walk(n.ents[i].child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return Stats{}, err
	}
	if st.IndexNodes > 0 {
		st.AvgFanout = float64(fanout) / float64(st.IndexNodes)
	}
	return st, nil
}

// codec serializes SR-tree nodes.
type codec struct{ dim int }

// Encode implements nodestore.Codec. Layout: magic 'S', type byte, dim
// uint16, count uint16, then entries.
func (c codec) Encode(n *node, buf []byte) (int, error) {
	buf[0] = 'S'
	binary.LittleEndian.PutUint16(buf[2:], uint16(c.dim))
	if n.leaf {
		buf[1] = 0
		binary.LittleEndian.PutUint16(buf[4:], uint16(len(n.pts)))
		off := headerSize
		for i, p := range n.pts {
			binary.LittleEndian.PutUint64(buf[off:], n.rids[i])
			off += 8
			for _, v := range p {
				binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
				off += 4
			}
		}
		return off, nil
	}
	buf[1] = 1
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(n.ents)))
	off := headerSize
	for i := range n.ents {
		e := &n.ents[i]
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.child))
		off += 4
		// Round the radius up when float32 narrowing would shrink it: a
		// too-small sphere would prune away true results.
		r32 := float32(e.radius)
		if float64(r32) < e.radius {
			r32 = math.Nextafter32(r32, float32(math.Inf(1)))
		}
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(r32))
		off += 4
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.count))
		off += 4
		for _, v := range e.centroid {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
		for _, v := range e.rect.Lo {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
		for _, v := range e.rect.Hi {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return off, nil
}

// Decode implements nodestore.Codec.
func (c codec) Decode(id pagefile.PageID, buf []byte) (*node, error) {
	if len(buf) < headerSize || buf[0] != 'S' {
		return nil, fmt.Errorf("srtree: corrupt page %d", id)
	}
	if got := int(binary.LittleEndian.Uint16(buf[2:])); got != c.dim {
		return nil, fmt.Errorf("srtree: page %d dim %d, want %d", id, got, c.dim)
	}
	count := int(binary.LittleEndian.Uint16(buf[4:]))
	n := &node{id: id}
	off := headerSize
	switch buf[1] {
	case 0:
		if headerSize+count*(8+4*c.dim) > len(buf) {
			return nil, fmt.Errorf("srtree: page %d entry count exceeds page", id)
		}
		n.leaf = true
		for i := 0; i < count; i++ {
			n.rids = append(n.rids, binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			p := make(geom.Point, c.dim)
			for d := range p {
				p[d] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
			}
			n.pts = append(n.pts, p)
		}
	case 1:
		if headerSize+count*(12*c.dim+12) > len(buf) {
			return nil, fmt.Errorf("srtree: page %d entry count exceeds page", id)
		}
		for i := 0; i < count; i++ {
			var e entry
			e.child = pagefile.PageID(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			e.radius = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
			off += 4
			e.count = int32(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			e.centroid = make(geom.Point, c.dim)
			for d := range e.centroid {
				e.centroid[d] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
			}
			e.rect = geom.Rect{Lo: make(geom.Point, c.dim), Hi: make(geom.Point, c.dim)}
			for d := range e.rect.Lo {
				e.rect.Lo[d] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
			}
			for d := range e.rect.Hi {
				e.rect.Hi[d] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
			}
			n.ents = append(n.ents, e)
		}
	default:
		return nil, fmt.Errorf("srtree: page %d bad node type", id)
	}
	return n, nil
}
