// Package kdbtree implements Robinson's K-D-B-tree (SIGMOD 1981), the only
// prior disk-based structure with single-dimension splits — and the
// motivating strawman of the hybrid tree paper. Because the K-D-B-tree
// insists on *clean* (mutually disjoint) region splits, splitting an index
// node forces every straddling child to split as well, cascading downward;
// cascades produce underfull and even empty nodes, which is why the
// structure has no utilization guarantee (Table 1) and why the hybrid tree
// relaxes exactly this constraint by allowing overlapping split positions.
//
// Regions are stored explicitly as rectangles (as in the original paper),
// so index fanout also degrades with dimensionality here.
package kdbtree

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
	// Space is the indexed region; defaults to the unit cube.
	Space geom.Rect
}

type node struct {
	id   pagefile.PageID
	leaf bool
	// Point page payload.
	pts  []geom.Point
	rids []uint64
	// Region page payload: disjoint child regions.
	rects    []geom.Rect
	children []pagefile.PageID
}

// Tree is a K-D-B-tree over a page file.
type Tree struct {
	cfg    Config
	file   pagefile.File
	store  *nodestore.Store[*node]
	root   pagefile.PageID
	rootRe geom.Rect
	height int
	size   int
	// CascadeSplits counts forced downward splits; EmptyNodes is audited
	// by Stats. Both exist to demonstrate the failure mode the hybrid tree
	// paper cites.
	CascadeSplits int
	prunes        *obs.Counter // index_prunes_total{method="kdb"}
}

const headerSize = 6

func (cfg *Config) leafCap() int { return (cfg.PageSize - headerSize) / (8 + 4*cfg.Dim) }
func (cfg *Config) nodeCap() int { return (cfg.PageSize - headerSize) / (8*cfg.Dim + 4) }

// New creates an empty K-D-B-tree on file.
func New(file pagefile.File, cfg Config) (*Tree, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("kdbtree: dim must be >= 1, got %d", cfg.Dim)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = file.PageSize()
	}
	if cfg.PageSize != file.PageSize() {
		return nil, fmt.Errorf("kdbtree: page size %d != file page size %d", cfg.PageSize, file.PageSize())
	}
	if cfg.Space.Dim() == 0 {
		cfg.Space = geom.UnitCube(cfg.Dim)
	}
	if cfg.leafCap() < 2 || cfg.nodeCap() < 2 {
		return nil, fmt.Errorf("kdbtree: page size %d too small for %d dimensions", cfg.PageSize, cfg.Dim)
	}
	t := &Tree{cfg: cfg, file: file, rootRe: cfg.Space, prunes: obs.PruneCounter(obs.Default(), "kdb")}
	t.store = nodestore.New[*node](file, codec{dim: cfg.Dim})
	t.store.SetObsMethod("kdb")
	id, err := t.store.Alloc()
	if err != nil {
		return nil, err
	}
	root := &node{id: id, leaf: true}
	if err := t.store.Put(id, root); err != nil {
		return nil, err
	}
	t.root = id
	t.height = 1
	return t, nil
}

// Name implements index.Index.
func (t *Tree) Name() string { return "kdb" }

// File implements index.Index.
func (t *Tree) File() pagefile.File { return t.file }

// Insert implements index.Index.
func (t *Tree) Insert(p geom.Point, rid uint64) error {
	if len(p) != t.cfg.Dim {
		return fmt.Errorf("kdbtree: vector has dim %d, want %d", len(p), t.cfg.Dim)
	}
	if !t.cfg.Space.Contains(p) {
		return fmt.Errorf("kdbtree: vector %v outside the indexed space", p)
	}
	sp, err := t.insertAt(t.root, t.rootRe, p.Clone(), rid)
	if err != nil {
		return err
	}
	if sp != nil {
		id, err := t.store.Alloc()
		if err != nil {
			return err
		}
		root := &node{id: id,
			rects:    []geom.Rect{sp.leftRect, sp.rightRect},
			children: []pagefile.PageID{sp.left, sp.right}}
		if err := t.store.Put(id, root); err != nil {
			return err
		}
		t.root = id
		t.height++
	}
	t.size++
	return nil
}

// Delete implements index.Index. Regions are disjoint, but a point on a
// shared boundary lies in both closed rectangles, so every containing
// region is probed. Empty point pages are already legal in a K-D-B-tree
// (split cascades create them), so no restructuring is needed.
func (t *Tree) Delete(p geom.Point, rid uint64) (bool, error) {
	if len(p) != t.cfg.Dim {
		return false, fmt.Errorf("kdbtree: vector has dim %d, want %d", len(p), t.cfg.Dim)
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
	for i := range n.rects {
		if !n.rects[i].Contains(p) {
			continue
		}
		found, err := t.deleteAt(n.children[i], p, rid)
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
}

type splitInfo struct {
	leftRect, rightRect geom.Rect
	left, right         pagefile.PageID
}

func (t *Tree) insertAt(id pagefile.PageID, region geom.Rect, p geom.Point, rid uint64) (*splitInfo, error) {
	n, err := t.store.Get(id)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		n.pts = append(n.pts, p)
		n.rids = append(n.rids, rid)
		if len(n.pts) > t.cfg.leafCap() {
			return t.splitLeaf(n, region)
		}
		return nil, t.store.Put(id, n)
	}
	// Regions are disjoint: descend into the first containing region
	// (boundary ties resolve to the lowest index deterministically).
	for i := range n.rects {
		if n.rects[i].Contains(p) {
			sp, err := t.insertAt(n.children[i], n.rects[i], p, rid)
			if err != nil {
				return nil, err
			}
			if sp != nil {
				n.rects[i] = sp.leftRect
				n.children[i] = sp.left
				n.rects = append(n.rects, sp.rightRect)
				n.children = append(n.children, sp.right)
				if len(n.children) > t.cfg.nodeCap() {
					return t.splitRegion(n, region)
				}
			}
			return nil, t.store.Put(id, n)
		}
	}
	return nil, fmt.Errorf("kdbtree: no region for %v in node %d (disjointness violated)", p, id)
}

// splitLeaf performs a clean median split of an overflowing point page.
func (t *Tree) splitLeaf(n *node, region geom.Rect) (*splitInfo, error) {
	br := geom.BoundingRect(n.pts)
	dim := br.MaxExtentDim()
	coords := make([]float64, len(n.pts))
	for i, p := range n.pts {
		coords[i] = float64(p[dim])
	}
	sort.Float64s(coords)
	val := float32(coords[len(coords)/2])
	// A median equal to the minimum (duplicate mass) would put everything
	// right; nudge to the next distinct value when possible.
	if val == float32(coords[0]) {
		for _, c := range coords {
			if float32(c) > val {
				val = float32(c)
				break
			}
		}
	}
	return t.cutNode(n, region, dim, val)
}

// splitRegion splits an overflowing region page by a hyperplane, forcing
// straddling children to split — the cascade.
func (t *Tree) splitRegion(n *node, region geom.Rect) (*splitInfo, error) {
	// Choose the dimension with the most distinct child boundaries and cut
	// at the median boundary, so both sides are guaranteed non-empty.
	bestDim, bestVal, bestCount := -1, float32(0), -1
	for d := 0; d < t.cfg.Dim; d++ {
		var bounds []float32
		for i := range n.rects {
			lo := n.rects[i].Lo[d]
			if lo > region.Lo[d] && lo < region.Hi[d] {
				bounds = append(bounds, lo)
			}
		}
		if len(bounds) == 0 {
			continue
		}
		sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
		if len(bounds) > bestCount {
			bestDim, bestVal, bestCount = d, bounds[len(bounds)/2], len(bounds)
		}
	}
	if bestDim < 0 {
		// No internal boundary anywhere (pathological); cut the region in
		// half on its widest dimension.
		bestDim = region.MaxExtentDim()
		bestVal = (region.Lo[bestDim] + region.Hi[bestDim]) / 2
	}
	return t.cutNode(n, region, bestDim, bestVal)
}

// cutNode splits node n (of either kind) cleanly by the hyperplane
// x_dim = val within region, recursively force-splitting straddling
// children. The left node reuses n's page. Either side may end up empty —
// the K-D-B-tree's documented weakness.
func (t *Tree) cutNode(n *node, region geom.Rect, dim int, val float32) (*splitInfo, error) {
	leftRect := region.Clone()
	leftRect.Hi[dim] = val
	rightRect := region.Clone()
	rightRect.Lo[dim] = val

	rid, err := t.store.Alloc()
	if err != nil {
		return nil, err
	}
	right := &node{id: rid, leaf: n.leaf}

	if n.leaf {
		var lp []geom.Point
		var lr []uint64
		for i, p := range n.pts {
			if p[dim] < val {
				lp = append(lp, p)
				lr = append(lr, n.rids[i])
			} else {
				right.pts = append(right.pts, p)
				right.rids = append(right.rids, n.rids[i])
			}
		}
		n.pts, n.rids = lp, lr
	} else {
		var lrects []geom.Rect
		var lkids []pagefile.PageID
		for i := range n.rects {
			r := n.rects[i]
			child := n.children[i]
			switch {
			case r.Hi[dim] <= val:
				lrects = append(lrects, r)
				lkids = append(lkids, child)
			case r.Lo[dim] >= val:
				right.rects = append(right.rects, r)
				right.children = append(right.children, child)
			default:
				// Straddler: forced downward split.
				t.CascadeSplits++
				childN, err := t.store.Get(child)
				if err != nil {
					return nil, err
				}
				sp, err := t.cutNode(childN, r, dim, val)
				if err != nil {
					return nil, err
				}
				lrects = append(lrects, sp.leftRect)
				lkids = append(lkids, sp.left)
				right.rects = append(right.rects, sp.rightRect)
				right.children = append(right.children, sp.right)
			}
		}
		n.rects, n.children = lrects, lkids
	}
	if err := t.store.Put(n.id, n); err != nil {
		return nil, err
	}
	if err := t.store.Put(right.id, right); err != nil {
		return nil, err
	}
	return &splitInfo{leftRect: leftRect, rightRect: rightRect, left: n.id, right: right.id}, nil
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
		for i := range n.rects {
			if n.rects[i].Intersects(q) {
				if err := walk(n.children[i]); err != nil {
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

// searchRange prunes by MINDIST (regions are plain rectangles, so any
// metric's MINDIST applies).
func (t *Tree) searchRange(q geom.Point, radius float64, m dist.Metric) ([]core.Neighbor, error) {
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
				if d := m.Distance(q, p); d <= radius {
					out = append(out, core.Neighbor{Entry: core.Entry{Point: p, RID: core.RecordID(n.rids[i])}, Dist: d})
				}
			}
			return nil
		}
		for i := range n.rects {
			if m.MinDistRect(q, n.rects[i]) <= radius {
				if err := walk(n.children[i]); err != nil {
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

// searchKNN is best-first traversal.
func (t *Tree) searchKNN(q geom.Point, k int, m dist.Metric) ([]core.Neighbor, error) {
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
			for i, p := range n.pts {
				d := m.Distance(q, p)
				best.Offer(core.Neighbor{Entry: core.Entry{Point: p, RID: core.RecordID(n.rids[i])}, Dist: d}, d)
			}
			continue
		}
		for i := range n.rects {
			md := m.MinDistRect(q, n.rects[i])
			if !best.Full() || md <= best.Bound() {
				pq.Push(n.children[i], md)
			} else {
				pruned++
			}
		}
	}
	t.prunes.Add(uint64(pruned))
	ns, _ := best.Sorted()
	return ns, nil
}

// Stats summarizes the structure, in particular the empty and underfull
// nodes cascades produce.
type Stats struct {
	Height      int
	LeafNodes   int
	IndexNodes  int
	EmptyNodes  int
	Entries     int
	AvgLeafFill float64
	MinLeafFill float64
	Cascades    int
}

// Stats walks the tree without perturbing access counters.
func (t *Tree) Stats() (Stats, error) {
	saved := *t.file.Stats()
	defer func() { *t.file.Stats() = saved }()
	savedObs := t.store.PauseObs()
	defer t.store.ResumeObs(savedObs)
	st := Stats{Height: t.height, Cascades: t.CascadeSplits, MinLeafFill: 1}
	var fillSum float64
	var walk func(id pagefile.PageID) error
	walk = func(id pagefile.PageID) error {
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		if n.leaf {
			st.LeafNodes++
			st.Entries += len(n.pts)
			fill := float64(len(n.pts)) / float64(t.cfg.leafCap())
			fillSum += fill
			if fill < st.MinLeafFill {
				st.MinLeafFill = fill
			}
			if len(n.pts) == 0 {
				st.EmptyNodes++
			}
			return nil
		}
		st.IndexNodes++
		if len(n.children) == 0 {
			st.EmptyNodes++
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return Stats{}, err
	}
	if st.LeafNodes > 0 {
		st.AvgLeafFill = fillSum / float64(st.LeafNodes)
	}
	return st, nil
}

// codec serializes K-D-B-tree nodes. Layout: magic 'K', type, dim uint16,
// count uint16, then entries.
type codec struct{ dim int }

// Encode implements nodestore.Codec.
func (c codec) Encode(n *node, buf []byte) (int, error) {
	buf[0] = 'K'
	binary.LittleEndian.PutUint16(buf[2:], uint16(c.dim))
	off := headerSize
	if n.leaf {
		buf[1] = 0
		binary.LittleEndian.PutUint16(buf[4:], uint16(len(n.pts)))
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
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(n.children)))
	for i := range n.children {
		binary.LittleEndian.PutUint32(buf[off:], uint32(n.children[i]))
		off += 4
		for _, v := range n.rects[i].Lo {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
		for _, v := range n.rects[i].Hi {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return off, nil
}

// Decode implements nodestore.Codec.
func (c codec) Decode(id pagefile.PageID, buf []byte) (*node, error) {
	if len(buf) < headerSize || buf[0] != 'K' {
		return nil, fmt.Errorf("kdbtree: corrupt page %d", id)
	}
	if got := int(binary.LittleEndian.Uint16(buf[2:])); got != c.dim {
		return nil, fmt.Errorf("kdbtree: page %d dim %d, want %d", id, got, c.dim)
	}
	count := int(binary.LittleEndian.Uint16(buf[4:]))
	n := &node{id: id}
	off := headerSize
	switch buf[1] {
	case 0:
		if headerSize+count*(8+4*c.dim) > len(buf) {
			return nil, fmt.Errorf("kdbtree: page %d entry count exceeds page", id)
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
		if headerSize+count*(8*c.dim+4) > len(buf) {
			return nil, fmt.Errorf("kdbtree: page %d region count exceeds page", id)
		}
		for i := 0; i < count; i++ {
			n.children = append(n.children, pagefile.PageID(binary.LittleEndian.Uint32(buf[off:])))
			off += 4
			r := geom.Rect{Lo: make(geom.Point, c.dim), Hi: make(geom.Point, c.dim)}
			for d := range r.Lo {
				r.Lo[d] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
			}
			for d := range r.Hi {
				r.Hi[d] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
			}
			n.rects = append(n.rects, r)
		}
	default:
		return nil, fmt.Errorf("kdbtree: page %d bad node type", id)
	}
	return n, nil
}
