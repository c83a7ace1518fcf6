package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hybridtree/internal/els"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// BulkLoad builds a hybrid tree over a whole dataset at once. It recursively
// partitions the data with the configured split policy into data pages
// filled to ~bulkFill of capacity, then packs the resulting split tree into
// index pages top-down, so the final structure is exactly the shape
// incremental insertion aims for — clean single-dimension splits, kd-tree
// intra-node organization, dimensionality-independent fanout — but with
// higher utilization and no intermediate splits. The returned tree supports
// all subsequent operations (Insert, Delete, every search).
//
// The paper's VAMSplit reference [24] is a bulk-loading algorithm of this
// family; BulkLoad uses the tree's own policy (EDA by default), so bulk and
// incremental builds stay comparable.
func BulkLoad(file pagefile.File, cfg Config, pts []geom.Point, rids []RecordID) (*Tree, error) {
	if len(pts) != len(rids) {
		return nil, fmt.Errorf("core: %d points but %d record ids", len(pts), len(rids))
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if file.PageSize() != cfg.PageSize {
		return nil, fmt.Errorf("core: file page size %d != configured %d", file.PageSize(), cfg.PageSize)
	}
	for i, p := range pts {
		if len(p) != cfg.Dim {
			return nil, fmt.Errorf("core: point %d has dim %d, want %d", i, len(p), cfg.Dim)
		}
		if !cfg.Space.Contains(p) {
			return nil, fmt.Errorf("core: point %d outside the data space", i)
		}
	}

	t := &Tree{
		cfg:     cfg,
		file:    file,
		store:   newStore(file, cfg.Dim),
		els:     els.NewTable(cfg.ELSBits),
		elsHead: pagefile.InvalidPage,
	}
	metaID, err := file.Allocate()
	if err != nil {
		return nil, err
	}
	t.meta = metaID

	if len(pts) == 0 {
		root, err := t.store.alloc(true)
		if err != nil {
			return nil, err
		}
		if err := t.store.writeThrough(root); err != nil {
			return nil, err
		}
		t.root = root.id
		t.height = 1
		t.publishNow()
		return t, t.writeMeta()
	}

	// Work on index slices so the caller's data is not reordered.
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	split, err := t.bulkSplit(pts, rids, order)
	if err != nil {
		return nil, err
	}
	rootID, height, err := t.bulkPack(split)
	if err != nil {
		return nil, err
	}
	t.root = rootID
	t.height = height
	t.size = len(pts)
	if t.els.Enabled() {
		if err := t.RebuildELS(); err != nil {
			return nil, err
		}
	}
	t.publishNow()
	return t, t.writeMeta()
}

// bulkFill is the target data-page fill fraction for bulk loads; the
// remaining headroom absorbs future inserts without immediate splits.
const bulkFill = 0.85

// bulkNode is a node of the in-memory split tree: either a finished data
// page (leaf) or a clean single-dimension split.
type bulkNode struct {
	page        pagefile.PageID // leaf: the data page
	dim         uint16
	pos         float32
	left, right *bulkNode
	leaves      int
}

// bulkSplit recursively partitions the points (by index) into data pages.
func (t *Tree) bulkSplit(pts []geom.Point, rids []RecordID, order []int) (*bulkNode, error) {
	target := int(bulkFill * float64(t.cfg.dataCapacity()))
	if target < 1 {
		target = 1
	}
	if len(order) <= target {
		n, err := t.store.alloc(true)
		if err != nil {
			return nil, err
		}
		for _, i := range order {
			n.appendPoint(pts[i], rids[i])
		}
		if err := t.store.writeThrough(n); err != nil {
			return nil, err
		}
		return &bulkNode{page: n.id, leaves: 1}, nil
	}

	// Policy-chosen split over this subset; clamp the cut so both sides
	// can still fill pages reasonably.
	sub := make([]geom.Point, len(order))
	for i, j := range order {
		sub[i] = pts[j]
	}
	dim, pos := t.cfg.Policy.ChooseDataSplit(sub, geom.BoundingRect(sub))
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(pts[a][dim], pts[b][dim]) })
	cut := sort.Search(len(order), func(i int) bool { return pts[order[i]][dim] > pos })
	// Round the cut to a multiple of the page target (the VAMSplit trick):
	// the left recursion then tiles into full pages and only the rightmost
	// page of the whole build carries the remainder.
	cut = (cut + target/2) / target * target
	maxCut := (len(order) - 1) / target * target
	if cut > maxCut {
		cut = maxCut
	}
	if cut < target {
		cut = target
	}
	split := (pts[order[cut-1]][dim] + pts[order[cut]][dim]) / 2

	left, err := t.bulkSplit(pts, rids, order[:cut])
	if err != nil {
		return nil, err
	}
	right, err := t.bulkSplit(pts, rids, order[cut:])
	if err != nil {
		return nil, err
	}
	return &bulkNode{dim: uint16(dim), pos: split, left: left, right: right,
		leaves: left.leaves + right.leaves}, nil
}

// bulkPack cuts the split tree into index pages of uniform height (every
// data page must sit at level 1, so siblings pack to equal heights, with
// single-child chains padding shallow corners). Returns the root page and
// the tree height.
func (t *Tree) bulkPack(b *bulkNode) (pagefile.PageID, int, error) {
	// The packing budget is half the page fanout: cutting a binary split
	// tree into pieces of at most budget leaves can yield up to twice that
	// many pieces in a node, which must still fit the page.
	budget := t.cfg.maxFanout() / 2
	if budget < 2 {
		budget = 2
	}
	// Height needed for L data pages with this fanout budget.
	height := 1
	capacity := 1
	for capacity < b.leaves {
		capacity *= budget
		height++
	}
	id, err := t.bulkPackTo(b, height, budget)
	return id, height, err
}

// bulkPackTo packs subtree b into a node of exactly the target height.
func (t *Tree) bulkPackTo(b *bulkNode, target, budget int) (pagefile.PageID, error) {
	if b.left == nil {
		// A lone data page below a tall level: pad with single-child index
		// nodes so every data page sits at level 1.
		id := b.page
		for h := 2; h <= target; h++ {
			wrap, err := t.store.alloc(false)
			if err != nil {
				return pagefile.InvalidPage, err
			}
			wrap.kd = []kdNode{{Left: kdNone, Right: kdNone, Child: id}}
			wrap.kdRoot = 0
			if err := t.store.writeThrough(wrap); err != nil {
				return pagefile.InvalidPage, err
			}
			id = wrap.id
		}
		return id, nil
	}

	// Capacity of one child subtree at the level below.
	childCap := 1
	for h := 2; h < target; h++ {
		childCap *= budget
	}
	// Expand the cut until every member fits a child subtree.
	cut := map[*bulkNode]bool{b: true}
	for {
		var expand *bulkNode
		for c := range cut {
			if c.left != nil && c.leaves > childCap {
				expand = c
				break
			}
		}
		if expand == nil {
			break
		}
		delete(cut, expand)
		cut[expand.left] = true
		cut[expand.right] = true
	}

	n, err := t.store.alloc(false)
	if err != nil {
		return pagefile.InvalidPage, err
	}
	var build func(cur *bulkNode) (int32, error)
	build = func(cur *bulkNode) (int32, error) {
		if cut[cur] {
			child, err := t.bulkPackTo(cur, target-1, budget)
			if err != nil {
				return kdNone, err
			}
			idx := int32(len(n.kd))
			n.kd = append(n.kd, kdNode{Left: kdNone, Right: kdNone, Child: child})
			return idx, nil
		}
		idx := int32(len(n.kd))
		n.kd = append(n.kd, kdNode{Dim: cur.dim, Lsp: cur.pos, Rsp: cur.pos})
		l, err := build(cur.left)
		if err != nil {
			return kdNone, err
		}
		r, err := build(cur.right)
		if err != nil {
			return kdNone, err
		}
		n.kd[idx].Left, n.kd[idx].Right = l, r
		return idx, nil
	}
	root, err := build(b)
	if err != nil {
		return pagefile.InvalidPage, err
	}
	n.kdRoot = root
	if size := n.serializedSize(t.cfg.Dim); size > t.cfg.PageSize {
		return pagefile.InvalidPage, fmt.Errorf("core: bulk-packed node %d needs %d bytes (page %d)", n.id, size, t.cfg.PageSize)
	}
	if err := t.store.writeThrough(n); err != nil {
		return pagefile.InvalidPage, err
	}
	return n.id, nil
}
