package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

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
	if len(pts) == 0 {
		return New(file, cfg)
	}
	t, err := newTree(file, cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if len(p) != t.cfg.Dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrBadVector, i, len(p), t.cfg.Dim)
		}
		if !t.cfg.Space.Contains(p) {
			return nil, fmt.Errorf("%w: point %d %v outside the data space %v", ErrBadVector, i, p, t.cfg.Space)
		}
	}
	if t.meta, err = file.Allocate(); err != nil {
		return nil, err
	}
	// Without a log nothing makes the build atomic: page 0 is marked dirty
	// and synced before the first data page, so a build that dies partway
	// opens to ErrUncleanShutdown, and a finished one ends clean and synced.
	if t.tx == nil {
		if err := t.markDirty(); err != nil {
			return nil, err
		}
	}

	split, err := t.bulkSplit(pts, rids)
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
	if err := t.RebuildELS(); err != nil {
		return nil, err
	}
	if t.tx != nil {
		return t, t.writeMeta()
	}
	return t, t.markClean()
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

// bulkSplit partitions the points into data pages and returns the split
// tree over them. The caller's slices are not reordered.
func (t *Tree) bulkSplit(pts []geom.Point, rids []RecordID) (*bulkNode, error) {
	target := int(bulkFill * float64(t.cfg.dataCapacity()))
	if target < 1 {
		target = 1
	}
	n := len(pts)
	b := &bulkSplitter{
		t:       t,
		target:  target,
		pts:     slices.Clone(pts),
		rids:    slices.Clone(rids),
		keys:    make([]splitKey, n),
		tmpKeys: make([]splitKey, n),
		tmpPts:  make([]geom.Point, n),
		tmpRids: make([]RecordID, n),
	}
	return b.split(0, n, geom.BoundingRect(pts), 0)
}

// bulkSplitter carries one bulk load's partition state. pts and rids are
// private copies of the input that every split level permutes in place, so
// a subtree always owns one contiguous range [lo, hi) of them; the other
// slices are scratch of the same length, of which a range uses the same
// positions. rects[k] holds the two bounding rectangles a split at depth k
// hands its children, flat: left Lo, left Hi, right Lo, right Hi.
type bulkSplitter struct {
	t       *Tree
	target  int
	pts     []geom.Point
	rids    []RecordID
	keys    []splitKey
	tmpKeys []splitKey
	tmpPts  []geom.Point
	tmpRids []RecordID
	rects   [][]float32
}

// splitKey is one entry's split coordinate, as orderedBits, and its
// position in its range before the sort.
type splitKey struct {
	k uint32
	p int32
}

// orderedBits maps a float32 to a uint32 of the same order: negatives have
// every bit flipped, non-negatives only the sign bit. -0 is folded into +0
// first, so the two compare equal as they do as floats. NaN has no place in
// the order.
func orderedBits(v float32) uint32 {
	u := math.Float32bits(v)
	if u == 1<<31 {
		u = 0
	}
	if u&(1<<31) != 0 {
		return ^u
	}
	return u | 1<<31
}

// radixSort sorts keys by k, stably, using tmp (of the same length) as
// scratch: an LSD radix sort over the four bytes of k, skipping any byte in
// which every key agrees.
func radixSort(keys, tmp []splitKey) {
	if len(keys) < 2 {
		return
	}
	var counts [4][256]int
	for _, e := range keys {
		counts[0][e.k&0xff]++
		counts[1][e.k>>8&0xff]++
		counts[2][e.k>>16&0xff]++
		counts[3][e.k>>24]++
	}
	src, dst := keys, tmp
	for pass := range counts {
		shift := 8 * pass
		c := &counts[pass]
		if c[src[0].k>>shift&0xff] == len(src) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, e := range src {
			d := e.k >> shift & 0xff
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// split turns the range [lo, hi), whose bounding rectangle is br, into a
// data page, or partitions it and recurses into both halves.
//
// A partitioned range is left in the order of a stable sort by the split
// coordinate: ties keep the order the parent level left them in. That order
// decides which entries share a page near a cut, the order of entries
// within each data page, and what the next level's policy sees, so it is
// part of the file format of a bulk load. A stable radix sort of contiguous
// (key, position) pairs yields exactly that permutation without touching a
// row; it needs totally ordered keys, which is why BulkLoad refuses NaN and
// orderedBits folds -0 into +0.
//
// Each child's bounding rectangle is derived from br (childRects) rather
// than rescanned, which on skewed data saves most of a deep build's reads.
func (b *bulkSplitter) split(lo, hi int, br geom.Rect, depth int) (*bulkNode, error) {
	pts, rids := b.pts[lo:hi], b.rids[lo:hi]
	if len(pts) <= b.target {
		n, err := b.t.store.alloc(true)
		if err != nil {
			return nil, err
		}
		for i, p := range pts {
			n.appendPoint(p, rids[i])
		}
		if err := b.t.store.writeThrough(n); err != nil {
			return nil, err
		}
		return &bulkNode{page: n.id, leaves: 1}, nil
	}

	// Policy-chosen split over this subset; clamp the cut so both sides
	// can still fill pages reasonably.
	dim, pos := b.t.cfg.Policy.ChooseDataSplit(pts, br)
	keys := b.keys[lo:hi]
	for i, p := range pts {
		keys[i] = splitKey{orderedBits(p[dim]), int32(i)}
	}
	radixSort(keys, b.tmpKeys[lo:hi])
	tmpPts, tmpRids := b.tmpPts[lo:hi], b.tmpRids[lo:hi]
	for i, k := range keys {
		tmpPts[i], tmpRids[i] = pts[k.p], rids[k.p]
	}
	copy(pts, tmpPts)
	copy(rids, tmpRids)

	cut := sort.Search(len(pts), func(i int) bool { return pts[i][dim] > pos })
	// Round the cut to a multiple of the page target (the VAMSplit trick):
	// the left recursion then tiles into full pages and only the rightmost
	// page of the whole build carries the remainder.
	cut = (cut + b.target/2) / b.target * b.target
	maxCut := (len(pts) - 1) / b.target * b.target
	if cut > maxCut {
		cut = maxCut
	}
	if cut < b.target {
		cut = b.target
	}

	split := (pts[cut-1][dim] + pts[cut][dim]) / 2

	// A data page needs no rectangle, so none is derived when both sides
	// are pages.
	var lbr, rbr geom.Rect
	if max(cut, len(pts)-cut) > b.target {
		d := len(br.Lo)
		if depth == len(b.rects) {
			b.rects = append(b.rects, make([]float32, 4*d))
		}
		r := b.rects[depth]
		lbr = geom.Rect{Lo: r[:d:d], Hi: r[d : 2*d : 2*d]}
		rbr = geom.Rect{Lo: r[2*d : 3*d : 3*d], Hi: r[3*d:]}
		childRects(pts, cut, br, lbr, rbr)
	}
	left, err := b.split(lo, lo+cut, lbr, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := b.split(lo+cut, hi, rbr, depth+1)
	if err != nil {
		return nil, err
	}
	return &bulkNode{dim: uint16(dim), pos: split, left: left, right: right,
		leaves: left.leaves + right.leaves}, nil
}

// childRects writes into left and right the bounding rectangles of
// pts[:cut] and pts[cut:], bit for bit what geom.BoundingRect returns for
// each, given br = geom.BoundingRect of some order of pts. Only the smaller
// side is scanned whole. The larger side inherits br's bound wherever no
// other row can hold it: a value that the smaller side does not attain is
// attained only in the larger side, by rows whose bits all agree. Where the
// smaller side ties the bound, or the bound is zero (whose rows may disagree
// in sign, and which geom.BoundingRect settles by range order), the larger
// side's one coordinate is re-read in range order, up to the first row that
// attains the bound.
func childRects(pts []geom.Point, cut int, br, left, right geom.Rect) {
	small, big := pts[:cut], pts[cut:]
	sbr, bbr := left, right
	if len(small) > len(big) {
		small, big, sbr, bbr = big, small, right, left
	}
	copy(sbr.Lo, small[0])
	copy(sbr.Hi, small[0])
	for _, p := range small[1:] {
		sbr.Enlarge(p)
	}
	// The comparisons are geom.Rect.Enlarge's: strict, so that of equal
	// values (-0 and +0) the first row's stands.
	for d, lo := range br.Lo {
		v := lo
		if lo == 0 || sbr.Lo[d] == lo {
			v = big[0][d]
			for i := 1; i < len(big) && v != lo; i++ {
				if big[i][d] < v {
					v = big[i][d]
				}
			}
		}
		bbr.Lo[d] = v
	}
	for d, hi := range br.Hi {
		v := hi
		if hi == 0 || sbr.Hi[d] == hi {
			v = big[0][d]
			for i := 1; i < len(big) && v != hi; i++ {
				if big[i][d] > v {
					v = big[i][d]
				}
			}
		}
		bbr.Hi[d] = v
	}
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
