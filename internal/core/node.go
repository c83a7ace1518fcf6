package core

import (
	"fmt"

	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// kdNone marks an absent kd-arena link.
const kdNone int32 = -1

// kdNode is one node of the intra-node kd-tree. Internal nodes carry the
// split dimension and the two split positions of the paper's modified
// kd-tree: Lsp bounds the lower-side subtree from above (x_dim <= Lsp) and
// Rsp bounds the higher-side subtree from below (x_dim >= Rsp). Lsp == Rsp
// is a clean split; Lsp > Rsp means the two subspaces overlap in
// [Rsp, Lsp]; Lsp < Rsp leaves a gap no data currently occupies.
//
// Leaf nodes reference a child page of the hybrid tree; the children of a
// hybrid tree node are exactly the kd-leaves of its kd-tree (Figure 1).
type kdNode struct {
	Dim         uint16
	Lsp, Rsp    float32
	Left, Right int32           // arena indices; kdNone on leaves
	Child       pagefile.PageID // valid on leaves only
}

func (k *kdNode) isLeaf() bool { return k.Left == kdNone && k.Right == kdNone }

// node is the decoded form of one hybrid tree page: either a data node
// (points plus record ids) or an index node (a kd-tree over children).
type node struct {
	id   pagefile.PageID
	leaf bool

	// Data node payload: one contiguous slab of count*dim coordinates, so
	// leaf scans stream linearly instead of pointer-chasing one heap
	// allocation per point. vals[i*dim:(i+1)*dim] is point i and belongs to
	// rids[i]; dim is the tree dimensionality, fixed at decode/alloc time.
	dim  int
	vals []float32
	rids []RecordID

	// Index node payload: kd-tree arena. kdRoot indexes the root; dead
	// entries may exist after child removal until the next encode, which
	// compacts reachable nodes.
	kd     []kdNode
	kdRoot int32
}

// count returns the number of entries in a data node.
func (n *node) count() int { return len(n.rids) }

// point returns a view of point i over the slab. The full slice expression
// caps the view so an append through it can never clobber point i+1.
func (n *node) point(i int) geom.Point {
	return geom.Point(n.vals[i*n.dim : (i+1)*n.dim : (i+1)*n.dim])
}

// coord returns coordinate d of point i without building a slice header —
// the form split-ordering comparators want.
func (n *node) coord(i, d int) float32 { return n.vals[i*n.dim+d] }

// appendPoint appends one entry to the data node payload.
func (n *node) appendPoint(p geom.Point, rid RecordID) {
	n.vals = append(n.vals, p...)
	n.rids = append(n.rids, rid)
}

// swapRemove removes entry i by moving the last entry into its slot (order
// is not meaningful inside a data node).
func (n *node) swapRemove(i int) {
	last := n.count() - 1
	copy(n.vals[i*n.dim:(i+1)*n.dim], n.vals[last*n.dim:(last+1)*n.dim])
	n.rids[i] = n.rids[last]
	n.vals = n.vals[:last*n.dim]
	n.rids = n.rids[:last]
}

// materializePoints appends per-point views of the slab to dst — for cold
// paths (split policies, orphan reinsertion) that want []geom.Point. The
// views alias the slab; callers must treat them as read-only.
func (n *node) materializePoints(dst []geom.Point) []geom.Point {
	for i := 0; i < n.count(); i++ {
		dst = append(dst, n.point(i))
	}
	return dst
}

// clone returns a private copy the writer may mutate freely. The slab is
// copied wholesale, so published versions a concurrent reader holds are
// never touched — the MVCC copy-on-write boundary.
func (n *node) clone() *node {
	c := &node{id: n.id, leaf: n.leaf, dim: n.dim, kdRoot: n.kdRoot}
	// Room for exactly one more entry: an insert's clone takes one, and
	// growing by append instead leaves the node cache holding a slab half
	// again the size of every leaf ever inserted into.
	if n.vals != nil {
		c.vals = append(make([]float32, 0, len(n.vals)+n.dim), n.vals...)
	}
	if n.rids != nil {
		c.rids = append(make([]RecordID, 0, len(n.rids)+1), n.rids...)
	}
	if n.kd != nil {
		c.kd = append([]kdNode(nil), n.kd...)
	}
	return c
}

// numChildren returns the number of children (kd leaves) of an index node.
func (n *node) numChildren() int {
	if n.leaf {
		return 0
	}
	count := 0
	n.walkLeaves(func(int32) { count++ })
	return count
}

// walkLeaves calls fn for every reachable kd-leaf arena index, in tree
// order.
func (n *node) walkLeaves(fn func(idx int32)) {
	if n.kdRoot == kdNone {
		return
	}
	// Explicit stack; intra-node trees are small but recursion adds
	// per-call overhead on the hottest path in the system.
	stack := make([]int32, 0, 16)
	stack = append(stack, n.kdRoot)
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := &n.kd[idx]
		if k.isLeaf() {
			fn(idx)
			continue
		}
		stack = append(stack, k.Right, k.Left)
	}
}

// childEntry is one element of the "array of BRs" view of an index node:
// a child page together with its mapped bounding region.
type childEntry struct {
	child pagefile.PageID
	br    geom.Rect
	kdIdx int32
}

// children materializes the BR mapping of Section 3.1: given the node's own
// bounding region nodeBR, it computes the mapped BR of every child by
// walking the kd-tree and narrowing one boundary per internal node (left
// child: hi_dim = min(hi_dim, Lsp); right child: lo_dim = max(lo_dim, Rsp)).
func (n *node) children(nodeBR geom.Rect) []childEntry {
	out := make([]childEntry, 0, 8)
	if n.kdRoot == kdNone {
		return out
	}
	br := nodeBR.Clone()
	var walk func(idx int32)
	walk = func(idx int32) {
		k := &n.kd[idx]
		if k.isLeaf() {
			out = append(out, childEntry{child: k.Child, br: br.Clone(), kdIdx: idx})
			return
		}
		d := int(k.Dim)
		// Left subtree: x_d <= Lsp.
		oldHi := br.Hi[d]
		if k.Lsp < oldHi {
			br.Hi[d] = k.Lsp
		}
		if br.Hi[d] >= br.Lo[d] {
			walk(k.Left)
		}
		br.Hi[d] = oldHi
		// Right subtree: x_d >= Rsp.
		oldLo := br.Lo[d]
		if k.Rsp > oldLo {
			br.Lo[d] = k.Rsp
		}
		if br.Hi[d] >= br.Lo[d] {
			walk(k.Right)
		}
		br.Lo[d] = oldLo
	}
	walk(n.kdRoot)
	return out
}

// childBR returns the mapped BR of the child at kd-arena index target,
// given the node's BR. It panics if target is not a reachable leaf: that is
// an arena-corruption bug, not a recoverable condition.
func (n *node) childBR(nodeBR geom.Rect, target int32) geom.Rect {
	br := nodeBR.Clone()
	var found *geom.Rect
	var walk func(idx int32) bool
	walk = func(idx int32) bool {
		if idx == target {
			c := br.Clone()
			found = &c
			return true
		}
		k := &n.kd[idx]
		if k.isLeaf() {
			return false
		}
		d := int(k.Dim)
		oldHi := br.Hi[d]
		if k.Lsp < oldHi {
			br.Hi[d] = k.Lsp
		}
		ok := br.Hi[d] >= br.Lo[d] && walk(k.Left)
		br.Hi[d] = oldHi
		if ok {
			return true
		}
		oldLo := br.Lo[d]
		if k.Rsp > oldLo {
			br.Lo[d] = k.Rsp
		}
		ok = br.Hi[d] >= br.Lo[d] && walk(k.Right)
		br.Lo[d] = oldLo
		return ok
	}
	if n.kdRoot == kdNone || !walk(n.kdRoot) {
		panic(fmt.Sprintf("core: kd leaf %d unreachable in node %d", target, n.id))
	}
	return *found
}

// kdPath returns the arena indices from the kd root down to target
// (inclusive). Used when widening split positions along an insertion path.
func (n *node) kdPath(target int32) []int32 {
	var path []int32
	var walk func(idx int32) bool
	walk = func(idx int32) bool {
		path = append(path, idx)
		if idx == target {
			return true
		}
		k := &n.kd[idx]
		if !k.isLeaf() {
			if walk(k.Left) {
				return true
			}
			if walk(k.Right) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if n.kdRoot == kdNone || !walk(n.kdRoot) {
		panic(fmt.Sprintf("core: kd node %d unreachable in node %d", target, n.id))
	}
	return path
}

// findLeafFor returns the arena index of the kd-leaf referencing child, or
// kdNone when the node does not reference it.
func (n *node) findLeafFor(child pagefile.PageID) int32 {
	found := kdNone
	n.walkLeaves(func(idx int32) {
		if n.kd[idx].Child == child {
			found = idx
		}
	})
	return found
}

// replaceLeafWithSplit substitutes the kd-leaf at index idx (which pointed
// at the page that just split) with an internal kd node describing the
// split: left and right leaves for the two result pages.
func (n *node) replaceLeafWithSplit(idx int32, s splitResult) {
	leftLeaf := int32(len(n.kd))
	n.kd = append(n.kd, kdNode{Left: kdNone, Right: kdNone, Child: s.left})
	rightLeaf := int32(len(n.kd))
	n.kd = append(n.kd, kdNode{Left: kdNone, Right: kdNone, Child: s.right})
	n.kd[idx] = kdNode{Dim: s.dim, Lsp: s.lsp, Rsp: s.rsp, Left: leftLeaf, Right: rightLeaf}
}

// removeChild detaches the kd-leaf referencing child: the leaf's parent
// internal node collapses to the sibling subtree. Removing a constraint can
// only enlarge the mapped BRs of the remaining children, so search stays
// correct (it may just prune slightly less until the next split retightens).
// Returns false when child is not referenced or is the only child.
func (n *node) removeChild(child pagefile.PageID) bool {
	target := n.findLeafFor(child)
	if target == kdNone {
		return false
	}
	if target == n.kdRoot {
		return false // only child; caller must eliminate the node instead
	}
	path := n.kdPath(target)
	parent := path[len(path)-2]
	pk := &n.kd[parent]
	sibling := pk.Left
	if sibling == target {
		sibling = pk.Right
	}
	if len(path) >= 3 {
		gp := &n.kd[path[len(path)-3]]
		if gp.Left == parent {
			gp.Left = sibling
		} else {
			gp.Right = sibling
		}
	} else {
		n.kdRoot = sibling
	}
	return true
}

// dataRect returns the bounding rectangle of a data node's points,
// streaming over the slab. Mirrors geom.BoundingRect (including panicking
// on an empty node — callers guard).
func (n *node) dataRect() geom.Rect {
	r := geom.Rect{Lo: n.point(0).Clone(), Hi: n.point(0).Clone()}
	for i := 1; i < n.count(); i++ {
		r.Enlarge(n.point(i))
	}
	return r
}

// usedSplitDims returns the set of dimensions appearing in the node's
// internal kd nodes — the candidate set D_N of Lemma 1 (implicit
// dimensionality reduction): restricting index-node split dimensions to
// dimensions already used below still yields the EDA-optimal choice.
func (n *node) usedSplitDims() []int {
	if n.leaf || n.kdRoot == kdNone {
		return nil
	}
	seen := make(map[uint16]bool)
	var order []int
	stack := []int32{n.kdRoot}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := &n.kd[idx]
		if k.isLeaf() {
			continue
		}
		if !seen[k.Dim] {
			seen[k.Dim] = true
			order = append(order, int(k.Dim))
		}
		stack = append(stack, k.Left, k.Right)
	}
	return order
}
