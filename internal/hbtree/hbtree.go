// Package hbtree implements a holey-brick (hB-) tree in the style of Lomet
// and Salzberg (TODS 1990) — the space-partitioning competitor in the
// paper's evaluation. Like the hybrid tree, nodes organize their children
// with an intra-node kd-tree; unlike the hybrid tree, splits must be clean,
// so an overflowing node is split by *extracting a kd-subtree* holding
// between 1/3 and 2/3 of its content. The extracted region is described by
// the full kd path from the node's root to the subtree, and that path is
// what gets posted to the parent: every internal record of the path points
// back at the remaining node on its off-path side, so the remaining node is
// referenced once per path step — the storage redundancy of Table 1. The
// region left behind is the node's region minus the extracted box: a holey
// brick.
//
// Path posting plus extraction means a node can end up referenced by
// multiple kd-leaves and even multiple parents. This implementation keeps
// that (it is the defining hB-tree property) and restores strict
// correctness with split forwarding: every node records, for each split it
// ever underwent, a rectangle covering everything that physically departed
// (the split halfspace for data splits, the posted path's box for subtree
// extractions) and the sibling that took it. A query or insert
// arriving at a node through a stale reference
// first consults the forward list (in split order) and follows it when its
// target region has moved on — the B-link-tree technique transplanted to
// multidimensional space. Parent postings then become routing
// optimizations that are never required for reachability.
//
// Per footnote 2 of the hybrid tree paper, the hB-tree does not support
// distance-based queries; Search returns index.ErrUnsupported for range and
// k-NN, and the paper's Figure 7(c,d) excludes the hB-tree
// for the same reason.
package hbtree

import (
	"context"
	"fmt"
	"sort"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/index"
	"hybridtree/internal/nodestore"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// Config controls tree geometry.
type Config struct {
	Dim      int
	PageSize int
	// Space is the indexed region; defaults to the unit cube. Inserted
	// vectors must lie inside it.
	Space geom.Rect
}

const kdNone int32 = -1

// kdNode is one record of the intra-node kd-tree: a clean single-position
// split (left: x_dim < val; right: x_dim >= val) or a leaf referencing a
// child page.
type kdNode struct {
	Dim         uint16
	Val         float32
	Left, Right int32
	Child       pagefile.PageID
}

func (k *kdNode) isLeaf() bool { return k.Left == kdNone && k.Right == kdNone }

// forward records one split this node underwent: rect covers everything
// that physically departed, sibling is the node that took it. Forwards are
// kept in split order; the first containing rect wins during routing.
type forward struct {
	rect    geom.Rect
	sibling pagefile.PageID
}

type node struct {
	id   pagefile.PageID
	leaf bool
	pts  []geom.Point
	rids []uint64
	kd   []kdNode
	root int32
	fwd  []forward
}

// Tree is an hB-tree over a page file.
type Tree struct {
	cfg    Config
	file   pagefile.File
	store  *nodestore.Store[*node]
	root   pagefile.PageID
	height int
	size   int
	prunes *obs.Counter // index_prunes_total{method="hb"}
}

// New creates an empty hB-tree on file.
func New(file pagefile.File, cfg Config) (*Tree, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("hbtree: dim must be >= 1, got %d", cfg.Dim)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = file.PageSize()
	}
	if cfg.PageSize != file.PageSize() {
		return nil, fmt.Errorf("hbtree: page size %d != file page size %d", cfg.PageSize, file.PageSize())
	}
	if cfg.Space.Dim() == 0 {
		cfg.Space = geom.UnitCube(cfg.Dim)
	}
	if dataCapacity(&cfg) < 4 {
		return nil, fmt.Errorf("hbtree: page size %d too small for %d dimensions", cfg.PageSize, cfg.Dim)
	}
	t := &Tree{cfg: cfg, file: file, prunes: obs.PruneCounter(obs.Default(), "hb")}
	t.store = nodestore.New[*node](file, codec{dim: cfg.Dim, space: cfg.Space})
	t.store.SetObsMethod("hb")
	id, err := t.store.Alloc()
	if err != nil {
		return nil, err
	}
	root := &node{id: id, leaf: true, root: kdNone}
	if err := t.store.Put(id, root); err != nil {
		return nil, err
	}
	t.root = id
	t.height = 1
	return t, nil
}

// Name implements index.Index.
func (t *Tree) Name() string { return "hb" }

// File implements index.Index.
func (t *Tree) File() pagefile.File { return t.file }

// posting describes a completed split to the parent: the path constraints
// of the departed region and the two pages. Applying it is an optimization;
// the remaining node's forward entry already guarantees reachability.
type posting struct {
	steps     []postStep
	remaining pagefile.PageID
	extracted pagefile.PageID
}

// postStep is one kd constraint on the path to the extracted region;
// towardRight tells which side of the split the extracted region lies on.
type postStep struct {
	dim         uint16
	val         float32
	towardRight bool
}

// Insert implements index.Index.
func (t *Tree) Insert(p geom.Point, rid uint64) error {
	if len(p) != t.cfg.Dim {
		return fmt.Errorf("hbtree: vector has dim %d, want %d", len(p), t.cfg.Dim)
	}
	if !t.cfg.Space.Contains(p) {
		return fmt.Errorf("hbtree: vector %v outside the indexed space", p)
	}
	post, err := t.insertAt(t.root, p.Clone(), rid)
	if err != nil {
		return err
	}
	if post != nil {
		if err := t.growRoot(post); err != nil {
			return err
		}
	}
	t.size++
	return nil
}

// growRoot materializes a root posting as a new root node whose kd-tree is
// the posted path.
func (t *Tree) growRoot(post *posting) error {
	id, err := t.store.Alloc()
	if err != nil {
		return err
	}
	root := &node{id: id, root: kdNone}
	root.root = buildChain(root, post)
	if err := t.store.Put(id, root); err != nil {
		return err
	}
	t.root = id
	t.height++
	return nil
}

// buildChain appends the posted path to n's arena: each step becomes an
// internal record whose off-path side references the remaining node (the
// redundant references of hB path posting) and whose final on-path end
// references the extracted node. Returns the chain's root arena index.
func buildChain(n *node, post *posting) int32 {
	leafFor := func(child pagefile.PageID) int32 {
		idx := int32(len(n.kd))
		n.kd = append(n.kd, kdNode{Left: kdNone, Right: kdNone, Child: child})
		return idx
	}
	// Build from the deepest step upward.
	cur := leafFor(post.extracted)
	for i := len(post.steps) - 1; i >= 0; i-- {
		s := post.steps[i]
		rec := kdNode{Dim: s.dim, Val: s.val}
		if s.towardRight {
			rec.Left = leafFor(post.remaining)
			rec.Right = cur
		} else {
			rec.Left = cur
			rec.Right = leafFor(post.remaining)
		}
		n.kd = append(n.kd, rec)
		cur = int32(len(n.kd)) - 1
	}
	return cur
}

// insertAt inserts below node id. Routing does not depend on knowing the
// node's exact region: forward rectangles cover everything that ever
// physically departed the node, and kd navigation is purely coordinate
// driven.
func (t *Tree) insertAt(id pagefile.PageID, p geom.Point, rid uint64) (*posting, error) {
	n, err := t.store.Get(id)
	if err != nil {
		return nil, err
	}
	// Forward check, in split order: if p falls in a departed region,
	// follow it. Postings from forwarded subtrees are deliberately dropped
	// — the sibling's own forward entry keeps everything reachable.
	for _, f := range n.fwd {
		if f.rect.Contains(p) {
			_, err := t.insertAt(f.sibling, p, rid)
			return nil, err
		}
	}
	if n.leaf {
		n.pts = append(n.pts, p)
		n.rids = append(n.rids, rid)
		if n.serializedSize(t.cfg.Dim, t.cfg.Space) > t.cfg.PageSize {
			return t.splitData(n)
		}
		return nil, t.store.Put(id, n)
	}

	// Navigate the intra-node kd-tree; remember the leaf for posting.
	idx := n.root
	for !n.kd[idx].isLeaf() {
		k := &n.kd[idx]
		if p[k.Dim] < k.Val {
			idx = k.Left
		} else {
			idx = k.Right
		}
	}
	leafIdx := idx
	post, err := t.insertAt(n.kd[leafIdx].Child, p, rid)
	if err != nil {
		return nil, err
	}
	if post == nil {
		return nil, nil
	}
	// Apply the posting at the leaf we descended through; other stale
	// references to the child stay valid via its forward entry.
	chain := buildChain(n, post)
	n.kd[leafIdx] = n.kd[chain]
	if int32(len(n.kd))-1 == chain {
		n.kd = n.kd[:len(n.kd)-1] // chain root copied into place; drop the duplicate
	}
	if n.serializedSize(t.cfg.Dim, t.cfg.Space) > t.cfg.PageSize {
		return t.splitIndex(n)
	}
	return nil, t.store.Put(id, n)
}

// splitData performs the hB data-node split: a clean cut at the median of
// the widest dimension (the kd-tree a fresh data node would build reaches a
// 1/2 fraction after the first median split, so the extracted path has
// length one).
func (t *Tree) splitData(n *node) (*posting, error) {
	br := geom.BoundingRect(n.pts)
	dim := br.MaxExtentDim()
	coords := make([]float64, len(n.pts))
	for i, p := range n.pts {
		coords[i] = float64(p[dim])
	}
	sort.Float64s(coords)
	val := float32(coords[len(coords)/2])
	if val == float32(coords[0]) {
		// Duplicate mass at the median: move to the next distinct value so
		// the lower side is non-empty (clean splits cannot overlap).
		for _, c := range coords {
			if float32(c) > val {
				val = float32(c)
				break
			}
		}
		if val == float32(coords[0]) {
			return nil, fmt.Errorf("hbtree: node %d holds only duplicates of one vector; clean splits cannot divide it", n.id)
		}
	}

	sid, err := t.store.Alloc()
	if err != nil {
		return nil, err
	}
	sib := &node{id: sid, leaf: true, root: kdNone}
	var keepPts []geom.Point
	var keepRids []uint64
	for i, p := range n.pts {
		if p[dim] < val {
			keepPts = append(keepPts, p)
			keepRids = append(keepRids, n.rids[i])
		} else {
			sib.pts = append(sib.pts, p)
			sib.rids = append(sib.rids, n.rids[i])
		}
	}
	n.pts, n.rids = keepPts, keepRids

	// The forward rectangle must cover everything that physically departed.
	// The moved points' bounding box is the tightest such cover, but
	// constraining every dimension costs ~10·dim bytes per forward and
	// starves high-dimensional pages; constraining only the most selective
	// few dimensions keeps the page cost bounded while still pruning
	// almost all spurious forward-follows.
	newFwd := forward{rect: t.sparseCover(geom.BoundingRect(sib.pts), dim), sibling: sid}
	remaining, err := t.attachForward(n, newFwd)
	if err != nil {
		return nil, err
	}
	if err := t.store.Put(sid, sib); err != nil {
		return nil, err
	}
	return &posting{
		steps:     []postStep{{dim: uint16(dim), val: val, towardRight: true}},
		remaining: remaining,
		extracted: sid,
	}, nil
}

// attachForward adds f to n's forward list, migrating n's content to a
// fresh page when the forward list would no longer fit beside it: the old
// page is frozen as a pure forwarding tombstone (old forwards plus a
// catch-all to the fresh page) so stale references stay valid while the
// live content escapes the accumulation. Returns the page that now holds
// the content.
func (t *Tree) attachForward(n *node, f forward) (pagefile.PageID, error) {
	n.fwd = append(n.fwd, f)
	if n.serializedSize(t.cfg.Dim, t.cfg.Space) <= t.cfg.PageSize-tombstoneSlack {
		if err := t.store.Put(n.id, n); err != nil {
			return pagefile.InvalidPage, err
		}
		return n.id, nil
	}
	n.fwd = n.fwd[:len(n.fwd)-1]
	aid, err := t.store.Alloc()
	if err != nil {
		return pagefile.InvalidPage, err
	}
	alive := &node{id: aid, leaf: n.leaf, pts: n.pts, rids: n.rids,
		kd: n.kd, root: n.root, fwd: []forward{f}}
	n.pts, n.rids, n.kd, n.root = nil, nil, nil, kdNone
	n.leaf = true // a frozen tombstone behaves like an empty data node
	n.fwd = append(n.fwd, forward{rect: t.cfg.Space.Clone(), sibling: aid})
	if err := t.store.Put(n.id, n); err != nil {
		return pagefile.InvalidPage, err
	}
	if err := t.store.Put(aid, alive); err != nil {
		return pagefile.InvalidPage, err
	}
	return aid, nil
}

// tombstoneSlack keeps a little headroom so the catch-all forward of a
// future tombstone conversion always fits.
const tombstoneSlack = 16

// maxForwardDims bounds how many dimensions a forward rectangle may
// constrain, capping its on-page cost at 6 + 10*maxForwardDims bytes.
const maxForwardDims = 8

// sparseCover relaxes cover back to the data space on all but
// maxForwardDims dimensions — always the split dimension mustDim (the most
// discriminative constraint: the departed mass lies beyond the median
// there), plus the dimensions where cover is tightest relative to the
// space. The result is a superset of cover with bounded encoding cost.
func (t *Tree) sparseCover(cover geom.Rect, mustDim int) geom.Rect {
	dim := t.cfg.Dim
	if dim <= maxForwardDims {
		return cover
	}
	type rel struct {
		d    int
		frac float64
	}
	rels := make([]rel, 0, dim)
	for d := 0; d < dim; d++ {
		if d == mustDim {
			continue
		}
		spaceExt := t.cfg.Space.Extent(d)
		frac := 1.0
		if spaceExt > 0 {
			frac = cover.Extent(d) / spaceExt
		}
		rels = append(rels, rel{d: d, frac: frac})
	}
	sort.Slice(rels, func(a, b int) bool { return rels[a].frac < rels[b].frac })
	out := t.cfg.Space.Clone()
	out.Lo[mustDim] = cover.Lo[mustDim]
	out.Hi[mustDim] = cover.Hi[mustDim]
	for _, r := range rels[:maxForwardDims-1] {
		out.Lo[r.d] = cover.Lo[r.d]
		out.Hi[r.d] = cover.Hi[r.d]
	}
	return out
}

// splitIndex splits an overflowing index node by extracting the kd-subtree
// found by descending from the root toward the larger side until the
// subtree holds at most 2/3 of the node's kd records (and hence, by the
// hB-tree argument, at least roughly 1/3). The departed region is the box
// described by the descent path — what remains is a holey brick.
func (t *Tree) splitIndex(n *node) (*posting, error) {
	sizes := make(map[int32]int)
	var measure func(idx int32) int
	measure = func(idx int32) int {
		k := &n.kd[idx]
		s := 1
		if !k.isLeaf() {
			s += measure(k.Left) + measure(k.Right)
		}
		sizes[idx] = s
		return s
	}
	total := measure(n.root)
	if n.kd[n.root].isLeaf() {
		return nil, fmt.Errorf("hbtree: index node %d overflowed with a single child", n.id)
	}

	var steps []postStep
	moved := t.cfg.Space.Clone()
	cur := n.root
	var parent int32 = kdNone
	for {
		k := &n.kd[cur]
		left, right := k.Left, k.Right
		next := left
		towardRight := false
		if sizes[right] > sizes[left] {
			next = right
			towardRight = true
		}
		steps = append(steps, postStep{dim: k.Dim, val: k.Val, towardRight: towardRight})
		if towardRight {
			if k.Val > moved.Lo[k.Dim] {
				moved.Lo[k.Dim] = k.Val
			}
		} else {
			if k.Val < moved.Hi[k.Dim] {
				moved.Hi[k.Dim] = k.Val
			}
		}
		parent = cur
		cur = next
		if 3*sizes[cur] <= 2*total {
			break
		}
		if n.kd[cur].isLeaf() {
			break // cannot descend further; extract the leaf
		}
	}

	// Extract subtree cur into the sibling node.
	sid, err := t.store.Alloc()
	if err != nil {
		return nil, err
	}
	sib := &node{id: sid, root: kdNone}
	var copyInto func(idx int32) int32
	copyInto = func(idx int32) int32 {
		k := n.kd[idx]
		at := int32(len(sib.kd))
		sib.kd = append(sib.kd, kdNode{Dim: k.Dim, Val: k.Val, Left: kdNone, Right: kdNone, Child: k.Child})
		if !k.isLeaf() {
			l := copyInto(k.Left)
			r := copyInto(k.Right)
			sib.kd[at].Left, sib.kd[at].Right = l, r
		}
		return at
	}
	sib.root = copyInto(cur)

	// Splice the subtree out of n: the extraction parent collapses to its
	// other child.
	pk := &n.kd[parent]
	sibling := pk.Left
	if sibling == cur {
		sibling = pk.Right
	}
	if parent == n.root {
		n.root = sibling
	} else {
		// Find the grandparent and relink. The arena is small; a linear
		// scan is fine here (splits are rare relative to inserts).
		for i := range n.kd {
			if n.kd[i].isLeaf() {
				continue
			}
			if n.kd[i].Left == parent {
				n.kd[i].Left = sibling
			}
			if n.kd[i].Right == parent {
				n.kd[i].Right = sibling
			}
		}
	}

	n.compact()
	remaining, err := t.attachForward(n, forward{rect: moved, sibling: sid})
	if err != nil {
		return nil, err
	}
	if err := t.store.Put(sid, sib); err != nil {
		return nil, err
	}
	return &posting{steps: steps, remaining: remaining, extracted: sid}, nil
}

// compact rebuilds the arena with only records reachable from the root.
func (n *node) compact() {
	if n.root == kdNone {
		n.kd = nil
		return
	}
	var fresh []kdNode
	var walk func(idx int32) int32
	walk = func(idx int32) int32 {
		k := n.kd[idx]
		at := int32(len(fresh))
		fresh = append(fresh, kdNode{Dim: k.Dim, Val: k.Val, Left: kdNone, Right: kdNone, Child: k.Child})
		if !k.isLeaf() {
			l := walk(k.Left)
			r := walk(k.Right)
			fresh[at].Left, fresh[at].Right = l, r
		}
		return at
	}
	n.root = walk(n.root)
	n.kd = fresh
}

// Search implements index.Index. Per footnote 2 of the paper the hB-tree
// answers box queries only; range and k-NN return ErrUnsupported.
func (t *Tree) Search(ctx context.Context, q core.Query) ([]core.Neighbor, error) {
	if err := index.Check(ctx, q, t.cfg.Dim); err != nil {
		return nil, err
	}
	if q.Kind != core.Box {
		return nil, fmt.Errorf("hbtree: %v: %w", q.Kind, index.ErrUnsupported)
	}
	return t.searchBox(q.Rect)
}

// searchBox copes with path posting and extraction, which can reference one
// page from several routes, each covering a different region: the walk
// tracks the routing region of every arrival: a page's I/O is
// charged once per query (it is pinned after the first load) and its
// entries are emitted once, but forward entries are re-checked per arrival
// clipped to that arrival's region — the clipping is what keeps stale
// references from fanning out into irrelevant siblings.
func (t *Tree) searchBox(q geom.Rect) ([]core.Neighbor, error) {
	var out []core.Neighbor
	pruned := 0
	pinned := make(map[pagefile.PageID]*node)
	emitted := make(map[pagefile.PageID]bool)
	// done records the routing regions already processed per page; a new
	// arrival contained in a processed region can contribute nothing new.
	done := make(map[pagefile.PageID][]geom.Rect)

	// visit borrows region for the duration of the call (the caller does
	// not mutate it until visit returns), cloning only what outlives it.
	var visit func(id pagefile.PageID, region geom.Rect) error
	visit = func(id pagefile.PageID, region geom.Rect) error {
		for _, prev := range done[id] {
			if prev.ContainsRect(region) {
				return nil
			}
		}
		done[id] = append(done[id], region.Clone())
		n, ok := pinned[id]
		if !ok {
			var err error
			n, err = t.store.Get(id)
			if err != nil {
				return err
			}
			pinned[id] = n
		}
		// Forward entries: follow when the departed region can hold results
		// reachable through this route.
		for _, f := range n.fwd {
			if !region.Intersects(f.rect) || !f.rect.Intersects(q) {
				continue
			}
			clipped := region.Intersect(f.rect)
			if clipped.Intersects(q) {
				if err := visit(f.sibling, clipped); err != nil {
					return err
				}
			}
		}
		if n.leaf {
			if !emitted[id] {
				emitted[id] = true
				for i, p := range n.pts {
					if q.Contains(p) {
						out = append(out, core.Neighbor{Entry: core.Entry{Point: p, RID: core.RecordID(n.rids[i])}})
					}
				}
			}
			return nil
		}
		// Walk the kd-tree, narrowing the routing region and pruning
		// subtrees outside q.
		brWalk := region.Clone()
		var walk func(idx int32) error
		walk = func(idx int32) error {
			k := &n.kd[idx]
			if k.isLeaf() {
				return visit(k.Child, brWalk)
			}
			d := int(k.Dim)
			oldHi := brWalk.Hi[d]
			if k.Val < oldHi {
				brWalk.Hi[d] = k.Val
			}
			if q.Lo[d] <= brWalk.Hi[d] && brWalk.Hi[d] >= brWalk.Lo[d] {
				if err := walk(k.Left); err != nil {
					return err
				}
			} else {
				pruned++
			}
			brWalk.Hi[d] = oldHi
			oldLo := brWalk.Lo[d]
			if k.Val > oldLo {
				brWalk.Lo[d] = k.Val
			}
			if q.Hi[d] >= brWalk.Lo[d] && brWalk.Hi[d] >= brWalk.Lo[d] {
				if err := walk(k.Right); err != nil {
					return err
				}
			} else {
				pruned++
			}
			brWalk.Lo[d] = oldLo
			return nil
		}
		if n.root != kdNone {
			return walk(n.root)
		}
		return nil
	}
	err := visit(t.root, t.cfg.Space)
	t.prunes.Add(uint64(pruned))
	return out, err
}

// Delete implements index.Index; unsupported. Deletion in an hB-tree
// requires merging holey-brick fragments across sibling kd-subtrees, which
// the paper's evaluation (insert-then-query workloads) never exercises.
func (t *Tree) Delete(geom.Point, uint64) (bool, error) {
	return false, fmt.Errorf("hbtree: delete: %w", index.ErrUnsupported)
}

// Stats summarizes structure, including the redundancy ratio of Table 1:
// total child references per distinct child (path posting makes it > 1).
type Stats struct {
	Height        int
	DataNodes     int
	IndexNodes    int
	Entries       int
	ChildRefs     int
	DistinctKids  int
	Redundancy    float64 // ChildRefs / DistinctKids
	ForwardChains int     // total forward entries
}

// Stats walks every reachable node without perturbing access counters.
func (t *Tree) Stats() (Stats, error) {
	savedObs := t.store.PauseObs()
	defer t.store.ResumeObs(savedObs)
	saved := *t.file.Stats()
	defer func() { *t.file.Stats() = saved }()
	st := Stats{Height: t.height}
	visited := make(map[pagefile.PageID]bool)
	var visit func(id pagefile.PageID) error
	visit = func(id pagefile.PageID) error {
		if visited[id] {
			return nil
		}
		visited[id] = true
		n, err := t.store.Get(id)
		if err != nil {
			return err
		}
		st.ForwardChains += len(n.fwd)
		for _, f := range n.fwd {
			if err := visit(f.sibling); err != nil {
				return err
			}
		}
		if n.leaf {
			st.DataNodes++
			st.Entries += len(n.pts)
			return nil
		}
		st.IndexNodes++
		kids := make(map[pagefile.PageID]bool)
		for i := range n.kd {
			if n.kd[i].isLeaf() {
				st.ChildRefs++
				kids[n.kd[i].Child] = true
			}
		}
		st.DistinctKids += len(kids)
		for c := range kids {
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(t.root); err != nil {
		return Stats{}, err
	}
	if st.DistinctKids > 0 {
		st.Redundancy = float64(st.ChildRefs) / float64(st.DistinctKids)
	}
	return st, nil
}
