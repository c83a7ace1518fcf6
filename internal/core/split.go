package core

import (
	"math"
	"sort"

	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// splitResult describes a completed node split to the parent level: the
// split dimension, the two split positions (lsp == rsp for the always-clean
// data-node splits; lsp > rsp when an index split had to overlap), and the
// two resulting pages. left always reuses the page of the node that split,
// so parents holding its id stay valid.
type splitResult struct {
	dim         uint16
	lsp, rsp    float32
	left, right pagefile.PageID
}

// IndexSplitCandidate summarizes one candidate split dimension for an index
// node: the overlap w_d and extent s_d resulting from the 1-d bipartition
// of the children's projected segments (Section 3.3), plus the projected
// segment centers for variance-based policies.
type IndexSplitCandidate struct {
	Dim     int
	Overlap float64 // w_d = max(0, lsp-rsp) of the trial bipartition
	Extent  float64 // s_d = extent of the node's BR along Dim
	Centers []float64
}

// SplitPolicy selects split dimensions and positions. The hybrid tree's
// native policy is EDAPolicy; VAMPolicy reproduces the VAMSplit baseline of
// the paper's Figure 5(a,b) ablation.
type SplitPolicy interface {
	Name() string
	// ChooseDataSplit returns the split dimension and target position for
	// an overflowing data node whose points have bounding rectangle br.
	// The executor clamps the position to honor utilization.
	ChooseDataSplit(pts []geom.Point, br geom.Rect) (dim int, pos float32)
	// ChooseIndexDim picks the split dimension for an index node from the
	// trial-bipartition summaries. cands is never empty.
	ChooseIndexDim(cands []IndexSplitCandidate, cfg *Config) int
}

// EDAPolicy implements the paper's splitting strategy: it minimizes the
// increase in the expected number of disk accesses (EDA) per query.
//
// Data nodes (Section 3.2): the increase in EDA is r/(s_d + r), minimized
// by the maximum-extent dimension regardless of the query side r, the data
// distribution, or the split position; the position is the middle of the
// extent, nudged only as far as the utilization constraint demands (more
// cubic BRs have smaller Minkowski sums).
//
// Index nodes (Section 3.3): splits may overlap, so the increase in EDA is
// (w_d + r)/(s_d + r); the dimension minimizing it depends on the query
// side r (integrated over r when Config.UniformQuerySide is set).
type EDAPolicy struct{}

// Name implements SplitPolicy.
func (EDAPolicy) Name() string { return "EDA" }

// ChooseDataSplit implements SplitPolicy.
func (EDAPolicy) ChooseDataSplit(pts []geom.Point, br geom.Rect) (int, float32) {
	d := br.MaxExtentDim()
	return d, (br.Lo[d] + br.Hi[d]) / 2
}

// ChooseIndexDim implements SplitPolicy.
func (EDAPolicy) ChooseIndexDim(cands []IndexSplitCandidate, cfg *Config) int {
	best, bestScore := cands[0].Dim, math.Inf(1)
	for _, c := range cands {
		var score float64
		if cfg.UniformQuerySide {
			score = integratedEDA(c.Overlap, c.Extent, cfg.QuerySide)
		} else {
			score = (c.Overlap + cfg.QuerySide) / (c.Extent + cfg.QuerySide)
		}
		if score < bestScore {
			best, bestScore = c.Dim, score
		}
	}
	return best
}

// integratedEDA averages (w+r)/(s+r) over r uniform in (0, rmax]:
// (1/rmax) ∫₀^rmax (w+r)/(s+r) dr = 1 + ((w-s)/rmax)·ln((s+rmax)/s)
// (with the s == 0 limit handled separately).
func integratedEDA(w, s, rmax float64) float64 {
	if rmax <= 0 {
		rmax = 1e-9
	}
	if s <= 0 {
		// Zero extent: (w+r)/r averaged; w is necessarily 0 when s is 0.
		return 1
	}
	return 1 + (w-s)/rmax*math.Log((s+rmax)/s)
}

// VAMPolicy is the VAMSplit strategy of White & Jain used as the baseline
// in Figure 5(a,b): split on the dimension of maximum variance (chosen for
// robustness to outliers) at the median. As the paper argues, variance is
// the wrong objective for paginated search — the number of disk accesses
// depends on the extents of the indexed subspaces, not on how data
// distributes inside them.
type VAMPolicy struct{}

// Name implements SplitPolicy.
func (VAMPolicy) Name() string { return "VAM" }

// ChooseDataSplit implements SplitPolicy: maximum-variance dimension,
// median position.
func (VAMPolicy) ChooseDataSplit(pts []geom.Point, br geom.Rect) (int, float32) {
	dim := len(pts[0])
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
	coords := make([]float64, len(pts))
	for i, p := range pts {
		coords[i] = float64(p[best])
	}
	sort.Float64s(coords)
	return best, float32(coords[len(coords)/2])
}

// ChooseIndexDim implements SplitPolicy: maximum variance of the children's
// projected segment centers.
func (VAMPolicy) ChooseIndexDim(cands []IndexSplitCandidate, _ *Config) int {
	best, bestVar := cands[0].Dim, -1.0
	for _, c := range cands {
		var sum, sumSq float64
		for _, v := range c.Centers {
			sum += v
			sumSq += v * v
		}
		n := float64(len(c.Centers))
		variance := sumSq/n - (sum/n)*(sum/n)
		if variance > bestVar {
			best, bestVar = c.Dim, variance
		}
	}
	return best
}

// EDAMedianPolicy is an ablation policy: the EDA-optimal split dimension
// (maximum extent) but the conventional median split position instead of
// the paper's middle-of-extent choice. The paper argues the middle choice
// produces more cubic BRs with smaller surface area and hence fewer disk
// accesses (Section 3.2); this policy isolates that claim.
type EDAMedianPolicy struct{}

// Name implements SplitPolicy.
func (EDAMedianPolicy) Name() string { return "EDA-median" }

// ChooseDataSplit implements SplitPolicy.
func (EDAMedianPolicy) ChooseDataSplit(pts []geom.Point, br geom.Rect) (int, float32) {
	d := br.MaxExtentDim()
	coords := make([]float64, len(pts))
	for i, p := range pts {
		coords[i] = float64(p[d])
	}
	sort.Float64s(coords)
	return d, float32(coords[len(coords)/2])
}

// ChooseIndexDim implements SplitPolicy (same as EDA).
func (EDAMedianPolicy) ChooseIndexDim(cands []IndexSplitCandidate, cfg *Config) int {
	return EDAPolicy{}.ChooseIndexDim(cands, cfg)
}

// splitDataNode splits an overflowing data node. The split is always clean
// (lsp == rsp): overlap is eliminated entirely at the data level
// (Section 3.6 point 3). The left half reuses n's page.
func (t *Tree) splitDataNode(n *node) (splitResult, error) {
	t.countSplit(true)
	br := n.dataRect()
	dim, pos := t.cfg.Policy.ChooseDataSplit(n.materializePoints(nil), br)

	// Order entry indices by the split coordinate and clamp the split index
	// so each side receives at least minDataFill entries (footnote 1 of the
	// paper: shift from the middle just enough to satisfy utilization).
	order := make([]int, n.count())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return n.coord(order[a], dim) < n.coord(order[b], dim) })

	cut := sort.Search(len(order), func(i int) bool { return n.coord(order[i], dim) > pos })
	minFill := t.cfg.minDataFill()
	if cut < minFill {
		cut = minFill
	}
	if cut > len(order)-minFill {
		cut = len(order) - minFill
	}
	// The realized split position separates the two sides; with duplicate
	// coordinates both sides may touch it, which the two-split-position
	// representation accommodates (both BRs include the boundary).
	split := (n.coord(order[cut-1], dim) + n.coord(order[cut], dim)) / 2

	right, err := t.store.alloc(true)
	if err != nil {
		return splitResult{}, err
	}
	leftVals := make([]float32, 0, cut*n.dim)
	leftRids := make([]RecordID, 0, cut)
	for _, i := range order[:cut] {
		leftVals = append(leftVals, n.point(i)...)
		leftRids = append(leftRids, n.rids[i])
	}
	for _, i := range order[cut:] {
		right.appendPoint(n.point(i), n.rids[i])
	}
	n.vals, n.rids = leftVals, leftRids

	t.store.put(n)
	t.store.put(right)
	t.els.Set(uint32(n.id), t.cfg.Space, n.dataRect())
	t.els.Set(uint32(right.id), t.cfg.Space, right.dataRect())

	return splitResult{dim: uint16(dim), lsp: split, rsp: split, left: n.id, right: right.id}, nil
}

// splitIndexNode splits an overflowing index node. Per Section 3.3, the
// best split positions are first determined for every candidate dimension
// by the 1-d bipartition of the children's projected segments; the policy
// then selects the dimension; the groups from the pre-selection phase
// become the two nodes, each with a freshly built intra-node kd-tree.
//
// Candidate dimensions are restricted to those already used inside the
// node's kd-tree — by Lemma 1 (implicit dimensionality reduction) this
// still contains the EDA-optimal choice, and it guarantees that dimensions
// no data-node split ever discriminated on are never used higher up.
func (t *Tree) splitIndexNode(n *node, nodeBR geom.Rect) (splitResult, error) {
	t.countSplit(false)
	entries := n.children(nodeBR)
	minEach := int(math.Ceil(t.cfg.MinFillIndex * float64(len(entries))))
	if minEach < 1 {
		minEach = 1
	}
	if 2*minEach > len(entries) {
		minEach = len(entries) / 2
	}

	dims := n.usedSplitDims()
	cands := make([]IndexSplitCandidate, 0, len(dims))
	type trial struct {
		left, right []int
		lsp, rsp    float32
	}
	trials := make(map[int]trial, len(dims))
	for _, d := range dims {
		segs := make([]geom.Segment, len(entries))
		centers := make([]float64, len(entries))
		for i, e := range entries {
			segs[i] = geom.Segment{Lo: e.br.Lo[d], Hi: e.br.Hi[d], ID: i}
			centers[i] = (float64(e.br.Lo[d]) + float64(e.br.Hi[d])) / 2
		}
		left, right, lsp, rsp := geom.Bipartition(segs, minEach)
		w := 0.0
		if lsp > rsp {
			w = float64(lsp) - float64(rsp)
		}
		cands = append(cands, IndexSplitCandidate{
			Dim: d, Overlap: w, Extent: nodeBR.Extent(d), Centers: centers,
		})
		trials[d] = trial{left: left, right: right, lsp: lsp, rsp: rsp}
	}
	dim := t.cfg.Policy.ChooseIndexDim(cands, &t.cfg)
	tr := trials[dim]

	group := func(idx []int) []childEntry {
		g := make([]childEntry, len(idx))
		for i, j := range idx {
			g[i] = entries[j]
		}
		return g
	}
	leftEntries, rightEntries := group(tr.left), group(tr.right)

	right, err := t.store.alloc(false)
	if err != nil {
		return splitResult{}, err
	}
	n.kd = n.kd[:0]
	n.kdRoot = t.buildKD(n, leftEntries)
	right.kdRoot = t.buildKD(right, rightEntries)

	t.store.put(n)
	t.store.put(right)
	t.setIndexELS(n, leftEntries)
	t.setIndexELS(right, rightEntries)

	return splitResult{dim: uint16(dim), lsp: tr.lsp, rsp: tr.rsp, left: n.id, right: right.id}, nil
}

// setIndexELS records an index node's live rectangle as the union of its
// children's live rectangles (already conservative, so the union is too).
func (t *Tree) setIndexELS(n *node, entries []childEntry) {
	if !t.els.Enabled() {
		return
	}
	live := geom.EmptyRect(t.cfg.Dim)
	for _, e := range entries {
		childLive, _ := t.els.Get(uint32(e.child), t.cfg.Space)
		live.EnlargeRect(childLive)
	}
	t.els.Set(uint32(n.id), t.cfg.Space, live)
}

// buildKD constructs a fresh intra-node kd-tree over the given children by
// recursive balanced bipartition, appending records to n's arena and
// returning the subtree root index. Each internal record's split positions
// come from the bipartition bounds, so every child's segment fits inside
// its side — the containment the BR mapping relies on.
func (t *Tree) buildKD(n *node, entries []childEntry) int32 {
	if len(entries) == 0 {
		return kdNone
	}
	if len(entries) == 1 {
		idx := int32(len(n.kd))
		n.kd = append(n.kd, kdNode{Left: kdNone, Right: kdNone, Child: entries[0].child})
		return idx
	}
	dim := t.chooseRebuildDim(entries)
	segs := make([]geom.Segment, len(entries))
	for i, e := range entries {
		segs[i] = geom.Segment{Lo: e.br.Lo[dim], Hi: e.br.Hi[dim], ID: i}
	}
	left, right, lsp, rsp := geom.Bipartition(segs, rebuildMinEach(len(entries)))
	leftEntries := make([]childEntry, len(left))
	for i, j := range left {
		leftEntries[i] = entries[j]
	}
	rightEntries := make([]childEntry, len(right))
	for i, j := range right {
		rightEntries[i] = entries[j]
	}
	idx := int32(len(n.kd))
	n.kd = append(n.kd, kdNode{Dim: uint16(dim), Lsp: lsp, Rsp: rsp, Left: kdNone, Right: kdNone})
	l := t.buildKD(n, leftEntries)
	r := t.buildKD(n, rightEntries)
	n.kd[idx].Left, n.kd[idx].Right = l, r
	return idx
}

// rebuildMinEach is the utilization floor for one level of an intra-node
// kd rebuild. Unlike the node split itself (which must honor the paper's
// 1/3 utilization), the rebuild's only hard requirement is that both sides
// be non-empty; a low floor lets the bipartition choose nearly clean
// subtrees and keeps the mapped BRs tight, at a small cost in intra-node
// kd balance.
func rebuildMinEach(n int) int {
	m := n / 8
	if m < 1 {
		m = 1
	}
	return m
}

// chooseRebuildDim picks the split dimension for one level of a kd-tree
// rebuild using the configured policy over all dimensions.
func (t *Tree) chooseRebuildDim(entries []childEntry) int {
	cands := make([]IndexSplitCandidate, t.cfg.Dim)
	minEach := rebuildMinEach(len(entries))
	for d := 0; d < t.cfg.Dim; d++ {
		segs := make([]geom.Segment, len(entries))
		centers := make([]float64, len(entries))
		lo, hi := entries[0].br.Lo[d], entries[0].br.Hi[d]
		for i, e := range entries {
			segs[i] = geom.Segment{Lo: e.br.Lo[d], Hi: e.br.Hi[d], ID: i}
			centers[i] = (float64(e.br.Lo[d]) + float64(e.br.Hi[d])) / 2
			if e.br.Lo[d] < lo {
				lo = e.br.Lo[d]
			}
			if e.br.Hi[d] > hi {
				hi = e.br.Hi[d]
			}
		}
		w, _ := geom.SegmentOverlap(segs, minEach)
		cands[d] = IndexSplitCandidate{Dim: d, Overlap: w, Extent: float64(hi) - float64(lo), Centers: centers}
	}
	return t.cfg.Policy.ChooseIndexDim(cands, &t.cfg)
}
