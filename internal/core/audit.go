package core

import (
	"fmt"

	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// TreeStats summarizes the structure of a hybrid tree — the measurable
// counterparts of the Table 1 / Table 2 rows: fanout (independent of
// dimensionality), degree of overlap (low but nonzero), and node
// utilization (guaranteed).
type TreeStats struct {
	Height          int
	DataNodes       int
	IndexNodes      int
	Entries         int
	AvgFanout       float64 // mean children per index node
	MaxFanout       int
	AvgDataFill     float64 // mean data-node fill fraction
	MinDataFill     float64
	OverlapFraction float64 // fraction of kd internal records with lsp > rsp
	OverlapVolume   float64 // total pairwise overlap volume between sibling BRs, normalized by total BR volume
	SplitDimsUsed   int     // distinct dimensions appearing in any kd record
	ELSBytes        int
}

// auditView is one consistent view of the tree for a structural walk: a node
// getter, a live-space lookup and the header fields, either the writer's
// current state (Stats, CheckInvariants) or a pinned MVCC snapshot
// (StatsSnapshot, CheckInvariantsSnapshot).
type auditView struct {
	get      func(id pagefile.PageID) (*node, error)
	elsGet   func(id uint32, outer geom.Rect) (geom.Rect, bool)
	elsOn    bool
	elsLen   int
	root     pagefile.PageID
	height   int
	size     int
	elsBytes int
}

// writerView is the writer-side view. Callers must hold the writer role (or
// know no writer is active): it reads the unpublished header fields.
func (t *Tree) writerView() auditView {
	return auditView{
		get:      t.store.get,
		elsGet:   t.els.Get,
		elsOn:    t.els.Enabled(),
		elsLen:   t.els.Len(),
		root:     t.root,
		height:   t.height,
		size:     t.size,
		elsBytes: t.els.MemoryBytes(),
	}
}

// snapshotView is the view of the pinned version ver: every page resolves
// through the version chains at ver.epoch without touching access counters.
func (t *Tree) snapshotView(ver *treeVersion) auditView {
	return auditView{
		get:      func(id pagefile.PageID) (*node, error) { return t.store.getAudit(id, ver.epoch) },
		elsGet:   ver.els.Get,
		elsOn:    ver.els.Enabled(),
		elsLen:   ver.els.Len(),
		root:     ver.root,
		height:   ver.height,
		size:     ver.size,
		elsBytes: ver.els.MemoryBytes(),
	}
}

// Stats walks the tree and computes structural statistics. It does not
// perturb access counters: callers should snapshot/reset pagefile stats
// around it if they are mid-measurement. Like mutations it belongs to the
// writer role; concurrent readers should use StatsSnapshot.
func (t *Tree) Stats() (TreeStats, error) {
	saved := *t.file.Stats()
	defer func() { *t.file.Stats() = saved }()
	savedObs := t.store.pauseObs()
	defer t.store.resumeObs(savedObs)
	return t.statsOver(t.writerView())
}

// StatsSnapshot computes the same statistics from a pinned MVCC snapshot:
// it never blocks a concurrent writer and never sees a half-applied
// mutation. Physical reads for uncached pages still hit the page file (and
// its counters), so mid-measurement callers should prefer a warm cache.
func (t *Tree) StatsSnapshot() (TreeStats, error) {
	sl, _ := t.store.pin()
	defer t.store.unpin(sl)
	ver := t.current.Load()
	return t.statsOver(t.snapshotView(ver))
}

func (t *Tree) statsOver(v auditView) (TreeStats, error) {
	st := TreeStats{Height: v.height, ELSBytes: v.elsBytes, MinDataFill: 1}
	dimsUsed := make(map[uint16]bool)
	var kdInternal, kdOverlapping int
	var fanoutSum int
	var fillSum float64

	var walk func(id pagefile.PageID, br geom.Rect) error
	walk = func(id pagefile.PageID, br geom.Rect) error {
		n, err := v.get(id)
		if err != nil {
			return err
		}
		if n.leaf {
			st.DataNodes++
			st.Entries += n.count()
			fill := float64(n.count()) / float64(t.cfg.dataCapacity())
			fillSum += fill
			if fill < st.MinDataFill {
				st.MinDataFill = fill
			}
			return nil
		}
		st.IndexNodes++
		n.walkReachable(func(k *kdNode) {
			if k.isLeaf() {
				return
			}
			kdInternal++
			dimsUsed[k.Dim] = true
			if k.Lsp > k.Rsp {
				kdOverlapping++
			}
		})
		entries := n.children(br)
		fanoutSum += len(entries)
		if len(entries) > st.MaxFanout {
			st.MaxFanout = len(entries)
		}
		var totalVol, overlapVol float64
		for i := range entries {
			totalVol += entries[i].br.Area()
			for j := i + 1; j < len(entries); j++ {
				inter := entries[i].br.Intersect(entries[j].br)
				if !inter.IsEmpty() {
					overlapVol += inter.Area()
				}
			}
		}
		if totalVol > 0 {
			st.OverlapVolume += overlapVol / totalVol
		}
		for _, e := range entries {
			if err := walk(e.child, e.br); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(v.root, t.cfg.Space); err != nil {
		return TreeStats{}, err
	}
	if st.IndexNodes > 0 {
		st.AvgFanout = float64(fanoutSum) / float64(st.IndexNodes)
		st.OverlapVolume /= float64(st.IndexNodes)
	}
	if st.DataNodes > 0 {
		st.AvgDataFill = fillSum / float64(st.DataNodes)
	}
	if kdInternal > 0 {
		st.OverlapFraction = float64(kdOverlapping) / float64(kdInternal)
	}
	st.SplitDimsUsed = len(dimsUsed)
	if st.DataNodes == 1 && st.Entries == 0 {
		st.MinDataFill = 0
	}
	return st, nil
}

// CheckInvariants verifies the structural invariants the hybrid tree's
// correctness rests on and returns the first violation found:
//
//  1. every point in a subtree lies inside the subtree's mapped BR;
//  2. mapped BRs lie inside the data space;
//  3. decoded live-space rectangles contain their node's true live
//     rectangle (ELS conservativeness);
//  4. non-root data nodes respect capacity; all data nodes fit their page;
//  5. every level is reachable at a consistent height;
//  6. the entry count equals Size();
//  7. with ELS on, the table holds exactly one entry per live non-root
//     node (the root's entry is optional): a freed node's entry is gone.
//
// Like Stats it reads the writer-side state; concurrent readers should use
// CheckInvariantsSnapshot.
func (t *Tree) CheckInvariants() error {
	saved := *t.file.Stats()
	defer func() { *t.file.Stats() = saved }()
	savedObs := t.store.pauseObs()
	defer t.store.resumeObs(savedObs)
	return t.checkInvariantsOver(t.writerView())
}

// CheckInvariantsSnapshot verifies the same invariants against a pinned MVCC
// snapshot, so an audit can run concurrently with a writer and still see one
// consistent version: a committed tree must satisfy every invariant at every
// published epoch.
func (t *Tree) CheckInvariantsSnapshot() error {
	sl, _ := t.store.pin()
	defer t.store.unpin(sl)
	ver := t.current.Load()
	return t.checkInvariantsOver(t.snapshotView(ver))
}

func (t *Tree) checkInvariantsOver(v auditView) error {
	entries, encoded := 0, 0
	var walk func(id pagefile.PageID, br geom.Rect, level int) (geom.Rect, error)
	walk = func(id pagefile.PageID, br geom.Rect, level int) (geom.Rect, error) {
		if !t.cfg.Space.ContainsRect(br) {
			return geom.Rect{}, fmt.Errorf("node %d: mapped BR %v escapes data space", id, br)
		}
		n, err := v.get(id)
		if err != nil {
			return geom.Rect{}, err
		}
		live := geom.EmptyRect(t.cfg.Dim)
		if n.leaf {
			if level != 1 {
				return geom.Rect{}, fmt.Errorf("node %d: data node at level %d", id, level)
			}
			if n.count() > t.cfg.dataCapacity() {
				return geom.Rect{}, fmt.Errorf("node %d: %d entries exceed capacity %d", id, n.count(), t.cfg.dataCapacity())
			}
			entries += n.count()
			for i := 0; i < n.count(); i++ {
				p := n.point(i)
				if !br.Contains(p) {
					return geom.Rect{}, fmt.Errorf("node %d: point %d %v outside mapped BR %v", id, i, p, br)
				}
				live.Enlarge(p)
			}
		} else {
			if level <= 1 {
				return geom.Rect{}, fmt.Errorf("node %d: index node at level %d", id, level)
			}
			kids := n.children(br)
			if len(kids) == 0 {
				return geom.Rect{}, fmt.Errorf("node %d: index node with no children", id)
			}
			seen := make(map[pagefile.PageID]bool)
			for _, e := range kids {
				if seen[e.child] {
					return geom.Rect{}, fmt.Errorf("node %d: child %d referenced twice", id, e.child)
				}
				seen[e.child] = true
				childLive, err := walk(e.child, e.br, level-1)
				if err != nil {
					return geom.Rect{}, err
				}
				live.EnlargeRect(childLive)
			}
		}
		dec, ok := v.elsGet(uint32(id), t.cfg.Space)
		if ok && !live.IsEmpty() && !dec.ContainsRect(live) {
			return geom.Rect{}, fmt.Errorf("node %d: decoded live rect %v misses true live rect %v", id, dec, live)
		}
		if v.elsOn && !ok && id != v.root {
			return geom.Rect{}, fmt.Errorf("node %d: no ELS entry", id)
		}
		if ok {
			encoded++
		}
		return live, nil
	}
	if _, err := walk(v.root, t.cfg.Space, v.height); err != nil {
		return err
	}
	if entries != v.size {
		return fmt.Errorf("entry count %d != Size() %d", entries, v.size)
	}
	if encoded != v.elsLen {
		return fmt.Errorf("ELS holds %d entries, only %d of them for live nodes", v.elsLen, encoded)
	}
	return nil
}

// DropCaches discards decoded-node caches so subsequent operations exercise
// the full page decode path (used by durability tests). Retired versions
// whose epochs have drained are reclaimed first; version chains still
// pinned by in-flight readers survive the drop.
func (t *Tree) DropCaches() {
	t.store.reclaimRetired()
	t.store.dropCache()
}
