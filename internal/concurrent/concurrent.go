// Package concurrent provides a goroutine-safe wrapper around the hybrid
// tree with a lock-free read path. The core tree publishes MVCC snapshots:
// every committed mutation installs a new immutable tree version with one
// atomic pointer swap, and each search pins the current epoch on entry and
// traverses that version without acquiring any lock. Tree therefore only
// synchronizes writers against each other — a single mutex serializes
// Insert / Flush / Close, and GroupCommitter batches concurrent writers into
// shared commits — while any number of Search / SearchKNN / CountBox calls
// run concurrently with each other and with the writer, never blocking
// behind it. The paper's I/O accounting is unaffected — every logical node
// access is still charged exactly one counter increment, and increments
// commute — so queries report byte-identical Stats whether they ran serially
// or in parallel (see TestBatchStatsParity).
//
// Served reads go through one front door, Executor: admission control under
// which each request's own goroutine runs its query on a pooled context.
package concurrent

import (
	"context"
	"sync"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// Tree is a goroutine-safe hybrid tree: mutations serialize on a writer
// mutex, searches run lock-free against MVCC snapshots.
type Tree struct {
	mu   sync.Mutex // writers only; the read path never touches it
	tree *core.Tree
}

// New creates a goroutine-safe hybrid tree on file.
func New(file pagefile.File, cfg core.Config) (*Tree, error) {
	t, err := core.New(file, cfg)
	if err != nil {
		return nil, err
	}
	return &Tree{tree: t}, nil
}

// Open wraps core.Open.
func Open(file pagefile.File, cfg core.Config) (*Tree, error) {
	t, err := core.Open(file, cfg)
	if err != nil {
		return nil, err
	}
	return &Tree{tree: t}, nil
}

// Wrap guards an existing tree. The caller must not use the inner tree
// directly afterwards.
func Wrap(t *core.Tree) *Tree { return &Tree{tree: t} }

// Insert is a goroutine-safe core.Tree.Insert.
func (t *Tree) Insert(p geom.Point, rid core.RecordID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tree.Insert(p, rid)
}

// Search is a goroutine-safe core.Tree.Search on a pooled context: it runs
// lock-free against the snapshot current at entry, concurrently with other
// searches and with writers, honoring ctx and q.Budget (see core.Tree.Search
// for how each ends a query). Returned points are cloned so they remain
// valid after later commits retire the snapshot.
func (t *Tree) Search(ctx context.Context, q core.Query) ([]core.Neighbor, error) {
	return cloned(t.tree.Search(ctx, nil, q, nil))
}

// SearchKNN is Search for the k nearest neighbors.
func (t *Tree) SearchKNN(q geom.Point, k int, m dist.Metric) ([]core.Neighbor, error) {
	return t.Search(nil, core.Query{Kind: core.KNN, Point: q, K: k, Metric: m})
}

// CountBox is a goroutine-safe core.Tree.CountBox; it runs lock-free
// against the snapshot current at entry.
func (t *Tree) CountBox(q geom.Rect) (int, error) {
	return t.tree.CountBox(q)
}

// Size returns the number of records in the current published snapshot.
func (t *Tree) Size() int {
	_, size, _ := t.tree.SnapshotInfo()
	return size
}

// SnapshotInfo returns the published snapshot's commit epoch, record count
// and height — one consistent atomic read, safe concurrently with writers.
func (t *Tree) SnapshotInfo() (epoch uint64, size, height int) {
	return t.tree.SnapshotInfo()
}

// Stats computes structural statistics from a pinned snapshot: it runs
// concurrently with searches and writers, never blocking either, and sees
// one consistent committed version.
func (t *Tree) Stats() (core.TreeStats, error) {
	return t.tree.StatsSnapshot()
}

// DropCaches discards the decoded-node caches so subsequent reads go back
// to the page file (cold-query measurements). It takes the writer lock:
// cache eviction shares the version table with committing writers. Pinned
// in-flight searches are unaffected — multi-version chains they may need
// survive the drop, and evicted pages are re-read on demand.
func (t *Tree) DropCaches() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tree.DropCaches()
}

// CheckInvariants runs the structural audit against a pinned snapshot. It
// needs no lock: the audited version is immutable, and the walk charges no
// access counters that a concurrent reader could observe.
func (t *Tree) CheckInvariants() error {
	return t.tree.CheckInvariantsSnapshot()
}

// Flush checkpoints the tree under the writer lock: leaked pages are
// reclaimed, dirty state reaches the page file, and — when a write-ahead
// log sits underneath — the overlay is flushed and the log truncated. It is
// the final step of a graceful drain, after admission has stopped and every
// in-flight writer has drained.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tree.Flush()
}

// LeakedPages reports pages whose release failed (see core.Tree.LeakedPages)
// under the writer lock, so a drain report reads a quiesced value.
func (t *Tree) LeakedPages() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tree.LeakedPages()
}

// Close flushes metadata.
func (t *Tree) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tree.Close()
}

// cloned detaches a search's result points from the node version they
// alias; it wraps the core.Tree.Search call directly.
func cloned(ns []core.Neighbor, err error) ([]core.Neighbor, error) {
	for i := range ns {
		ns[i].Point = ns[i].Point.Clone()
	}
	return ns, err
}
