package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hybridtree/internal/els"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// Tree is a hybrid tree index over a page file. Mutations require external
// serialization (one writer at a time), but searches are MVCC snapshot
// reads: any number of goroutines may search concurrently with each other
// and with the single writer, with zero lock acquisitions on the read path.
// Each search pins the current epoch on entry and traverses the immutable
// version of the tree published by the last commit.
type Tree struct {
	cfg  Config
	file pagefile.File
	// tx is non-nil when file supports transactional durability
	// (pagefile.TxFile — the write-ahead log). Each top-level mutation's
	// page writes are then bracketed in a transaction and sealed durable
	// before it is acknowledged; see sealMutation.
	tx     pagefile.TxFile
	store  *store
	els    *els.Table
	meta   pagefile.PageID
	root   pagefile.PageID
	height int // 1 = root is a data node
	size   int // number of stored records
	// current is the published tree version searches traverse. Writers
	// replace it with a single atomic store at commit.
	current atomic.Pointer[treeVersion]
	// dirty records that the metadata page on disk says "dirty": without
	// a write-ahead log, the first seal after New, Open, BulkLoad or a
	// Flush marks it so, durably, before it writes a node page, and Flush
	// and Close mark it clean again. Open refuses a dirty file.
	dirty bool
	// qcPool recycles QueryContexts for the plain (context-less) search
	// methods; see queryctx.go. Safe for the concurrent read path: pooled
	// contexts are exclusive to one search at a time by construction.
	qcPool sync.Pool
	// leaked holds pages whose release failed — a commit's deferred frees,
	// or a rollback's frees of the pages the mutation had allocated. No
	// live record is on them; only the space is lost — and only until the
	// next Flush, which retries the frees (see reclaimLeaked).
	leaked []pagefile.PageID
	// torn: without a write-ahead log, a seal failed partway and left some
	// of the rolled-back mutation's pages in the file. Memory stays
	// authoritative; Flush (and Close) rewrite the file from it.
	torn bool
	// tracer produces per-query/per-mutation traces (nil = tracing off);
	// metrics is the shared instrument bundle (nil = metrics off); mutTrace
	// is the trace of the in-flight top-level mutation, so split and
	// reinsert events deep in the mutation can attribute themselves to it.
	// See metrics.go.
	tracer   obs.Tracer
	metrics  *treeMetrics
	mutTrace *obs.Trace
	// chooser is the insert descent's ChooseSubtree scratch.
	chooser chooser
}

// treeVersion is one published, immutable version of the tree: the header
// fields a search needs plus the ELS snapshot, all consistent at .epoch.
// Readers load it with one atomic pointer load and then resolve every page
// through the store's version chains at this epoch.
type treeVersion struct {
	epoch  uint64
	root   pagefile.PageID
	height int
	size   int
	els    *els.Snap
}

// publishNow publishes the tree's current writer-side state as the visible
// version without advancing the epoch — for construction-time paths (New,
// Open, BulkLoad, ELS rebuilds) that run before or between mutations.
func (t *Tree) publishNow() {
	t.current.Store(&treeVersion{
		epoch:  t.store.epoch.Load(),
		root:   t.root,
		height: t.height,
		size:   t.size,
		els:    t.els.Publish(),
	})
}

// mutationScope captures the Tree-level state a rollback must restore.
// Nested scopes (an Insert or Delete inside RunTx) are no-ops: the
// outermost scope owns the copy-on-write set.
type mutationScope struct {
	root   pagefile.PageID
	height int
	size   int
	nested bool
}

// beginMutation opens a copy-on-write scope covering the store, the ELS
// table and the Tree's own header fields. Every public mutation wraps
// itself in one so that a failed operation — including one that fails
// partway through a node split or an orphan reinsertion — leaves the tree
// exactly as it was, while concurrent snapshot readers never observe the
// scope at all: its effects become visible only at commitMutation's
// version publication.
func (t *Tree) beginMutation() mutationScope {
	if t.store.mutActive() {
		return mutationScope{nested: true}
	}
	t.store.beginMut()
	if t.tx != nil {
		t.tx.BeginTx()
	}
	return mutationScope{root: t.root, height: t.height, size: t.size}
}

// sealMutation is the only place an outermost mutation reaches storage: the
// nodes it changed are written, once each, and under a write-ahead log the
// metadata page follows (so a recovered file opens with the post-mutation
// root/size) and the transaction is sealed — the log's commit point.
// Without a log nothing makes the writes atomic, so the first seal after
// the file was last clean marks the metadata dirty and syncs it before
// any node page is written. A non-nil error means durability was NOT
// reached and the caller must roll back: acknowledged always implies
// durable.
func (t *Tree) sealMutation(m mutationScope) error {
	if m.nested {
		return nil
	}
	if t.tx == nil && !t.dirty {
		if err := t.markDirty(); err != nil {
			return err
		}
	}
	err := t.store.writeMut()
	if t.tx == nil {
		// No log underneath: the writes before a failed one are in the file.
		t.torn = t.torn || err != nil
		return err
	}
	if err == nil {
		err = t.writeMeta()
	}
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = t.tx.SealTx()
	t.mutTrace.AddWALFsync(int64(time.Since(t0))) // no-op without a trace
	return err
}

// rollbackMutation restores the pre-mutation state after an error, without
// writing a page: shared in-memory state was never touched and an unsealed
// transaction left nothing in the log, so this drops the staged transaction
// and the private set, releases the pages the mutation allocated, and
// rewinds the header fields and the ELS table to the published snapshot.
func (t *Tree) rollbackMutation(m mutationScope) {
	if m.nested {
		return
	}
	if t.tx != nil {
		t.tx.AbortTx()
	}
	t.leaked = append(t.leaked, t.store.rollbackMut()...)
	if cur := t.current.Load(); cur != nil {
		t.els.ResetTo(cur.els)
	}
	t.root, t.height, t.size = m.root, m.height, m.size
	if mt := t.metrics; mt != nil {
		mt.rollbacks.Inc()
		mt.leakedPages.Set(int64(len(t.leaked)))
	}
}

// commitMutation publishes the mutation: every dirty node version is linked
// into its page chain at the next epoch, the new tree version becomes
// visible with a single atomic store, the epoch advances, and retired node
// versions whose epoch has drained are reclaimed. It also performs the
// deferred page frees; it deliberately returns nothing, because the
// mutation's logical effect is fully applied by now and reporting a failed
// deferred free as a failed mutation would make callers treat a committed
// change as a no-op. Failed frees only leak space, which LeakedPages
// exposes.
func (t *Tree) commitMutation(m mutationScope) {
	if m.nested {
		return
	}
	c := t.store.epoch.Load() + 1
	t.leaked = append(t.leaked, t.store.commitMut(c)...)
	// Publish the new version before advancing the epoch: a reader's
	// advisory pin epoch must never run ahead of the version it loads.
	t.current.Store(&treeVersion{
		epoch:  c,
		root:   t.root,
		height: t.height,
		size:   t.size,
		els:    t.els.Publish(),
	})
	t.store.advanceEpoch(c)
	remaining := t.store.reclaimRetired()
	if mt := t.metrics; mt != nil {
		mt.leakedPages.Set(int64(len(t.leaked)))
		mt.mvccEpoch.Set(int64(c))
		mt.mvccRetired.Set(int64(remaining))
	}
}

// SnapshotInfo reports the published version's epoch, size and height with
// zero locks (for concurrency layers; the plain Size/Height accessors read
// the writer's working copy and need writer-side serialization).
func (t *Tree) SnapshotInfo() (epoch uint64, size, height int) {
	v := t.current.Load()
	return v.epoch, v.size, v.height
}

// Epoch returns the current published commit epoch.
func (t *Tree) Epoch() uint64 { return t.store.epoch.Load() }

// RetiredVersions returns the number of superseded node versions awaiting
// epoch-based reclamation.
func (t *Tree) RetiredVersions() int { return int(t.store.retiredCount.Load()) }

// Reclaim runs an epoch-reclamation pass, severing retired node versions no
// pinned reader can still need, and returns how many remain retired.
// Commits do this automatically; explicit calls are for quiesce points and
// tests. Requires writer-side serialization.
func (t *Tree) Reclaim() int {
	remaining := t.store.reclaimRetired()
	if mt := t.metrics; mt != nil {
		mt.mvccRetired.Set(int64(remaining))
	}
	return remaining
}

// Pin pins the current snapshot and returns a release function; node
// versions the snapshot references cannot be reclaimed until release.
// Audits and tests use it directly; searches pin internally.
func (t *Tree) Pin() func() {
	sl, _ := t.store.pin()
	return func() { t.store.unpin(sl) }
}

// LeakedPages reports how many pages could not be released because their
// free failed at commit or rollback (injected storage faults). The pages
// hold no live records; their space is lost until a Flush reclaims them.
func (t *Tree) LeakedPages() int { return len(t.leaked) }

// reclaimLeaked retries the frees that failed at commit or rollback. Safe
// at any quiet point: a leaked page is still allocated in the file (its Free
// failed), so Allocate can never have reused it, and it left the node cache
// when the owning mutation committed (or never entered it).
func (t *Tree) reclaimLeaked() {
	if len(t.leaked) == 0 {
		return
	}
	kept := t.leaked[:0]
	for _, id := range t.leaked {
		if err := t.file.Free(id); err != nil {
			kept = append(kept, id)
		}
	}
	t.leaked = kept
	if mt := t.metrics; mt != nil {
		mt.leakedPages.Set(int64(len(t.leaked)))
	}
}

// Flush makes the durable image match memory — not merely the acknowledged
// one — and syncs the file. Without a write-ahead log every cached node is
// re-encoded to its page: the decoded-node cache is authoritative (never
// evicting), so this repairs whatever torn writes or a seal that failed
// partway left in the file — the step to run before dropping caches — and
// is then marked clean (see markClean). Under a log the rewrite is skipped
// (the log's overlay holds only sealed transactions and is authoritative
// over the inner file) and the sync is the checkpoint that flushes the
// overlay and truncates the log. Flush also rewrites the metadata page and
// retries the page frees that failed, so a clean Flush leaves LeakedPages
// at zero.
func (t *Tree) Flush() error {
	if t.tx == nil {
		if err := t.store.flushAll(); err != nil {
			return err
		}
		t.torn = false
	}
	t.reclaimLeaked()
	return t.markClean()
}

// markDirty writes a metadata page marked dirty and syncs it, so that no
// node page of the coming seal can reach the disk before the mark does.
func (t *Tree) markDirty() error {
	t.dirty = true
	err := t.writeMeta()
	if err == nil {
		err = t.file.Sync()
	}
	if err != nil {
		t.dirty = false // the next seal writes the mark again
	}
	return err
}

// markClean writes a metadata page marked clean and syncs it. Without a
// log the node pages are synced first, so a clean mark on disk never
// vouches for a node page that is not; under a log the sync is the
// checkpoint.
func (t *Tree) markClean() error {
	if t.tx == nil {
		if err := t.file.Sync(); err != nil {
			return err
		}
	}
	t.dirty = false
	if err := t.writeMeta(); err != nil {
		return err
	}
	return t.file.Sync()
}

// RunTx runs fn — any sequence of Insert/Delete calls on this tree — as
// one atomic mutation sealed by a single commit: one fsync covers the
// whole batch, which is what the concurrent layer's group commit leans on.
// If fn returns an error (or durability fails), every operation inside is
// rolled back together. Without a transactional file it still provides
// the all-or-nothing in-memory semantics via the shared mutation scope.
func (t *Tree) RunTx(fn func() error) error {
	if t.store.mutActive() {
		return fmt.Errorf("core: RunTx inside an active mutation")
	}
	m := t.beginMutation()
	err := fn()
	if err == nil {
		err = t.sealMutation(m)
	}
	if err != nil {
		t.rollbackMutation(m)
		return err
	}
	t.commitMutation(m)
	return nil
}

// newTree returns a tree over file with everything but its pages set up:
// the node store, the ELS table, the log when file is one, and the default
// tracer and metrics. New, Open and BulkLoad all start here.
func newTree(file pagefile.File, cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if file.PageSize() != cfg.PageSize {
		return nil, fmt.Errorf("core: file page size %d != configured %d", file.PageSize(), cfg.PageSize)
	}
	t := &Tree{
		cfg:     cfg,
		file:    file,
		store:   newStore(file, cfg.Dim),
		els:     els.NewTable(cfg.ELSBits),
		tracer:  loadDefaultTracer(),
		metrics: hybridMetrics(),
	}
	t.tx, _ = file.(pagefile.TxFile)
	return t, nil
}

// New creates an empty hybrid tree on file. Page 0 of the file is used for
// tree metadata so the index can be reopened with Open.
func New(file pagefile.File, cfg Config) (*Tree, error) {
	t, err := newTree(file, cfg)
	if err != nil {
		return nil, err
	}
	if t.meta, err = file.Allocate(); err != nil {
		return nil, err
	}
	root, err := t.store.alloc(true)
	if err != nil {
		return nil, err
	}
	if err := t.store.writeThrough(root); err != nil {
		return nil, err
	}
	t.root = root.id
	t.height = 1
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	t.publishNow()
	return t, nil
}

// ErrUncleanShutdown reports that Open found the metadata page marked
// dirty: the file was written without a write-ahead log and the writer
// stopped before Flush or Close, so some node pages of its last mutations
// may be missing or torn. A log cannot repair writes it never saw, so Open
// refuses the file with or without one.
var ErrUncleanShutdown = errors.New("core: index was not closed cleanly (written without a write-ahead log, then stopped before Flush or Close); rebuild it with htree build")

// Open loads a tree previously created with New or BulkLoad from its file.
// The configuration must match the one the tree was built with in Dim and
// PageSize; split-policy and ELS settings may differ (the ELS side table
// lives in memory, and Open rebuilds it from the data).
func Open(file pagefile.File, cfg Config) (*Tree, error) {
	t, err := newTree(file, cfg)
	if err != nil {
		return nil, err
	}
	if err := t.readMeta(); err != nil {
		return nil, err
	}
	if err := t.RebuildELS(); err != nil {
		return nil, err
	}
	return t, nil
}

const metaMagic = "HTREEv1\x00"

// Metadata page layout (little endian): magic [0,8), dim [8,12), root
// [12,16), height [16,20), size [20,28), page size [28,32), then
// InvalidPage at [32,36) and byte 36 unused, where files of earlier
// versions kept the head and stale flag of a persisted ELS snapshot, and
// the dirty flag at byte 37, which those files hold as 0. An old binary
// reading a new file finds no snapshot and rebuilds its ELS table; the
// pages of an old file's snapshot chain are left unreferenced.
const (
	metaOldELSHead = 32
	metaDirty      = 37
	metaLen        = 38
)

// writeMeta writes the metadata page.
func (t *Tree) writeMeta() error {
	buf := make([]byte, metaLen)
	copy(buf, metaMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.cfg.Dim))
	binary.LittleEndian.PutUint32(buf[12:], uint32(t.root))
	binary.LittleEndian.PutUint32(buf[16:], uint32(t.height))
	binary.LittleEndian.PutUint64(buf[20:], uint64(t.size))
	binary.LittleEndian.PutUint32(buf[28:], uint32(t.cfg.PageSize))
	binary.LittleEndian.PutUint32(buf[metaOldELSHead:], uint32(pagefile.InvalidPage))
	if t.dirty {
		buf[metaDirty] = 1
	}
	return t.file.WritePage(t.meta, buf)
}

func (t *Tree) readMeta() error {
	buf := make([]byte, t.file.PageSize())
	if err := t.file.ReadPage(t.meta, buf); err != nil {
		return err
	}
	if string(buf[:8]) != metaMagic {
		return &ErrCorruptPage{Page: t.meta, Reason: "bad meta magic"}
	}
	if buf[metaDirty] != 0 {
		return ErrUncleanShutdown
	}
	if dim := int(binary.LittleEndian.Uint32(buf[8:])); dim != t.cfg.Dim {
		return fmt.Errorf("core: tree has dim %d, config says %d", dim, t.cfg.Dim)
	}
	if ps := int(binary.LittleEndian.Uint32(buf[28:])); ps != t.cfg.PageSize {
		return fmt.Errorf("core: tree has page size %d, config says %d", ps, t.cfg.PageSize)
	}
	t.root = pagefile.PageID(binary.LittleEndian.Uint32(buf[12:]))
	t.height = int(binary.LittleEndian.Uint32(buf[16:]))
	t.size = int(binary.LittleEndian.Uint64(buf[20:]))
	return nil
}

// Close flushes the metadata. Without a write-ahead log it first rewrites
// the node pages from memory if a seal has failed partway since the last
// Flush, then marks the file clean (see markClean); a later Open rebuilds
// the ELS side table from the data. The page file itself remains the
// caller's to close.
func (t *Tree) Close() error {
	if t.tx != nil {
		return t.writeMeta()
	}
	if t.torn {
		if err := t.store.flushAll(); err != nil {
			return err
		}
		t.torn = false
	}
	return t.markClean()
}

// Size returns the number of records in the tree.
func (t *Tree) Size() int { return t.size }

// Height returns the tree height; 1 means the root is a data node.
func (t *Tree) Height() int { return t.height }

// Config returns the tree's effective (defaulted) configuration.
func (t *Tree) Config() Config { return t.cfg }

// File exposes the underlying page file (for access accounting).
func (t *Tree) File() pagefile.File { return t.file }

// ELSMemoryBytes reports the in-memory footprint of the encoded-live-space
// side table, to check the paper's <1%-of-database claim.
func (t *Tree) ELSMemoryBytes() int { return t.els.MemoryBytes() }

// SetELSPrecision swaps the encoded-live-space table for one with the given
// precision (0 disables) and rebuilds it from the stored data. The tree
// structure itself never depends on ELS, so precision sweeps — Figure 5(c)
// of the paper — can reuse one build.
func (t *Tree) SetELSPrecision(bits int) error {
	t.els = els.NewTable(bits)
	t.cfg.ELSBits = bits
	t.cfg.ELSDisabled = bits == 0
	return t.RebuildELS()
}

// ErrBadVector is wrapped by the error of every mutation that refuses its
// vector before touching the tree: wrong dimensionality, or a position
// outside the configured data space (a NaN coordinate is outside every
// space). It is the caller's mistake, not the index's — layers above report
// it as a rejection (HTTP 400), not a failure.
var ErrBadVector = errors.New("core: vector does not fit the index")

// CheckVector reports whether Insert would refuse p: nil, or an error
// wrapping ErrBadVector. It reads only immutable configuration, so a caller
// may vet a vector without holding the writer lock — before queueing it
// into a batch that one refused insert would roll back, say.
func (t *Tree) CheckVector(p geom.Point) error {
	if err := t.checkDim(p); err != nil {
		return err
	}
	if !t.cfg.Space.Contains(p) {
		return fmt.Errorf("%w: vector %v outside the data space %v", ErrBadVector, p, t.cfg.Space)
	}
	return nil
}

func (t *Tree) checkDim(p geom.Point) error {
	if len(p) != t.cfg.Dim {
		return fmt.Errorf("%w: vector has dim %d, tree expects %d", ErrBadVector, len(p), t.cfg.Dim)
	}
	return nil
}

// Insert adds (p, rid) to the tree. The vector must lie inside the
// configured data space and have the configured dimensionality. Duplicate
// (vector, rid) pairs are stored as distinct entries.
//
// Insert is atomic: when it returns an error, the tree — nodes, header,
// ELS side table — is exactly as it was before the call.
func (t *Tree) Insert(p geom.Point, rid RecordID) error {
	if err := t.CheckVector(p); err != nil {
		return err
	}
	m := t.beginMutation()
	tr, start := t.beginTreeMutation(m, mutInsert)
	err := t.insertRecord(p, rid)
	if err == nil {
		err = t.sealMutation(m)
	}
	if err != nil {
		t.rollbackMutation(m)
		t.finishTreeMutation(m, mutInsert, tr, start, err)
		return err
	}
	t.commitMutation(m)
	t.finishTreeMutation(m, mutInsert, tr, start, nil)
	return nil
}

func (t *Tree) insertRecord(p geom.Point, rid RecordID) error {
	// The descent enlarges the ELS entry of every node it passes *as a
	// child of its parent* — which covers everything except the root.
	// Fresh trees never store a root entry, but RebuildELS (Open, BulkLoad)
	// does, and that entry would otherwise go silently stale and
	// under-report the live space.
	t.els.EnlargeExisting(uint32(t.root), t.cfg.Space, p)
	sr, err := t.insertAt(t.root, t.cfg.Space, p.Clone(), rid, t.height)
	if err != nil {
		return err
	}
	if sr != nil {
		if err := t.growRoot(*sr); err != nil {
			return err
		}
	}
	t.size++
	return nil
}

// growRoot installs a new root above a split old root.
func (t *Tree) growRoot(sr splitResult) error {
	root, err := t.store.alloc(false)
	if err != nil {
		return err
	}
	root.kd = []kdNode{
		{Dim: sr.dim, Lsp: sr.lsp, Rsp: sr.rsp, Left: 1, Right: 2},
		{Left: kdNone, Right: kdNone, Child: sr.left},
		{Left: kdNone, Right: kdNone, Child: sr.right},
	}
	root.kdRoot = 0
	t.store.put(root)
	t.root = root.id
	t.height++
	return nil
}

// insertAt descends into node id (whose mapped BR is br, at level 1 when it
// is a data node) and returns a split descriptor when the node had to
// split.
func (t *Tree) insertAt(id pagefile.PageID, br geom.Rect, p geom.Point, rid RecordID, level int) (*splitResult, error) {
	n, err := t.store.get(id)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		n.appendPoint(p, rid)
		if n.count() > t.cfg.dataCapacity() {
			sr, err := t.splitDataNode(n)
			if err != nil {
				return nil, err
			}
			return &sr, nil
		}
		t.store.put(n)
		t.els.Set(uint32(n.id), t.cfg.Space, n.dataRect())
		return nil, nil
	}

	leafIdx, path := t.chooseChild(n, br, p)
	dirty := widenPath(n, path, p)
	childBR := pathBR(n, br, path)
	childID := n.kd[leafIdx].Child
	if level > 2 {
		// A data child's entry is re-Set from its points after the append
		// (or by its split), so only an index child's is grown here.
		t.els.EnlargeToInclude(uint32(childID), t.cfg.Space, p)
	}

	sr, err := t.insertAt(childID, childBR, p, rid, level-1)
	if err != nil {
		return nil, err
	}
	if sr != nil {
		n.replaceLeafWithSplit(leafIdx, *sr)
		if n.serializedSize(t.cfg.Dim) > t.cfg.PageSize {
			up, err := t.splitIndexNode(n, br)
			if err != nil {
				return nil, err
			}
			return &up, nil
		}
		dirty = true
	}
	if dirty {
		t.store.put(n)
	}
	return nil, nil
}

// chooseChild picks the child whose mapped BR needs the least enlargement
// to accommodate p, ties broken by smaller area — the R-tree ChooseSubtree
// criterion running over the "array of BRs" view (Section 3.5). It returns
// the kd-leaf's arena index and the kd path from the root to it (scratch,
// valid until the next call).
//
// The answer is the first kd leaf, in depth-first order, with the least
// computed (enlargement, area); a NaN compares false, so it never displaces
// the best and sticks when it comes first. A kd leaf that p lies inside
// computes enlargement exactly 0 (grown and plain area multiply identical
// factors), no enlargement is below 0, and a certified leaf (see
// chooser.certified) computes one strictly above 0. So when the best
// uncertified leaf computes 0, a walk over every leaf picks that same
// leaf, and certified leaves are skipped unevaluated. Otherwise — no leaf
// contains p, a product left the float64 range, or a NaN came first — a
// second walk evaluates every leaf.
func (t *Tree) chooseChild(n *node, nodeBR geom.Rect, p geom.Point) (int32, []int32) {
	if n.kdRoot == kdNone {
		panic(fmt.Sprintf("core: index node %d has no children", n.id))
	}
	c := &t.chooser
	c.reset(n, nodeBR, p)
	c.walk(n.kdRoot)
	if c.best == kdNone || c.bestEnl != 0 {
		c.all, c.best = true, kdNone
		c.walk(n.kdRoot)
	}
	c.n, c.p = nil, nil // hold no node version past the call
	return c.best, c.path
}

// chooser is chooseChild's walk state, kept on the Tree so a descent
// allocates nothing. br is the scratch BR the kd walk narrows and restores
// in place; sum totals the certificate's per-dimension facts about br, and
// each kd step recomputes only the fact of the dimension it narrows.
type chooser struct {
	n   *node
	p   geom.Point
	br  geom.Rect
	all bool // evaluate every leaf, certified or not

	facts []certFacts
	sum   certFacts

	stack, path       []int32
	best              int32
	bestEnl, bestArea float64
}

// certFacts counts what the certificate needs of br, per dimension or
// summed over them: whether p lies outside by the margin, whether the
// extent is zero, and the extent's binary exponent e split as max(e, 0)
// and min(e, 0).
type certFacts struct {
	outside, zero, expHi, expLo int32
}

// factsOf classifies the extent [lo, hi] against coordinate x. p counts as
// outside when it lies beyond the extent by at least 2^-29 of it as
// computed, which is more than 2^-30 of the exact extent; every extent that
// is not positive counts as zero.
func factsOf(lo, hi, x float32) certFacts {
	ext := float64(hi) - float64(lo)
	if !(ext > 0) {
		return certFacts{zero: 1}
	}
	var f certFacts
	if m := ext * 0x1p-29; float64(x)-float64(hi) >= m || float64(lo)-float64(x) >= m {
		f.outside = 1
	}
	e := int32(math.Float64bits(ext)>>52&0x7ff) - 1023
	f.expHi, f.expLo = max(e, 0), min(e, 0)
	return f
}

func (c *chooser) reset(n *node, nodeBR geom.Rect, p geom.Point) {
	c.n, c.p, c.all = n, p, false
	c.br.Lo = append(c.br.Lo[:0], nodeBR.Lo...)
	c.br.Hi = append(c.br.Hi[:0], nodeBR.Hi...)
	c.facts = c.facts[:0]
	c.sum = certFacts{}
	for d := range p {
		f := factsOf(c.br.Lo[d], c.br.Hi[d], p[d])
		c.facts = append(c.facts, f)
		c.sum.outside += f.outside
		c.sum.zero += f.zero
		c.sum.expHi += f.expHi
		c.sum.expLo += f.expLo
	}
	c.stack, c.path = c.stack[:0], c.path[:0]
	c.best = kdNone
}

// descend walks child with br narrowed to [lo, hi] in dimension d, then
// restores br and the facts.
func (c *chooser) descend(child int32, d int, lo, hi float32) {
	oldLo, oldHi, oldF, oldSum := c.br.Lo[d], c.br.Hi[d], c.facts[d], c.sum
	f := factsOf(lo, hi, c.p[d])
	c.br.Lo[d], c.br.Hi[d], c.facts[d] = lo, hi, f
	c.sum.outside += f.outside - oldF.outside
	c.sum.zero += f.zero - oldF.zero
	c.sum.expHi += f.expHi - oldF.expHi
	c.sum.expLo += f.expLo - oldF.expLo
	c.walk(child)
	c.br.Lo[d], c.br.Hi[d], c.facts[d], c.sum = oldLo, oldHi, oldF, oldSum
}

// certified reports that br's computed enlargement is strictly above 0: p
// lies outside by the margin in some dimension, no extent is zero, and the
// exponent sums keep every partial product of the area in the normal
// float64 range (each extent is below 2^(e+1), so a product of k of them is
// below 2^(expHi+k) and at least 2^expLo). Then the area's and the grown
// area's rounding errors, under 2^-40 relative for the ≤ 1000 dimensions
// the budget admits, cannot close the ≥ 2^-30 relative growth, and the
// grown product is at least the area's, so it either stays finite and
// larger or overflows to +Inf: the difference is never 0 or NaN.
func (c *chooser) certified() bool {
	s := &c.sum
	return s.outside > 0 && s.zero == 0 && int(s.expHi)+len(c.p) <= 1000 && s.expLo >= -1000
}

func (c *chooser) walk(idx int32) {
	c.stack = append(c.stack, idx)
	k := &c.n.kd[idx]
	if k.isLeaf() {
		if c.all || !c.certified() {
			c.evaluate(idx)
		}
	} else {
		d := int(k.Dim)
		lo, hi := c.br.Lo[d], c.br.Hi[d]
		if k.Lsp < hi {
			if k.Lsp >= lo {
				c.descend(k.Left, d, lo, k.Lsp)
			}
		} else if hi >= lo {
			c.walk(k.Left)
		}
		if k.Rsp > lo {
			if hi >= k.Rsp {
				c.descend(k.Right, d, k.Rsp, hi)
			}
		} else if hi >= lo {
			c.walk(k.Right)
		}
	}
	c.stack = c.stack[:len(c.stack)-1]
}

// evaluate pays leaf idx's O(d) enlargement and area and keeps it when it
// beats the best so far.
func (c *chooser) evaluate(idx int32) {
	enl, area := enlargementAndArea(c.br, c.p)
	if c.best == kdNone || enl < c.bestEnl || (enl == c.bestEnl && area < c.bestArea) {
		c.best, c.bestEnl, c.bestArea = idx, enl, area
		c.path = append(c.path[:0], c.stack...)
	}
}

// enlargementAndArea returns the area increase needed for br to include p,
// and br's area, in one pass.
func enlargementAndArea(br geom.Rect, p geom.Point) (enl, area float64) {
	area = 1.0
	grown := 1.0
	for d := range p {
		lo, hi := br.Lo[d], br.Hi[d]
		area *= float64(hi) - float64(lo)
		if p[d] < lo {
			lo = p[d]
		}
		if p[d] > hi {
			hi = p[d]
		}
		grown *= float64(hi) - float64(lo)
	}
	return grown - area, area
}

// widenPath adjusts split positions along the kd path so the branch taken
// at every internal node admits p — the hybrid tree's analogue of R-tree BR
// enlargement. With overlapping or gapped splits the chosen child's bound
// may exclude p; raising lsp (left branch) or lowering rsp (right branch)
// to p's coordinate restores the invariant that a child's mapped BR
// contains all data beneath it. Returns whether anything changed.
func widenPath(n *node, path []int32, p geom.Point) bool {
	changed := false
	for i := 0; i+1 < len(path); i++ {
		k := &n.kd[path[i]]
		d := int(k.Dim)
		if path[i+1] == k.Left {
			if p[d] > k.Lsp {
				k.Lsp = p[d]
				changed = true
			}
		} else {
			if p[d] < k.Rsp {
				k.Rsp = p[d]
				changed = true
			}
		}
	}
	return changed
}

// pathBR computes the mapped BR at the end of a kd path starting from the
// node's own BR.
func pathBR(n *node, nodeBR geom.Rect, path []int32) geom.Rect {
	br := nodeBR.Clone()
	for i := 0; i+1 < len(path); i++ {
		k := &n.kd[path[i]]
		d := int(k.Dim)
		if path[i+1] == k.Left {
			if k.Lsp < br.Hi[d] {
				br.Hi[d] = k.Lsp
			}
		} else {
			if k.Rsp > br.Lo[d] {
				br.Lo[d] = k.Rsp
			}
		}
	}
	return br
}

// Delete removes one entry matching (p, rid). It reports whether an entry
// was found. Underfull data nodes are eliminated and their remaining
// entries reinserted, the R-tree eliminate-and-reinsert policy the paper
// adopts (Section 3.5).
//
// Delete is atomic: an error at any point — including partway through the
// orphan reinsertions — rolls the tree back to its pre-call state, so no
// record is ever lost or duplicated by a failed delete.
func (t *Tree) Delete(p geom.Point, rid RecordID) (bool, error) {
	if err := t.checkDim(p); err != nil {
		return false, err
	}
	m := t.beginMutation()
	tr, start := t.beginTreeMutation(m, mutDelete)
	found, err := t.deleteRecord(p, rid)
	if err == nil {
		err = t.sealMutation(m)
	}
	if err != nil {
		t.rollbackMutation(m)
		t.finishTreeMutation(m, mutDelete, tr, start, err)
		return false, err
	}
	t.commitMutation(m)
	t.finishTreeMutation(m, mutDelete, tr, start, nil)
	return found, nil
}

func (t *Tree) deleteRecord(p geom.Point, rid RecordID) (bool, error) {
	var orphanPts []geom.Point
	var orphanRids []RecordID
	found, _, err := t.deleteAt(t.root, t.cfg.Space, p, rid, t.height, &orphanPts, &orphanRids)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	t.size--
	// Shrink the root while it is an index node with a single child.
	for {
		rootN, err := t.store.get(t.root)
		if err != nil {
			return false, err
		}
		if rootN.leaf || rootN.kdRoot == kdNone || !rootN.kd[rootN.kdRoot].isLeaf() {
			break
		}
		child := rootN.kd[rootN.kdRoot].Child
		t.store.free(t.root)
		t.els.Delete(uint32(t.root))
		t.root = child
		t.height--
	}
	// Reinsert orphans from eliminated nodes.
	for i, op := range orphanPts {
		if err := t.insertRecord(op, orphanRids[i]); err != nil {
			return false, err
		}
		t.size-- // insertRecord counted it again; the record was already counted
		if m := t.metrics; m != nil {
			m.reinserts.Inc()
		}
		t.mutTrace.CountReinsert()
	}
	return true, nil
}

// deleteAt searches for (p, rid) beneath node id and removes it. It returns
// whether the entry was found and whether the subtree is now completely
// empty (so the parent can prune it). Eliminated children contribute their
// remaining entries to the orphan lists.
func (t *Tree) deleteAt(id pagefile.PageID, br geom.Rect, p geom.Point, rid RecordID, level int,
	orphanPts *[]geom.Point, orphanRids *[]RecordID) (found, empty bool, err error) {

	n, err := t.store.get(id)
	if err != nil {
		return false, false, err
	}
	if n.leaf {
		for i := range n.rids {
			if n.rids[i] == rid && n.point(i).Equal(p) {
				n.swapRemove(i)
				t.store.put(n)
				return true, n.count() == 0, nil
			}
		}
		return false, false, nil
	}

	// Probe every child whose mapped BR (∩ live rect) contains p.
	type cand struct {
		idx   int32
		child pagefile.PageID
		br    geom.Rect
	}
	var cands []cand
	brWalk := br.Clone()
	var walk func(idx int32)
	walk = func(idx int32) {
		k := &n.kd[idx]
		if k.isLeaf() {
			if brWalk.Contains(p) {
				live, ok := t.els.Get(uint32(k.Child), t.cfg.Space)
				if !ok || live.Contains(p) {
					cands = append(cands, cand{idx: idx, child: k.Child, br: brWalk.Clone()})
				}
			}
			return
		}
		d := int(k.Dim)
		oldHi := brWalk.Hi[d]
		if k.Lsp < oldHi {
			brWalk.Hi[d] = k.Lsp
		}
		if p[d] <= brWalk.Hi[d] {
			walk(k.Left)
		}
		brWalk.Hi[d] = oldHi
		oldLo := brWalk.Lo[d]
		if k.Rsp > oldLo {
			brWalk.Lo[d] = k.Rsp
		}
		if p[d] >= brWalk.Lo[d] {
			walk(k.Right)
		}
		brWalk.Lo[d] = oldLo
	}
	if n.kdRoot != kdNone {
		walk(n.kdRoot)
	}

	for _, c := range cands {
		found, childEmpty, err := t.deleteAt(c.child, c.br, p, rid, level-1, orphanPts, orphanRids)
		if err != nil {
			return false, false, err
		}
		if !found {
			continue
		}
		if childEmpty {
			// Prune the empty subtree. If it is our only child, we are
			// empty too and our parent prunes us instead.
			if n.removeChild(c.child) {
				t.store.put(n)
				return true, false, t.freeSubtree(c.child)
			}
			return true, true, nil
		}
		// Underflow handling: eliminate underfull data children (unless
		// they are this node's only child) and queue their entries for
		// reinsertion — the eliminate-and-reinsert policy of Section 3.5.
		child, err := t.store.get(c.child)
		if err != nil {
			return false, false, err
		}
		if child.leaf && child.count() < t.cfg.minDataFill() && n.removeChild(c.child) {
			*orphanPts = child.materializePoints(*orphanPts)
			*orphanRids = append(*orphanRids, child.rids...)
			t.store.free(c.child)
			t.els.Delete(uint32(c.child))
			t.store.put(n)
		}
		return true, false, nil
	}
	return false, false, nil
}

// freeSubtree releases every page of an (empty) subtree.
func (t *Tree) freeSubtree(id pagefile.PageID) error {
	n, err := t.store.get(id)
	if err != nil {
		return err
	}
	if !n.leaf {
		var children []pagefile.PageID
		n.walkLeaves(func(idx int32) { children = append(children, n.kd[idx].Child) })
		for _, c := range children {
			if err := t.freeSubtree(c); err != nil {
				return err
			}
		}
	}
	t.els.Delete(uint32(id))
	t.store.free(id)
	return nil
}

// RebuildELS recomputes the encoded-live-space table from the stored data
// (used after Open, when the in-memory side table is empty).
func (t *Tree) RebuildELS() error {
	if t.els.Enabled() {
		if _, err := t.rebuildELSAt(t.root); err != nil {
			return err
		}
	}
	t.publishNow()
	return nil
}

func (t *Tree) rebuildELSAt(id pagefile.PageID) (geom.Rect, error) {
	n, err := t.store.get(id)
	if err != nil {
		return geom.Rect{}, err
	}
	live := geom.EmptyRect(t.cfg.Dim)
	if n.leaf {
		if n.count() > 0 {
			live = n.dataRect()
		}
	} else {
		var children []pagefile.PageID
		n.walkLeaves(func(idx int32) { children = append(children, n.kd[idx].Child) })
		for _, c := range children {
			childLive, err := t.rebuildELSAt(c)
			if err != nil {
				return geom.Rect{}, err
			}
			live.EnlargeRect(childLive)
		}
	}
	if !live.IsEmpty() {
		t.els.Set(uint32(id), t.cfg.Space, live)
	}
	return live, nil
}
