package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// The store is the heart of the tree's MVCC scheme. Every page has a chain
// of immutable node versions, newest first, each stamped with the commit
// epoch at which it became current; a reader resolves a page by walking the
// chain to the first version no newer than its snapshot epoch. Writers
// never mutate a published node: a mutation clones each touched node into a
// private dirty set and, at commit, links the clones into the chains at the
// next epoch with one atomic store per page. Readers therefore need zero
// lock acquisitions — a search is atomic loads all the way down — and an
// in-flight search keeps observing the exact tree it started on no matter
// how many commits land meanwhile.
//
// Reclamation is epoch-based: superseding a version retires it at the
// commit's epoch, and a retired version is freed once every pinned reader's
// epoch has advanced past that commit (see pin for the ordering argument).

// nodeVersion is one immutable version of a page's decoded node. n == nil
// marks a tombstone: the page was freed at .epoch and has no content from
// that epoch on.
type nodeVersion struct {
	n     *node
	epoch uint64
	prev  atomic.Pointer[nodeVersion]
}

// pageSlot heads one page's version chain. Slots live in a dense table
// indexed by page id (page ids are allocated densely by the page files), so
// a reader's lookup is one atomic slice-pointer load plus an index.
type pageSlot struct {
	head atomic.Pointer[nodeVersion]
}

// resolveVersion walks a chain to the newest version visible at epoch.
// Returns nil when the page has no content at that epoch (tombstone, or a
// page allocated after the snapshot).
func resolveVersion(v *nodeVersion, epoch uint64) *node {
	for v != nil {
		if v.epoch <= epoch {
			return v.n
		}
		v = v.prev.Load()
	}
	return nil
}

// pinSlots is the size of the fixed reader-pin table. Slots are claimed
// with a CAS and padded to a cache line each so concurrent readers don't
// false-share; 64 slots comfortably exceeds any realistic GOMAXPROCS and a
// full table just means the reader spins briefly for a slot.
const pinSlots = 64

type pinSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// retiredVersion records a version chain suffix awaiting reclamation: once
// no pinned reader can need versions older than epoch, succ's prev link is
// severed and the garbage collector takes it from there. For tombstones,
// slot is additionally recorded so the (now contentless) chain head itself
// can be cleared.
type retiredVersion struct {
	succ  *nodeVersion
	slot  *pageSlot
	epoch uint64
}

// mutScope is a writer's private copy-on-write workspace, and the only
// place a mutation exists until it is sealed: dirty holds every node it
// cloned or allocated, flagging the ones it changed (put) for writeMut, and
// freed the pages it released. Ordered slices accompany the maps because
// map iteration order is randomized in Go, and a nondeterministic order of
// page operations would consume fault-injection decisions in random order,
// breaking trace reproducibility.
type mutScope struct {
	active     bool
	dirty      map[pagefile.PageID]dirtyNode
	dirtyOrder []pagefile.PageID // first-touch order
	putOrder   []pagefile.PageID // first-put order
	freshOrder []pagefile.PageID
	freed      map[pagefile.PageID]struct{} // allocated on first free
	frees      []pagefile.PageID
}

type dirtyNode struct {
	n   *node
	put bool
}

// store mediates between decoded nodes and their on-disk pages. It keeps a
// never-evicting, multi-version cache of decoded nodes so that traversal
// does not pay a decode per step, while still charging *every* logical
// node access to the page file's counters: the paper's I/O metric is the
// number of disk accesses a cold query would make, so a cache hit must cost
// the same one logical read as a miss. Pages are written at exactly two
// points: writeThrough (construction, bulk load) and writeMut, which writes
// a mutation's changed nodes when it seals.
type store struct {
	file pagefile.File
	dim  int
	bufs sync.Pool // *[]byte scratch pages, one File.PageSize each

	// epoch is the current published commit epoch. It advances only after
	// the tree's new root version is visible (see Tree.commitMutation).
	epoch atomic.Uint64

	// table is the dense page-id → version-chain table. tableMu serializes
	// growth and cache-miss installs; readers only ever load.
	tableMu sync.Mutex
	table   atomic.Pointer[[]pageSlot]

	pins      [pinSlots]pinSlot
	pinCursor atomic.Uint32

	// retired is the reclamation queue, in nondecreasing epoch order. It is
	// touched only by the serialized writer. retiredCount mirrors its
	// length for lock-free introspection.
	retired      []retiredVersion
	retiredCount atomic.Int64

	mut mutScope

	// obs holds the shared node-read/cache-hit counters; nil disables obs
	// accounting (and audits pause it so structural walks don't pollute the
	// operational telemetry, mirroring their pagefile.Stats save/restore).
	obs atomic.Pointer[storeObs]
}

// storeObs is the store's bundle of shared obs counters. Every access
// method resolves the same counter names via obs.IndexCounters, so
// cross-method comparisons read one code path's numbers.
type storeObs struct {
	reads, hits, misses *obs.Counter
}

func storeObsFor(method string) *storeObs {
	reads, hits, misses := obs.IndexCounters(obs.Default(), method)
	return &storeObs{reads: reads, hits: hits, misses: misses}
}

// pauseObs detaches the obs counters and returns the previous attachment
// for resumeObs, so audit walks don't inflate read accounting.
func (s *store) pauseObs() *storeObs {
	o := s.obs.Load()
	s.obs.Store(nil)
	return o
}

func (s *store) resumeObs(o *storeObs) { s.obs.Store(o) }

func newStore(file pagefile.File, dim int) *store {
	s := &store{file: file, dim: dim}
	s.obs.Store(storeObsFor("hybrid"))
	empty := make([]pageSlot, 0)
	s.table.Store(&empty)
	pageSize := file.PageSize()
	s.bufs.New = func() any {
		b := make([]byte, pageSize)
		return &b
	}
	return s
}

// slot returns the chain head slot for id, or nil when the table does not
// yet cover it. Lock-free.
func (s *store) slot(id pagefile.PageID) *pageSlot {
	tab := *s.table.Load()
	if int(id) >= len(tab) {
		return nil
	}
	return &tab[id]
}

// slotLocked returns the slot for id, growing the table as needed. The
// caller must hold tableMu. Growth copies chain-head pointers into a fresh
// slice and publishes it atomically; readers holding the old slice still
// observe every version published before the growth, because slots share
// the chain nodes, and re-load the table on each lookup.
func (s *store) slotLocked(id pagefile.PageID) *pageSlot {
	tab := *s.table.Load()
	if int(id) < len(tab) {
		return &tab[id]
	}
	n := len(tab) * 2
	if n < 64 {
		n = 64
	}
	for int(id) >= n {
		n *= 2
	}
	nt := make([]pageSlot, n)
	for i := range tab {
		nt[i].head.Store(tab[i].head.Load())
	}
	s.table.Store(&nt)
	return &nt[id]
}

// pin claims a reader-pin slot stamped with the current epoch (biased by
// one so zero can mean free) and returns it with the advisory epoch read.
//
// Ordering argument: the reader CASes its slot *before* loading the
// published tree version, and a committing writer publishes the new version
// *before* scanning the pin table (both with sequentially consistent
// atomics). So if the writer's scan misses a reader, that reader's
// subsequent version load must observe the writer's publication — a
// snapshot new enough to need none of the versions the writer retires.
func (s *store) pin() (*pinSlot, uint64) {
	e := s.epoch.Load()
	start := uint(s.pinCursor.Add(1))
	for {
		for i := uint(0); i < pinSlots; i++ {
			sl := &s.pins[(start+i)%pinSlots]
			if sl.v.CompareAndSwap(0, e+1) {
				return sl, e
			}
		}
		runtime.Gosched()
		e = s.epoch.Load()
	}
}

func (s *store) unpin(sl *pinSlot) { sl.v.Store(0) }

// minPinnedEpoch returns the lowest epoch any active reader is pinned at,
// or MaxUint64 when no reader is pinned.
func (s *store) minPinnedEpoch() uint64 {
	min := uint64(math.MaxUint64)
	for i := range s.pins {
		if v := s.pins[i].v.Load(); v != 0 && v-1 < min {
			min = v - 1
		}
	}
	return min
}

// beginMut opens a writer's copy-on-write scope. The caller holds the
// writer lock, so exactly one scope is ever active.
func (s *store) beginMut() {
	s.mut.active = true
	s.mut.dirty = make(map[pagefile.PageID]dirtyNode)
}

func (s *store) mutActive() bool { return s.mut.active }

func (s *store) endMut() {
	s.mut.active = false
	s.mut.dirty = nil
	s.mut.freed = nil
	s.mut.dirtyOrder = s.mut.dirtyOrder[:0]
	s.mut.putOrder = s.mut.putOrder[:0]
	s.mut.freshOrder = s.mut.freshOrder[:0]
	s.mut.frees = s.mut.frees[:0]
}

// chargeHit accounts one logical random read served from memory.
func (s *store) chargeHit() {
	s.file.Stats().AddRandomReads(1)
	if o := s.obs.Load(); o != nil {
		o.reads.Inc()
		o.hits.Inc()
	}
}

func (s *store) chargeMiss() {
	// The physical ReadPage already bumped the file's counters.
	if o := s.obs.Load(); o != nil {
		o.reads.Inc()
		o.misses.Inc()
	}
}

// readAndDecode loads and decodes id's page from disk.
func (s *store) readAndDecode(id pagefile.PageID) (*node, error) {
	bufp := s.bufs.Get().(*[]byte)
	if err := s.file.ReadPage(id, *bufp); err != nil {
		s.bufs.Put(bufp)
		return nil, err
	}
	n, err := decodeNode(id, *bufp, s.dim)
	s.bufs.Put(bufp)
	return n, err
}

// installBase caches a disk-decoded node as the page's base version (epoch
// 0: a page absent from the table was never mutated in this process, so its
// disk image is valid for every snapshot). First decode wins; a racing
// installer's resolution is returned.
func (s *store) installBase(id pagefile.PageID, n *node, epoch uint64) *node {
	s.tableMu.Lock()
	sl := s.slotLocked(id)
	if v := sl.head.Load(); v != nil {
		if cached := resolveVersion(v, epoch); cached != nil {
			n = cached
		}
		// A chain appeared but has nothing visible at this epoch (e.g. a
		// commit tombstoned the page just after our disk read): return the
		// decoded copy without linking it — installing an epoch-0 head over
		// newer versions would violate the chain's descending-epoch order.
	} else {
		sl.head.Store(&nodeVersion{n: n})
	}
	s.tableMu.Unlock()
	return n
}

// getq resolves id at the given snapshot epoch, counting one logical random
// read and reporting whether it was served from the version cache. This is
// the reader fast path: zero locks, zero allocations when warm.
func (s *store) getq(id pagefile.PageID, epoch uint64) (*node, bool, error) {
	if sl := s.slot(id); sl != nil {
		if n := resolveVersion(sl.head.Load(), epoch); n != nil {
			s.chargeHit()
			return n, true, nil
		}
	}
	n, err := s.readAndDecode(id)
	if err != nil {
		return nil, false, err
	}
	s.chargeMiss()
	return s.installBase(id, n, epoch), false, nil
}

// get resolves id for the writer: inside a mutation scope it returns the
// private dirty clone (creating it on first touch), otherwise the newest
// committed version.
func (s *store) get(id pagefile.PageID) (*node, error) {
	if s.mut.active {
		return s.getMut(id)
	}
	n, _, err := s.getq(id, s.epoch.Load())
	return n, err
}

// getAudit resolves id at epoch without touching the logical read
// accounting, for snapshot audits that must not perturb operational
// telemetry. A cache miss still performs (and physically counts) a real
// disk read.
func (s *store) getAudit(id pagefile.PageID, epoch uint64) (*node, error) {
	if sl := s.slot(id); sl != nil {
		if n := resolveVersion(sl.head.Load(), epoch); n != nil {
			return n, nil
		}
	}
	n, err := s.readAndDecode(id)
	if err != nil {
		return nil, err
	}
	return s.installBase(id, n, epoch), nil
}

// getMut returns a node the mutation may modify freely: the dirty clone if
// one exists, else a fresh clone of the newest committed version. The
// charging mirrors the reader path exactly — first touch costs what a
// reader's hit or miss would, repeat touches cost a hit — so mutation I/O
// accounting is unchanged from the locked design.
func (s *store) getMut(id pagefile.PageID) (*node, error) {
	if d, ok := s.mut.dirty[id]; ok {
		s.chargeHit()
		return d.n, nil
	}
	var base *node
	if sl := s.slot(id); sl != nil {
		if v := sl.head.Load(); v != nil && v.n != nil {
			base = v.n
		}
	}
	if base != nil {
		s.chargeHit()
	} else {
		n, err := s.readAndDecode(id)
		if err != nil {
			return nil, err
		}
		s.chargeMiss()
		// Install the disk image as the base version so concurrent snapshot
		// readers resolve the pre-image from memory.
		base = s.installBase(id, n, s.epoch.Load())
	}
	n := base.clone()
	s.mut.dirty[id] = dirtyNode{n: n}
	s.mut.dirtyOrder = append(s.mut.dirtyOrder, id)
	return n, nil
}

// alloc creates a fresh node of the requested kind backed by a new page.
// The caller must put it once populated.
func (s *store) alloc(leaf bool) (*node, error) {
	id, err := s.file.Allocate()
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: leaf, dim: s.dim, kdRoot: kdNone}
	if s.mut.active {
		s.mut.freshOrder = append(s.mut.freshOrder, id)
		s.mut.dirty[id] = dirtyNode{n: n}
		s.mut.dirtyOrder = append(s.mut.dirtyOrder, id)
		return n, nil
	}
	s.installNow(id, n)
	return n, nil
}

// installNow publishes n as id's current version outside any mutation
// scope (construction and bulk-load paths, which run before the tree is
// shared).
func (s *store) installNow(id pagefile.PageID, n *node) {
	s.tableMu.Lock()
	sl := s.slotLocked(id)
	sl.head.Store(&nodeVersion{n: n, epoch: s.epoch.Load()})
	s.tableMu.Unlock()
}

// writePage encodes n into its page.
func (s *store) writePage(n *node) error {
	bufp := s.bufs.Get().(*[]byte)
	size, err := n.encode(*bufp, s.dim)
	if err == nil {
		err = s.file.WritePage(n.id, (*bufp)[:size])
	}
	s.bufs.Put(bufp)
	return err
}

// put records that the mutation changed n — a pure in-memory mark: n
// (joining the dirty set if it is not there already) is flagged, and
// writeMut writes it when the mutation seals.
func (s *store) put(n *node) {
	d, ok := s.mut.dirty[n.id]
	if !ok {
		s.mut.dirtyOrder = append(s.mut.dirtyOrder, n.id)
	}
	if !d.put {
		s.mut.putOrder = append(s.mut.putOrder, n.id)
	}
	s.mut.dirty[n.id] = dirtyNode{n: n, put: true}
}

// writeThrough writes n to its page and publishes it at once, outside any
// mutation scope (construction and bulk load, before the tree is shared).
func (s *store) writeThrough(n *node) error {
	if err := s.writePage(n); err != nil {
		return err
	}
	s.installNow(n.id, n)
	return nil
}

// writeMut is the mutation's one write path: every node that was put and
// not freed again is written, once, in first-put order. Clones the descent
// made but never changed are not — their pages already hold the same bytes.
func (s *store) writeMut() error {
	for _, id := range s.mut.putOrder {
		if _, freed := s.mut.freed[id]; freed {
			continue
		}
		if err := s.writePage(s.mut.dirty[id].n); err != nil {
			return err
		}
	}
	return nil
}

// free releases the node's page when the mutation commits: rollback must
// be able to return to the pre-mutation state without resurrecting pages,
// and snapshot readers may still be traversing the page's current version.
func (s *store) free(id pagefile.PageID) {
	if s.mut.freed == nil {
		s.mut.freed = make(map[pagefile.PageID]struct{})
	}
	s.mut.freed[id] = struct{}{}
	s.mut.frees = append(s.mut.frees, id)
}

// rollbackMut discards the mutation's private state. Shared state was never
// touched and no page was written, so all that is left to undo is the
// allocation of fresh pages, released in reverse allocation order; the ids
// whose free failed are returned for the tree to retry like commit-time
// leaks.
func (s *store) rollbackMut() (leaked []pagefile.PageID) {
	for i := len(s.mut.freshOrder) - 1; i >= 0; i-- {
		if id := s.mut.freshOrder[i]; s.file.Free(id) != nil {
			leaked = append(leaked, id)
		}
	}
	s.endMut()
	return leaked
}

// commitMut links every dirty node into its page's version chain at epoch c
// and tombstones the freed pages. It deliberately returns no error: the
// mutation's logical effect is already fully applied, so a failed page Free
// must not be reported as a failed mutation — the page merely leaks and the
// returned ids let the tree retry later (a failed Free leaves the page
// allocated, so it can never be handed out again meanwhile).
//
// The caller publishes the new tree version and advances the epoch *after*
// this returns; readers filter chains by their snapshot epoch, so the
// partially linked state is invisible until then.
func (s *store) commitMut(c uint64) (leaked []pagefile.PageID) {
	s.tableMu.Lock()
	for _, id := range s.mut.dirtyOrder {
		if _, ok := s.mut.freed[id]; ok {
			continue
		}
		sl := s.slotLocked(id)
		old := sl.head.Load()
		nv := &nodeVersion{n: s.mut.dirty[id].n, epoch: c}
		nv.prev.Store(old)
		sl.head.Store(nv)
		if old != nil {
			s.retired = append(s.retired, retiredVersion{succ: nv, epoch: c})
		}
	}
	for _, id := range s.mut.frees {
		sl := s.slotLocked(id)
		old := sl.head.Load()
		tomb := &nodeVersion{epoch: c}
		tomb.prev.Store(old)
		sl.head.Store(tomb)
		s.retired = append(s.retired, retiredVersion{succ: tomb, slot: sl, epoch: c})
	}
	s.tableMu.Unlock()
	s.retiredCount.Store(int64(len(s.retired)))
	for _, id := range s.mut.frees {
		if err := s.file.Free(id); err != nil {
			leaked = append(leaked, id)
		}
	}
	s.endMut()
	return leaked
}

// advanceEpoch publishes c as the current epoch. Called after the tree's
// new root version is visible so a reader's advisory epoch never runs
// ahead of the version it will load.
func (s *store) advanceEpoch(c uint64) { s.epoch.Store(c) }

// reclaimRetired severs the chain suffixes no pinned reader can still
// need and returns how many versions remain retired. Writer-serialized.
func (s *store) reclaimRetired() int {
	if len(s.retired) == 0 {
		return 0
	}
	min := s.minPinnedEpoch()
	n := 0
	for n < len(s.retired) && s.retired[n].epoch <= min {
		r := s.retired[n]
		r.succ.prev.Store(nil)
		if r.slot != nil {
			// Tombstone whose chain is now dead: clear the head too unless
			// the page was reallocated and has a newer chain on top.
			r.slot.head.CompareAndSwap(r.succ, nil)
		}
		s.retired[n] = retiredVersion{}
		n++
	}
	if n > 0 {
		s.retired = append(s.retired[:0], s.retired[n:]...)
	}
	s.retiredCount.Store(int64(len(s.retired)))
	return len(s.retired)
}

// flushAll re-encodes every cached current node to its page in ascending id
// order, repairing any disk pages that a faulty write left stale or torn.
// It stops at the first error.
func (s *store) flushAll() error {
	tab := *s.table.Load()
	for id := range tab {
		v := tab[id].head.Load()
		if v == nil || v.n == nil {
			continue
		}
		if err := s.writePage(v.n); err != nil {
			return err
		}
	}
	return nil
}

// dropCache evicts every single-version chain (used by tests that want to
// force decode paths, and by Close). Multi-version chains are kept: they
// exist precisely because a pinned reader may still need the older
// versions, and the newest version may not have reached disk intact. Safe
// against concurrent readers — an evicted page re-installs from its
// current disk image at the base epoch, which is valid for every epoch a
// reader can still be pinned at.
func (s *store) dropCache() {
	tab := *s.table.Load()
	for i := range tab {
		v := tab[i].head.Load()
		if v != nil && v.n != nil && v.prev.Load() == nil {
			tab[i].head.CompareAndSwap(v, nil)
		}
	}
}
