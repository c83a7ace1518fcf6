// Package pagefile provides the paged storage substrate every index
// structure in this repository sits on: fixed-size pages, allocation, and —
// crucially for reproducing the paper's evaluation — accounting of page
// accesses. The paper measures query cost as the average number of disk
// accesses per query with a 4096-byte page, and normalizes against a
// sequential scan whose pages are read 10x faster than random pages
// (Section 4). Stats captures exactly those quantities.
package pagefile

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"hybridtree/internal/obs"
)

// PageID identifies a page within a File.
type PageID uint32

// InvalidPage is a sentinel that never names a real page.
const InvalidPage PageID = ^PageID(0)

// DefaultPageSize is the page size used throughout the paper's experiments.
const DefaultPageSize = 4096

// Stats counts page-level operations. Random and sequential reads are kept
// separate because the paper's normalized I/O cost model charges sequential
// reads one tenth of a random read.
//
// Counters shared between goroutines must be bumped through the Add*
// methods, which are atomic; concurrent searches each charge their logical
// accesses this way, so totals stay exact (the paper's I/O metric is a
// count, and counts commute). Direct field access remains valid for value
// snapshots and single-threaded code (tests, struct literals), but racing a
// plain field read against Add* is undefined — use Snapshot or the atomic
// accessors when counters may be live.
type Stats struct {
	RandomReads uint64
	SeqReads    uint64
	Writes      uint64
	Allocs      uint64
	Frees       uint64
	Syncs       uint64
}

// AddRandomReads atomically adds n random reads.
func (s *Stats) AddRandomReads(n uint64) { atomic.AddUint64(&s.RandomReads, n) }

// AddSeqReads atomically adds n sequential reads.
func (s *Stats) AddSeqReads(n uint64) { atomic.AddUint64(&s.SeqReads, n) }

// addWrites atomically adds n writes.
func (s *Stats) addWrites(n uint64) { atomic.AddUint64(&s.Writes, n) }

// addAllocs atomically adds n allocations.
func (s *Stats) addAllocs(n uint64) { atomic.AddUint64(&s.Allocs, n) }

// addFrees atomically adds n frees.
func (s *Stats) addFrees(n uint64) { atomic.AddUint64(&s.Frees, n) }

// addSyncs atomically adds n syncs. Syncs are the one Stats counter also
// mirrored into the process-wide registry (pagefile_syncs_total): fsyncs are
// the dominant durability cost, and the end-of-run observability dumps read
// them from the registry alongside the wal_* metrics.
func (s *Stats) addSyncs(n uint64) {
	atomic.AddUint64(&s.Syncs, n)
	syncsCounter().Add(n)
}

// syncsCounter resolves the shared pagefile_syncs_total counter once; the
// sync path already pays an fsync, so the extra atomic add is free.
var (
	syncsOnce sync.Once
	syncsVal  *obs.Counter
)

func syncsCounter() *obs.Counter {
	syncsOnce.Do(func() { syncsVal = obs.Default().Counter("pagefile_syncs_total") })
	return syncsVal
}

// Snapshot returns an atomically-read copy of the counters, safe to take
// while other goroutines are still counting.
func (s *Stats) Snapshot() Stats {
	return Stats{
		RandomReads: atomic.LoadUint64(&s.RandomReads),
		SeqReads:    atomic.LoadUint64(&s.SeqReads),
		Writes:      atomic.LoadUint64(&s.Writes),
		Allocs:      atomic.LoadUint64(&s.Allocs),
		Frees:       atomic.LoadUint64(&s.Frees),
		Syncs:       atomic.LoadUint64(&s.Syncs),
	}
}

// Reset zeroes all counters (used between the build and query phases of an
// experiment).
func (s *Stats) Reset() {
	atomic.StoreUint64(&s.RandomReads, 0)
	atomic.StoreUint64(&s.SeqReads, 0)
	atomic.StoreUint64(&s.Writes, 0)
	atomic.StoreUint64(&s.Allocs, 0)
	atomic.StoreUint64(&s.Frees, 0)
	atomic.StoreUint64(&s.Syncs, 0)
}

// Reads returns the total number of reads of either kind.
func (s *Stats) Reads() uint64 {
	return atomic.LoadUint64(&s.RandomReads) + atomic.LoadUint64(&s.SeqReads)
}

// NormalizedIO returns the paper's normalized I/O cost for these stats given
// the size (in pages) of a sequential scan of the whole file: random reads
// count 1, sequential reads 1/10, divided by the scan size. A sequential
// scan of the file therefore scores exactly 0.1.
func (s *Stats) NormalizedIO(scanPages int) float64 {
	if scanPages == 0 {
		return 0
	}
	random := atomic.LoadUint64(&s.RandomReads)
	seq := atomic.LoadUint64(&s.SeqReads)
	return (float64(random) + float64(seq)/10) / float64(scanPages)
}

// File is a collection of fixed-size pages. Implementations must allow any
// number of concurrent ReadPage/ReadPageSeq/Stats calls; mutating calls
// (WritePage, Allocate, Free, Close) require external exclusion against all
// other calls, which the index-level reader/writer locking above this layer
// provides. All implementations in this package count through the atomic
// Stats methods, so access accounting stays exact under concurrent readers.
type File interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// ReadPage fills buf (which must be PageSize bytes) with the page's
	// contents and counts a random read.
	ReadPage(id PageID, buf []byte) error
	// ReadPageSeq is ReadPage but counted as a sequential access; scans use
	// it when walking pages in order.
	ReadPageSeq(id PageID, buf []byte) error
	// WritePage stores data (at most PageSize bytes) as the page's contents.
	WritePage(id PageID, data []byte) error
	// Allocate returns a fresh page id, reusing freed pages first.
	Allocate() (PageID, error)
	// Free returns a page to the allocator.
	Free(id PageID) error
	// NumPages returns the number of live (allocated, unfreed) pages.
	NumPages() int
	// Sync makes every previously acknowledged write durable: after Sync
	// returns nil, the writes survive a process kill or power loss. A write
	// that has only been acknowledged — not synced — may be lost or torn by
	// a crash. Like WritePage, Sync requires external exclusion against
	// mutating calls.
	Sync() error
	// Stats exposes the operation counters for this file.
	Stats() *Stats
	// Close releases underlying resources.
	Close() error
}

// TxFile is the optional transactional extension a write-ahead-logged file
// implements. Callers bracket a group of writes with BeginTx and SealTx;
// SealTx returning nil means the whole group is durable (will survive a
// crash) and will be replayed atomically on recovery. Until then the group
// is invisible: reads return the last committed image of every page, so a
// caller that needs its own uncommitted writes keeps them itself. AbortTx,
// or SealTx returning an error, drops the whole group and leaves the file
// exactly as it was before BeginTx — the caller only has to restore its
// in-memory state. Writes made outside a bracket are logged as single-write
// transactions. The core tree detects this interface at open time and, when
// present, seals a transaction per mutation before acknowledging it.
type TxFile interface {
	File
	BeginTx()
	SealTx() error
	AbortTx()
}

// readOnlyFile marks a File implementation that rejects all mutations (for
// example the mmap backend). Layers that need write access up front — the
// write-ahead log, most prominently — check for it at open time so callers
// get one typed error instead of a late WritePage failure mid-transaction.
type readOnlyFile interface {
	ReadOnly() bool
}

// IsReadOnly reports whether f declares itself read-only. Wrappers that
// embed the File interface do not forward the marker, so this reliably
// detects only a directly read-only base — which is exactly the case the
// WAL needs to reject.
func IsReadOnly(f File) bool {
	ro, ok := f.(readOnlyFile)
	return ok && ro.ReadOnly()
}

// readVia is the wrappers' one read path into the file below: a sequential
// read when seq is set, a random one otherwise.
func readVia(f File, id PageID, buf []byte, seq bool) error {
	if seq {
		return f.ReadPageSeq(id, buf)
	}
	return f.ReadPage(id, buf)
}

// Errors returned by File implementations.
var (
	ErrPageBounds = errors.New("pagefile: page id out of bounds")
	ErrPageFreed  = errors.New("pagefile: access to freed page")
	ErrTooLarge   = errors.New("pagefile: write exceeds page size")
	ErrClosed     = errors.New("pagefile: file is closed")
	ErrReadOnly   = errors.New("pagefile: file is read-only")
)

// pageSpace is the File contract's bookkeeping, written once for every
// backend: page size and count, the LIFO free list, the closed / bounds /
// freed check, Stats counting and the read path. A backend embeds it and
// adds only its medium — where page bytes live — and its lock; PageSize,
// Stats, NumPages, ReadPage and ReadPageSeq are promoted from here.
type pageSpace struct {
	pageSize int
	nPages   int // pages ever allocated, freed ones included
	freed    []PageID
	isFree   map[PageID]bool
	stats    Stats
	closed   bool

	// load copies page id out of the medium into buf, after check passed.
	// readMu, when set, is the backend's lock as a reader takes it, held
	// around the check, the count and the load.
	load   func(id PageID, buf []byte) error
	readMu sync.Locker
}

// init readies s for a backend; a non-positive pageSize means
// DefaultPageSize.
func (s *pageSpace) init(pageSize int, load func(PageID, []byte) error, readMu sync.Locker) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	s.pageSize, s.load, s.readMu = pageSize, load, readMu
	s.isFree = make(map[PageID]bool)
}

// PageSize implements File.
func (s *pageSpace) PageSize() int { return s.pageSize }

// Stats implements File.
func (s *pageSpace) Stats() *Stats { return &s.stats }

// NumPages implements File. A closed file has no live pages.
func (s *pageSpace) NumPages() int {
	if s.readMu != nil {
		s.readMu.Lock()
		defer s.readMu.Unlock()
	}
	if s.closed {
		return 0
	}
	return s.nPages - len(s.freed)
}

// check is the one rule for whether id names a live page of an open file.
func (s *pageSpace) check(id PageID) error {
	if s.closed {
		return ErrClosed
	}
	if int(id) >= s.nPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageBounds, id, s.nPages)
	}
	if s.isFree[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

// ReadPage implements File.
func (s *pageSpace) ReadPage(id PageID, buf []byte) error { return s.read(id, buf, false) }

// ReadPageSeq implements File.
func (s *pageSpace) ReadPageSeq(id PageID, buf []byte) error { return s.read(id, buf, true) }

// read is the one read path: only a read that passes check is charged.
func (s *pageSpace) read(id PageID, buf []byte, seq bool) error {
	if s.readMu != nil {
		s.readMu.Lock()
		defer s.readMu.Unlock()
	}
	if err := s.check(id); err != nil {
		return err
	}
	if seq {
		s.stats.AddSeqReads(1)
	} else {
		s.stats.AddRandomReads(1)
	}
	return s.load(id, buf)
}

// checkWrite admits a WritePage of data to id and charges it.
func (s *pageSpace) checkWrite(id PageID, data []byte) error {
	if err := s.check(id); err != nil {
		return err
	}
	if len(data) > s.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), s.pageSize)
	}
	s.stats.addWrites(1)
	return nil
}

// alloc hands out a page id, reusing the most recently freed page first.
// fresh reports an id past the old end, which the medium must grow to hold.
func (s *pageSpace) alloc() (id PageID, fresh bool, err error) {
	if s.closed {
		return InvalidPage, false, ErrClosed
	}
	s.stats.addAllocs(1)
	if n := len(s.freed); n > 0 {
		id = s.freed[n-1]
		s.freed = s.freed[:n-1]
		delete(s.isFree, id)
		return id, false, nil
	}
	s.nPages++
	return PageID(s.nPages - 1), true, nil
}

// free returns id to the free list.
func (s *pageSpace) free(id PageID) error {
	if err := s.check(id); err != nil {
		return err
	}
	s.stats.addFrees(1)
	s.freed = append(s.freed, id)
	s.isFree[id] = true
	return nil
}

// countSync admits a Sync and charges it.
func (s *pageSpace) countSync() error {
	if s.closed {
		return ErrClosed
	}
	s.stats.addSyncs(1)
	return nil
}

// MemFile is an in-memory File. It is what the benchmark harness uses: the
// paper's I/O metric is a *count* of page accesses, so the measurements do
// not require physically spinning a disk. Reads are safe to run
// concurrently (page contents are only read and counters are atomic);
// writes need external exclusion per the File contract.
type MemFile struct {
	pageSpace
	pages [][]byte
}

// NewMemFile creates an in-memory page file with the given page size.
func NewMemFile(pageSize int) *MemFile {
	f := &MemFile{}
	f.init(pageSize, f.loadPage, nil)
	return f
}

func (f *MemFile) loadPage(id PageID, buf []byte) error {
	copy(buf, f.pages[id])
	return nil
}

// WritePage implements File.
func (f *MemFile) WritePage(id PageID, data []byte) error {
	if err := f.checkWrite(id, data); err != nil {
		return err
	}
	page := f.pages[id]
	clear(page[copy(page, data):])
	return nil
}

// Allocate implements File.
func (f *MemFile) Allocate() (PageID, error) {
	id, fresh, err := f.alloc()
	if fresh {
		f.pages = append(f.pages, make([]byte, f.pageSize))
	}
	return id, err
}

// Free implements File.
func (f *MemFile) Free(id PageID) error { return f.free(id) }

// Sync implements File. Memory is as durable as a MemFile gets, so this
// only counts the call; CrashFile is the in-memory backend that actually
// distinguishes acknowledged from durable state.
func (f *MemFile) Sync() error { return f.countSync() }

// Close implements File.
func (f *MemFile) Close() error {
	f.closed = true
	f.pages = nil
	return nil
}

// DiskFile is a File backed by an operating-system file. Pages live at
// offset id*PageSize. The free list is kept in memory; a production system
// would persist it, but index lifetime here is process lifetime. One mutex
// serialises every call, reads included: it spans the pread.
type DiskFile struct {
	pageSpace
	mu  sync.Mutex
	f   *os.File
	pad []byte // under mu: a short write's zero-padded page
}

func newDiskFile(f *os.File, pageSize int) *DiskFile {
	d := &DiskFile{f: f}
	d.init(pageSize, d.loadPage, &d.mu)
	return d
}

// CreateDiskFile creates (truncating) an on-disk page file at path.
func CreateDiskFile(path string, pageSize int) (*DiskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: create %s: %w", path, err)
	}
	return newDiskFile(f, pageSize), nil
}

// OpenDiskFile attaches to an existing on-disk page file, deriving the page
// count from its size. Pages freed in the previous session are treated as
// live (the free list is not persisted); allocation simply resumes at the
// end of the file.
func OpenDiskFile(path string, pageSize int) (*DiskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	d := newDiskFile(f, pageSize)
	if d.nPages, err = wholePages(f, path, d.pageSize); err != nil {
		return nil, err
	}
	return d, nil
}

// wholePages returns how many pages the open file f holds, closing f if
// its size is not a whole number of pages.
func wholePages(f *os.File, path string, pageSize int) (int, error) {
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("pagefile: stat %s: %w", path, err)
	}
	if info.Size()%int64(pageSize) != 0 {
		f.Close()
		return 0, fmt.Errorf("pagefile: %s size %d is not a multiple of page size %d", path, info.Size(), pageSize)
	}
	return int(info.Size() / int64(pageSize)), nil
}

// preadPage reads page id of an OS page file into buf.
func preadPage(f *os.File, pageSize int, id PageID, buf []byte) error {
	if _, err := f.ReadAt(buf[:pageSize], int64(id)*int64(pageSize)); err != nil {
		return fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	return nil
}

func (f *DiskFile) loadPage(id PageID, buf []byte) error {
	return preadPage(f.f, f.pageSize, id, buf)
}

// WritePage implements File.
func (f *DiskFile) WritePage(id PageID, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkWrite(id, data); err != nil {
		return err
	}
	page := data
	if len(data) < f.pageSize {
		if f.pad == nil {
			f.pad = make([]byte, f.pageSize)
		}
		page = f.pad
		clear(page[copy(page, data):])
	}
	if _, err := f.f.WriteAt(page, int64(id)*int64(f.pageSize)); err != nil {
		return fmt.Errorf("pagefile: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements File.
func (f *DiskFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, fresh, err := f.alloc()
	if fresh {
		if err := f.f.Truncate(int64(f.nPages) * int64(f.pageSize)); err != nil {
			return InvalidPage, fmt.Errorf("pagefile: grow: %w", err)
		}
	}
	return id, err
}

// Free implements File.
func (f *DiskFile) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.free(id)
}

// Sync implements File by fsyncing the underlying OS file.
func (f *DiskFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.countSync(); err != nil {
		return err
	}
	if err := f.f.Sync(); err != nil {
		return fmt.Errorf("pagefile: sync: %w", err)
	}
	return nil
}

// Close implements File.
func (f *DiskFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	return f.f.Close()
}
