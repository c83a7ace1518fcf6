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

// AddWrites atomically adds n writes.
func (s *Stats) AddWrites(n uint64) { atomic.AddUint64(&s.Writes, n) }

// AddAllocs atomically adds n allocations.
func (s *Stats) AddAllocs(n uint64) { atomic.AddUint64(&s.Allocs, n) }

// AddFrees atomically adds n frees.
func (s *Stats) AddFrees(n uint64) { atomic.AddUint64(&s.Frees, n) }

// AddSyncs atomically adds n syncs. Syncs are the one Stats counter also
// mirrored into the process-wide registry (pagefile_syncs_total): fsyncs are
// the dominant durability cost, and the end-of-run observability dumps read
// them from the registry alongside the wal_* metrics.
func (s *Stats) AddSyncs(n uint64) {
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

// ReadOnlyFile marks a File implementation that rejects all mutations (for
// example the mmap backend). Layers that need write access up front — the
// write-ahead log, most prominently — check for it at open time so callers
// get one typed error instead of a late WritePage failure mid-transaction.
type ReadOnlyFile interface {
	ReadOnly() bool
}

// IsReadOnly reports whether f declares itself read-only. Wrappers that
// embed the File interface do not forward the marker, so this reliably
// detects only a directly read-only base — which is exactly the case the
// WAL needs to reject.
func IsReadOnly(f File) bool {
	ro, ok := f.(ReadOnlyFile)
	return ok && ro.ReadOnly()
}

// Errors returned by File implementations.
var (
	ErrPageBounds = errors.New("pagefile: page id out of bounds")
	ErrPageFreed  = errors.New("pagefile: access to freed page")
	ErrTooLarge   = errors.New("pagefile: write exceeds page size")
	ErrClosed     = errors.New("pagefile: file is closed")
	ErrReadOnly   = errors.New("pagefile: file is read-only")
)

// MemFile is an in-memory File. It is what the benchmark harness uses: the
// paper's I/O metric is a *count* of page accesses, so the measurements do
// not require physically spinning a disk. Reads are safe to run
// concurrently (page contents are only read and counters are atomic);
// writes need external exclusion per the File contract.
type MemFile struct {
	pageSize int
	pages    [][]byte
	freed    []PageID
	isFree   map[PageID]bool
	stats    Stats
	closed   bool
}

// NewMemFile creates an in-memory page file with the given page size.
func NewMemFile(pageSize int) *MemFile {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemFile{pageSize: pageSize, isFree: make(map[PageID]bool)}
}

// PageSize implements File.
func (f *MemFile) PageSize() int { return f.pageSize }

// Stats implements File.
func (f *MemFile) Stats() *Stats { return &f.stats }

// NumPages implements File.
func (f *MemFile) NumPages() int { return len(f.pages) - len(f.freed) }

func (f *MemFile) check(id PageID) error {
	if f.closed {
		return ErrClosed
	}
	if int(id) >= len(f.pages) {
		return fmt.Errorf("%w: %d >= %d", ErrPageBounds, id, len(f.pages))
	}
	if f.isFree[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

// ReadPage implements File.
func (f *MemFile) ReadPage(id PageID, buf []byte) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.stats.AddRandomReads(1)
	copy(buf, f.pages[id])
	return nil
}

// ReadPageSeq implements File.
func (f *MemFile) ReadPageSeq(id PageID, buf []byte) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.stats.AddSeqReads(1)
	copy(buf, f.pages[id])
	return nil
}

// WritePage implements File.
func (f *MemFile) WritePage(id PageID, data []byte) error {
	if err := f.check(id); err != nil {
		return err
	}
	if len(data) > f.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), f.pageSize)
	}
	f.stats.AddWrites(1)
	page := f.pages[id]
	n := copy(page, data)
	for i := n; i < len(page); i++ {
		page[i] = 0
	}
	return nil
}

// Allocate implements File.
func (f *MemFile) Allocate() (PageID, error) {
	if f.closed {
		return InvalidPage, ErrClosed
	}
	f.stats.AddAllocs(1)
	if n := len(f.freed); n > 0 {
		id := f.freed[n-1]
		f.freed = f.freed[:n-1]
		delete(f.isFree, id)
		return id, nil
	}
	id := PageID(len(f.pages))
	f.pages = append(f.pages, make([]byte, f.pageSize))
	return id, nil
}

// Free implements File.
func (f *MemFile) Free(id PageID) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.stats.AddFrees(1)
	f.freed = append(f.freed, id)
	f.isFree[id] = true
	return nil
}

// Sync implements File. Memory is as durable as a MemFile gets, so this
// only counts the call; CrashFile is the in-memory backend that actually
// distinguishes acknowledged from durable state.
func (f *MemFile) Sync() error {
	if f.closed {
		return ErrClosed
	}
	f.stats.AddSyncs(1)
	return nil
}

// Close implements File.
func (f *MemFile) Close() error {
	f.closed = true
	f.pages = nil
	return nil
}

// DiskFile is a File backed by an operating-system file. Pages live at
// offset id*PageSize. The free list is kept in memory; a production system
// would persist it, but index lifetime here is process lifetime.
type DiskFile struct {
	mu       sync.Mutex
	pageSize int
	f        *os.File
	nPages   int
	freed    []PageID
	isFree   map[PageID]bool
	stats    Stats
}

// CreateDiskFile creates (truncating) an on-disk page file at path.
func CreateDiskFile(path string, pageSize int) (*DiskFile, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: create %s: %w", path, err)
	}
	return &DiskFile{pageSize: pageSize, f: f, isFree: make(map[PageID]bool)}, nil
}

// OpenDiskFile attaches to an existing on-disk page file, deriving the page
// count from its size. Pages freed in the previous session are treated as
// live (the free list is not persisted); allocation simply resumes at the
// end of the file.
func OpenDiskFile(path string, pageSize int) (*DiskFile, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: stat %s: %w", path, err)
	}
	if info.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("pagefile: %s size %d is not a multiple of page size %d", path, info.Size(), pageSize)
	}
	return &DiskFile{
		pageSize: pageSize,
		f:        f,
		nPages:   int(info.Size() / int64(pageSize)),
		isFree:   make(map[PageID]bool),
	}, nil
}

// PageSize implements File.
func (f *DiskFile) PageSize() int { return f.pageSize }

// Stats implements File.
func (f *DiskFile) Stats() *Stats { return &f.stats }

// NumPages implements File.
func (f *DiskFile) NumPages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nPages - len(f.freed)
}

func (f *DiskFile) check(id PageID) error {
	if f.f == nil {
		return ErrClosed
	}
	if int(id) >= f.nPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageBounds, id, f.nPages)
	}
	if f.isFree[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

func (f *DiskFile) read(id PageID, buf []byte) error {
	if err := f.check(id); err != nil {
		return err
	}
	_, err := f.f.ReadAt(buf[:f.pageSize], int64(id)*int64(f.pageSize))
	if err != nil {
		return fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	return nil
}

// ReadPage implements File.
func (f *DiskFile) ReadPage(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.AddRandomReads(1)
	return f.read(id, buf)
}

// ReadPageSeq implements File.
func (f *DiskFile) ReadPageSeq(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.AddSeqReads(1)
	return f.read(id, buf)
}

// WritePage implements File.
func (f *DiskFile) WritePage(id PageID, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.check(id); err != nil {
		return err
	}
	if len(data) > f.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), f.pageSize)
	}
	f.stats.AddWrites(1)
	page := make([]byte, f.pageSize)
	copy(page, data)
	if _, err := f.f.WriteAt(page, int64(id)*int64(f.pageSize)); err != nil {
		return fmt.Errorf("pagefile: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements File.
func (f *DiskFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return InvalidPage, ErrClosed
	}
	f.stats.AddAllocs(1)
	if n := len(f.freed); n > 0 {
		id := f.freed[n-1]
		f.freed = f.freed[:n-1]
		delete(f.isFree, id)
		return id, nil
	}
	id := PageID(f.nPages)
	f.nPages++
	if err := f.f.Truncate(int64(f.nPages) * int64(f.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("pagefile: grow: %w", err)
	}
	return id, nil
}

// Free implements File.
func (f *DiskFile) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.check(id); err != nil {
		return err
	}
	f.stats.AddFrees(1)
	f.freed = append(f.freed, id)
	f.isFree[id] = true
	return nil
}

// Sync implements File by fsyncing the underlying OS file.
func (f *DiskFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return ErrClosed
	}
	f.stats.AddSyncs(1)
	if err := f.f.Sync(); err != nil {
		return fmt.Errorf("pagefile: sync: %w", err)
	}
	return nil
}

// Close implements File.
func (f *DiskFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return nil
	}
	err := f.f.Close()
	f.f = nil
	return err
}
