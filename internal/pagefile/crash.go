package pagefile

import (
	"math/rand"
	"sort"
	"sync"
)

// CrashFile is an in-memory File that models the one property MemFile
// cannot: the difference between an *acknowledged* write and a *durable*
// one. Writes land in a volatile overlay; Sync materializes the overlay
// into the durable image. Crash throws the volatile state away the way a
// power cut would — each unsynced page independently survives intact, is
// lost entirely, or is torn (a prefix of the new bytes over a suffix of the
// old), with the damage drawn from a seeded rng so a whole kill schedule is
// reproducible. The free list is volatile and cleared by Crash, matching
// DiskFile, whose free list is never persisted either.
//
// File *growth* is treated as durable at Allocate time (a Truncate is
// metadata, and the recovery contract in internal/wal only needs page ids
// to stay addressable); page *contents* are durable only after Sync.
//
// Like DiskFile, reads may run concurrently with mutations (the durable
// stack lets lock-free MVCC searches read through the file while a writer
// checkpoints), so all state is guarded by an RWMutex.
type CrashFile struct {
	pageSpace
	mu       sync.RWMutex
	durable  [][]byte
	volatile map[PageID][]byte

	// LoseProb and TearProb shape Crash damage per unsynced page: with
	// probability LoseProb the page's volatile contents vanish, with
	// TearProb a torn prefix lands, otherwise the write survives whole.
	LoseProb float64
	TearProb float64
}

// NewCrashFile creates a crash-simulating in-memory page file.
func NewCrashFile(pageSize int) *CrashFile {
	f := &CrashFile{volatile: make(map[PageID][]byte), LoseProb: 0.4, TearProb: 0.3}
	f.init(pageSize, f.loadPage, f.mu.RLocker())
	return f
}

// loadPage serves reads: they observe acknowledged (volatile) contents.
func (f *CrashFile) loadPage(id PageID, buf []byte) error {
	p, ok := f.volatile[id]
	if !ok {
		p = f.durable[id]
	}
	copy(buf, p)
	return nil
}

// WritePage implements File: the write is acknowledged but stays volatile
// until the next Sync.
func (f *CrashFile) WritePage(id PageID, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkWrite(id, data); err != nil {
		return err
	}
	p, ok := f.volatile[id]
	if !ok {
		p = make([]byte, f.pageSize)
		f.volatile[id] = p
	}
	clear(p[copy(p, data):])
	return nil
}

// Allocate implements File. Growth is durable immediately (see type doc);
// freed-page reuse comes from the volatile free list.
func (f *CrashFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, fresh, err := f.alloc()
	if fresh {
		f.durable = append(f.durable, make([]byte, f.pageSize))
	}
	return id, err
}

// Free implements File. Frees are volatile: a crash forgets them, exactly
// like DiskFile's unpersisted free list.
func (f *CrashFile) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.free(id); err != nil {
		return err
	}
	delete(f.volatile, id)
	return nil
}

// Sync implements File: every volatile page becomes durable.
func (f *CrashFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.countSync(); err != nil {
		return err
	}
	for id, p := range f.volatile {
		copy(f.durable[id], p)
	}
	clear(f.volatile)
	return nil
}

// Close implements File. Closing is not a crash: the volatile overlay is
// kept, so tests can distinguish a clean shutdown from a power cut (Crash).
func (f *CrashFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

// VolatilePages returns how many acknowledged pages have not reached the
// durable image — what a crash right now would put at risk.
func (f *CrashFile) VolatilePages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.volatile)
}

// Crash simulates a power cut: every unsynced page independently survives,
// vanishes, or tears, with damage drawn from a rng seeded by seed (pages
// are visited in ascending id order, so the outcome is a pure function of
// seed and the volatile set). The free list is cleared. The file remains
// usable afterwards, representing the disk as found on reboot.
func (f *CrashFile) Crash(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]PageID, 0, len(f.volatile))
	for id := range f.volatile {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := rng.Float64()
		switch {
		case r < f.LoseProb:
			// lost: durable keeps the old contents
		case r < f.LoseProb+f.TearProb:
			k := rng.Intn(f.pageSize + 1)
			copy(f.durable[id][:k], f.volatile[id][:k])
		default:
			copy(f.durable[id], f.volatile[id])
		}
	}
	clear(f.volatile)
	f.freed = f.freed[:0]
	clear(f.isFree)
}
