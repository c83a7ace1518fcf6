package wal

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hybridtree/internal/pagefile"
)

// ErrReadOnlyBase reports an attempt to put a write-ahead log on top of a
// read-only page file (the mmap backend). It is returned by Open, up front,
// so callers get one typed error instead of a WritePage failure halfway
// through a transaction.
var ErrReadOnlyBase = errors.New("wal: base page file is read-only")

// ErrBroken reports that a failed commit could not be durably rewound: the
// on-disk log may still hold a transaction that was reported failed, so the
// WAL refuses every further mutation rather than risk recovery resurrecting
// it. Reads keep working; the caller should close and re-open (recovery
// re-establishes a consistent prefix).
var ErrBroken = errors.New("wal: log rewind failed, refusing further writes")

// errInTx guards the checkpoint path: a checkpoint inside an open
// transaction would flush unsealed writes past the commit point.
var errInTx = errors.New("wal: operation not allowed inside an open transaction")

// errMismatch reports a write-back read-back that returned different bytes
// without any I/O error — a silent short or torn write underneath.
var errMismatch = errors.New("wal: read-back mismatch")

// Options tunes a wal.File.
type Options struct {
	// FsyncEvery is the number of sealed transactions per log fsync.
	// 1 (or 0, the default) fsyncs every commit: SealTx returning nil
	// means durable. Larger values amortize fsync at the price of the
	// last FsyncEvery-1 acknowledged transactions being lost by a crash.
	FsyncEvery int
}

// Recovery reports what Open found and did.
type Recovery struct {
	// Txs is the number of committed transactions replayed.
	Txs int
	// Replayed is the number of committed write records applied.
	Replayed int
	// Discarded is the number of valid records dropped because their
	// transaction never committed.
	Discarded int
	// TornBytes is the size of the unparseable tail discarded.
	TornBytes int
	// TruncatedTo is the log size after dropping the damaged tail.
	TruncatedTo int64
}

// File layers a write-ahead log over a pagefile.File. An open
// transaction's writes live only in its staged frames (no-steal). Once the
// log fsync that covers a committed image succeeds, the image is written
// back to the inner file, unsynced, and read back; until then, or when the
// write-back fails, it waits in a volatile page overlay that reads hit
// first. The tree above serves its own uncommitted pages from its dirty set.
//
//	WritePage* in a tx → staged log record (volatile, invisible to reads)
//	SealTx             → append records + commit frame, fsync log:
//	                     COMMITTED, then write back or keep in the overlay
//	Sync (checkpoint)  → flush overlay to inner, fsync inner, truncate log
//
// The invariant recovery relies on: every page whose inner contents may not
// be durable has a log record since the last checkpoint whose replay
// reproduces its committed image. Checkpoints truncate the log only after
// the inner fsync succeeds; aborted and failed commits rewind the log and
// never reach the overlay or the inner file.
//
// Mutating calls (including BeginTx / SealTx / AbortTx / Sync) require
// external exclusion from each other, like every pagefile implementation.
// Reads may run concurrently with mutations — lock-free searches above miss
// their node cache while a writer holds the tree lock — so readers take
// ovMu, and the writer, the overlay's only mutator, takes it to change it.
type File struct {
	inner pagefile.File
	log   LogStore
	opts  Options

	ovMu    sync.RWMutex // guards overlay (map and slice contents)
	overlay map[pagefile.PageID][]byte

	inTx     bool
	pending  []byte            // staged frames of the open transaction
	staged   []stagedWrite     // the page images inside pending, in write order
	waiting  []pagefile.PageID // overlay pages committed since the last log fsync
	seq      uint64            // last committed transaction sequence
	unsynced int               // commits since the last log fsync
	broken   error             // set when a rewind could not be made durable
	cur, got []byte            // write-back scratch: padded image, read-back

	m *walMetrics
}

// stagedWrite locates one page image inside File.pending (held once).
type stagedWrite struct {
	id       pagefile.PageID
	off, end int
}

// Open attaches a write-ahead log to inner, replaying whatever committed
// tail log holds from a previous incarnation. The inner file must be
// writable; its free list must be empty (free lists are volatile across
// crashes — pagefile.CrashFile and OpenDiskFile both guarantee this).
func Open(inner pagefile.File, log LogStore, opts Options) (*File, Recovery, error) {
	if pagefile.IsReadOnly(inner) {
		return nil, Recovery{}, fmt.Errorf("%w: %T", ErrReadOnlyBase, inner)
	}
	f := &File{
		inner:   inner,
		log:     log,
		opts:    opts,
		overlay: make(map[pagefile.PageID][]byte),
		cur:     make([]byte, inner.PageSize()),
		got:     make([]byte, inner.PageSize()),
		m:       metrics(),
	}
	rec, err := f.recover()
	if err != nil {
		return nil, rec, err
	}
	return f, rec, nil
}

// recover scans the log, applies the committed tail to the overlay, and
// truncates the damaged or uncommitted remainder.
func (f *File) recover() (Recovery, error) {
	start := time.Now()
	var rec Recovery
	data, err := f.log.Contents()
	if err != nil {
		return rec, fmt.Errorf("wal: recovery read: %w", err)
	}
	maxPayload := 5 + f.inner.PageSize()

	var committed []record // flattened committed writes, log order
	var uncommitted []record
	pos := 0
	validEnd := 0
	for pos < len(data) {
		r, n, ok := parseFrame(data[pos:], maxPayload)
		if !ok {
			rec.TornBytes = len(data) - pos
			break
		}
		switch r.kind {
		case kindWrite:
			uncommitted = append(uncommitted, r)
		case kindCommit:
			committed = append(committed, uncommitted...)
			uncommitted = uncommitted[:0]
			rec.Txs++
			f.seq = r.seq
			validEnd = pos + n
		case kindCheckpoint:
			// Everything before this point is durable in the inner file:
			// replay starts over.
			committed = committed[:0]
			uncommitted = uncommitted[:0]
			rec.Txs = 0
			f.seq = r.seq
			validEnd = pos + n
		}
		pos += n
	}
	rec.Discarded = len(uncommitted)

	// Apply the committed writes to the overlay (copying out of the log
	// buffer) and make sure the inner file is large enough to address every
	// replayed page — growth is durable metadata, contents are not.
	for _, w := range committed {
		if err := f.applyReplay(w.pageID, w.data); err != nil {
			return rec, fmt.Errorf("wal: replay page %d: %w", w.pageID, err)
		}
	}
	rec.Replayed = len(committed)

	// Drop the uncommitted and torn tail so future appends extend a clean
	// committed prefix.
	rec.TruncatedTo = int64(validEnd)
	if int64(validEnd) != f.log.Size() {
		if err := f.log.Truncate(int64(validEnd)); err != nil {
			return rec, err
		}
		if err := f.log.Sync(); err != nil {
			return rec, err
		}
	}

	f.m.recoveries.Inc()
	f.m.recReplayed.Add(uint64(rec.Replayed))
	f.m.recDiscard.Add(uint64(rec.Discarded))
	f.m.recTorn.Add(uint64(rec.TornBytes))
	f.m.recNs.Observe(time.Since(start).Nanoseconds())
	return rec, nil
}

// applyReplay installs one replayed page image in the overlay, growing the
// inner file if the page id is beyond its current end.
func (f *File) applyReplay(id pagefile.PageID, data []byte) error {
	for f.inner.NumPages() <= int(id) {
		if _, err := f.inner.Allocate(); err != nil {
			return err
		}
	}
	f.setOverlay(id, data)
	return nil
}

// setOverlay stores a copy of a committed image at the size it was written
// — core writes a node's encoded bytes, not a padded page. Reads zero-fill
// the rest of the page and writeBack pads it, so the short copy reads and
// flushes exactly as the full page would.
func (f *File) setOverlay(id pagefile.PageID, data []byte) {
	f.ovMu.Lock()
	defer f.ovMu.Unlock()
	p := f.overlay[id]
	if cap(p) < len(data) {
		p = make([]byte, len(data))
	}
	f.overlay[id] = append(p[:0], data...)
}

// readOverlay copies id's committed image into buf, zero-filling the tail,
// and reports whether the overlay holds one. The copy-out happens under the
// read lock: setOverlay rewrites page slices in place.
func (f *File) readOverlay(id pagefile.PageID, buf []byte) bool {
	f.ovMu.RLock()
	defer f.ovMu.RUnlock()
	p, ok := f.overlay[id]
	if ok {
		clear(buf[copy(buf, p):])
	}
	return ok
}

// PageSize implements pagefile.File.
func (f *File) PageSize() int { return f.inner.PageSize() }

// Stats implements pagefile.File. Overlay hits are counted against the
// same Stats object so access accounting stays comparable with and without
// a WAL.
func (f *File) Stats() *pagefile.Stats { return f.inner.Stats() }

// NumPages implements pagefile.File.
func (f *File) NumPages() int { return f.inner.NumPages() }

// ReadPage implements pagefile.File, preferring the overlay.
func (f *File) ReadPage(id pagefile.PageID, buf []byte) error { return f.read(id, buf, false) }

// ReadPageSeq implements pagefile.File, preferring the overlay.
func (f *File) ReadPageSeq(id pagefile.PageID, buf []byte) error { return f.read(id, buf, true) }

// read serves id from the overlay, charged like the inner read it saves,
// or else from the inner file.
func (f *File) read(id pagefile.PageID, buf []byte, seq bool) error {
	hit := f.readOverlay(id, buf)
	switch {
	case hit && seq:
		f.inner.Stats().AddSeqReads(1)
	case hit:
		f.inner.Stats().AddRandomReads(1)
	case seq:
		return f.inner.ReadPageSeq(id, buf)
	default:
		return f.inner.ReadPage(id, buf)
	}
	return nil
}

// WritePage implements pagefile.File: inside a transaction the write is
// only staged, and SealTx publishes it; outside one it is logged as its own
// single-write transaction and waits in the overlay until the next log
// fsync. The write is counted once, when it reaches the inner file.
func (f *File) WritePage(id pagefile.PageID, data []byte) error {
	if len(data) > f.inner.PageSize() {
		return fmt.Errorf("%w: %d > %d", pagefile.ErrTooLarge, len(data), f.inner.PageSize())
	}
	if f.broken != nil {
		return f.broken
	}
	if f.inTx {
		f.pending = appendWrite(f.pending, id, data)
		f.staged = append(f.staged, stagedWrite{id, len(f.pending) - len(data), len(f.pending)})
		f.m.appends.Inc()
		return nil
	}
	// Auto-commit: a single-write transaction, logged but not fsynced —
	// out-of-tx writes (construction, flushes) duplicate state that is
	// rebuilt or covered by earlier records, so durability can wait.
	frame := appendWrite(nil, id, data)
	f.seq++
	frame = appendCommit(frame, f.seq)
	pos := f.log.Size()
	if err := f.log.Append(frame); err != nil {
		// A failed append may still have landed partial bytes; durably
		// rewind so recovery cannot see a CRC-lucky fragment of it.
		f.seq--
		f.rewindTo(pos)
		return fmt.Errorf("wal: log append: %w", err)
	}
	f.m.appends.Inc()
	f.unsynced++
	f.publish(id, data)
	return nil
}

// Allocate implements pagefile.File. Growth goes straight to the inner
// file: page ids must stay addressable across a crash, and both disk and
// crash-simulating backends persist length eagerly. No log record is
// needed — replay re-grows the file to cover any replayed page id.
func (f *File) Allocate() (pagefile.PageID, error) { return f.inner.Allocate() }

// Free implements pagefile.File. Frees are not logged: a crash forgets
// them (volatile free lists), which costs bounded space, never
// correctness. The overlay entry is dropped so a checkpoint cannot write
// to a freed page.
func (f *File) Free(id pagefile.PageID) error {
	if err := f.inner.Free(id); err != nil {
		return err
	}
	f.ovMu.Lock()
	delete(f.overlay, id)
	f.ovMu.Unlock()
	return nil
}

// BeginTx implements pagefile.TxFile.
func (f *File) BeginTx() { f.inTx = true }

// AbortTx implements pagefile.TxFile: the staged records are dropped
// without reaching the log or the overlay, so the file reads exactly as it
// did before BeginTx.
func (f *File) AbortTx() {
	f.inTx = false
	f.pending = f.pending[:0]
	f.staged = f.staged[:0]
}

// SealTx implements pagefile.TxFile: the staged writes plus a commit frame
// are appended to the log and, subject to FsyncEvery, fsynced; only then
// are the page images published (see publish). A nil return with
// FsyncEvery ≤ 1 means the transaction is durable. On error the
// transaction is gone as if aborted: the log is durably rewound so recovery
// can never resurrect it. If even the rewind fails, the file wedges itself
// (ErrBroken) instead.
func (f *File) SealTx() error {
	if !f.inTx {
		return nil
	}
	defer f.AbortTx() // published or not, the staging area is spent
	if f.broken != nil {
		return f.broken
	}
	if len(f.staged) == 0 {
		return nil
	}
	f.seq++
	f.pending = appendCommit(f.pending, f.seq)
	pos := f.log.Size()
	if err := f.log.Append(f.pending); err != nil {
		f.seq--
		f.rewindTo(pos)
		return fmt.Errorf("wal: log append: %w", err)
	}
	f.unsynced++
	if f.opts.FsyncEvery <= 1 || f.unsynced >= f.opts.FsyncEvery {
		if err := f.syncLog(); err != nil {
			// The commit must not be acknowledged: rewind the log to the
			// pre-transaction position so replay can never see it.
			f.seq--
			f.rewindTo(pos)
			return err
		}
	}
	for _, w := range f.staged {
		f.publish(w.id, f.pending[w.off:w.end])
	}
	if f.unsynced == 0 { // the fsync also covers every image still waiting
		for _, id := range f.waiting {
			if p, ok := f.overlay[id]; ok { // gone if this commit rewrote it
				_ = f.writeBack(id, p)
			}
		}
		f.waiting = f.waiting[:0]
	}
	f.m.commits.Inc()
	f.m.groupedOps.Add(uint64(len(f.staged)))
	return nil
}

// publish makes a committed image the page's contents. Once the log fsync
// that covers it has succeeded it is written back to the inner file; until
// then it waits in the overlay for that fsync, and an image whose
// write-back fails stays there for the next checkpoint. Reads find both.
func (f *File) publish(id pagefile.PageID, data []byte) {
	if f.unsynced > 0 {
		f.waiting = append(f.waiting, id)
	} else if f.writeBack(id, data) == nil {
		return
	}
	f.setOverlay(id, data)
}

// writeBack writes a committed image to the inner file, unsynced and padded
// to the page it stands for, and reads it back: a short write that lied
// about success must not let the overlay copy go. On success it drops id's
// overlay entry, which can only hold an older image. The inner file counts
// the write, so Stats charge it here, once.
func (f *File) writeBack(id pagefile.PageID, data []byte) error {
	clear(f.cur[copy(f.cur, data):])
	if err := f.inner.WritePage(id, f.cur); err != nil {
		return err
	}
	if err := f.inner.ReadPage(id, f.got); err != nil {
		return err
	} else if !bytes.Equal(f.got, f.cur) {
		return errMismatch
	}
	f.ovMu.Lock()
	delete(f.overlay, id)
	f.ovMu.Unlock()
	return nil
}

// rewindTo durably removes an acknowledged-but-rejected log tail. Without
// an fsync of the truncate the OS could write back the rejected frames and
// lose the truncate in a crash, and recovery would replay a commit reported
// failed. If the rewind cannot be made durable, the WAL turns every further
// mutation into ErrBroken. The rewind fsync also resets the unsynced
// counter (via syncLog), so a rewound commit never counts toward
// FsyncEvery batching.
func (f *File) rewindTo(pos int64) {
	if err := f.log.Truncate(pos); err != nil {
		f.broken = fmt.Errorf("%w: truncate: %v", ErrBroken, err)
		return
	}
	if err := f.syncLog(); err != nil {
		f.broken = fmt.Errorf("%w: sync: %v", ErrBroken, err)
	}
}

func (f *File) syncLog() error {
	start := time.Now()
	err := f.log.Sync()
	f.m.fsyncs.Inc()
	f.m.fsyncNs.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		return err
	}
	f.unsynced = 0
	return nil
}

// Sync implements pagefile.File as a checkpoint: flush the overlay into
// the inner file, fsync it, then truncate the log. On error the log and
// overlay are kept — nothing durable is given up until the inner file
// provably holds it.
func (f *File) Sync() error {
	if f.inTx {
		return errInTx
	}
	if f.broken != nil {
		return f.broken
	}
	if f.unsynced > 0 {
		if err := f.syncLog(); err != nil {
			return err
		}
	}
	f.waiting = f.waiting[:0] // the flush below covers them
	ids := make([]pagefile.PageID, 0, len(f.overlay))
	for id := range f.overlay {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		// Compare-and-skip: after a recovery the inner file mostly holds
		// the replayed images already, written back before the crash. Any
		// read failure (a torn page, checksum damage) counts as different
		// and gets repaired. The checkpoint is the last moment that damage
		// is still recoverable, so a failed write-back is loud here.
		p := f.overlay[id]
		clear(f.cur[copy(f.cur, p):])
		if err := f.inner.ReadPage(id, f.got); err == nil && bytes.Equal(f.got, f.cur) {
			f.m.ckptSkipped.Inc()
			continue
		}
		if err := f.writeBack(id, p); err != nil {
			f.m.ckptFails.Inc()
			return fmt.Errorf("wal: checkpoint flush page %d: %w", id, err)
		}
		f.m.ckptPages.Inc()
	}
	if err := f.inner.Sync(); err != nil {
		f.m.ckptFails.Inc()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	// The inner file is durable: the overlay has served its purpose.
	f.ovMu.Lock()
	clear(f.overlay)
	f.ovMu.Unlock()
	// Mark and shrink the log. The checkpoint frame lands before the
	// truncate so a crash in between replays nothing stale. (A mark that
	// survives a rewind is harmless: the inner fsync made it true.)
	f.seq++
	frame := appendSeqRecord(nil, kindCheckpoint, f.seq)
	pos := f.log.Size()
	if err := f.log.Append(frame); err != nil {
		f.seq--
		f.rewindTo(pos)
		return fmt.Errorf("wal: checkpoint mark: %w", err)
	}
	if err := f.syncLog(); err != nil {
		f.seq--
		f.rewindTo(pos)
		return fmt.Errorf("wal: checkpoint mark: %w", err)
	}
	if err := f.log.Truncate(0); err != nil {
		return fmt.Errorf("wal: checkpoint truncate: %w", err)
	}
	if err := f.log.Sync(); err != nil {
		return fmt.Errorf("wal: checkpoint truncate: %w", err)
	}
	f.m.checkpoints.Inc()
	return nil
}

// OverlayPages returns how many committed images the inner file does not
// hold yet: those waiting for their log fsync, failed write-backs and pages
// replayed by recovery. The next checkpoint drains them; with healthy
// storage and FsyncEvery ≤ 1 it is 0 after every commit.
func (f *File) OverlayPages() int {
	f.ovMu.RLock()
	defer f.ovMu.RUnlock()
	return len(f.overlay)
}

// Seq returns the last committed transaction sequence number.
func (f *File) Seq() uint64 { return f.seq }

// Close implements pagefile.File: checkpoint, then close the log and the
// inner file. The checkpoint error (if any) wins, but both underlying
// files are closed regardless.
func (f *File) Close() error {
	return cmp.Or(f.Sync(), f.log.Close(), f.inner.Close())
}
