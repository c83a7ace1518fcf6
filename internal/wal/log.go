package wal

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
)

// LogStore is the append-only byte store a wal.File logs into. Append
// acknowledges without durability; Sync makes every acknowledged byte
// durable; Truncate discards an acknowledged tail (used to rewind a commit
// whose fsync failed, and to drop torn bytes at recovery). Contents reports
// everything acknowledged so far for the recovery scan.
//
// Like pagefile.File, mutating calls require external exclusion; the wal
// layer serializes them behind the tree's writer lock.
type LogStore interface {
	Append(b []byte) error
	Sync() error
	Size() int64
	Truncate(n int64) error
	Contents() ([]byte, error)
	Close() error
}

// MemLog is the in-memory LogStore the simulator crashes on purpose. It
// tracks the durable watermark (everything before the last successful
// Sync); Crash discards a random amount of the unsynced tail and may
// corrupt the torn edge, which is the exact damage a power cut inflicts on
// an append-only file.
type MemLog struct {
	mu     sync.Mutex
	buf    []byte
	synced int

	failSyncs int // inject: fail the next N Sync calls
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements LogStore.
func (l *MemLog) Append(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, b...)
	return nil
}

// Sync implements LogStore.
func (l *MemLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failSyncs > 0 {
		l.failSyncs--
		return fmt.Errorf("wal: injected log sync failure")
	}
	l.synced = len(l.buf)
	return nil
}

// Size implements LogStore.
func (l *MemLog) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.buf))
}

// Truncate implements LogStore.
func (l *MemLog) Truncate(n int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 || n > int64(len(l.buf)) {
		return fmt.Errorf("wal: truncate %d out of range [0, %d]", n, len(l.buf))
	}
	l.buf = l.buf[:n]
	if l.synced > int(n) {
		l.synced = int(n)
	}
	return nil
}

// Contents implements LogStore. The returned slice is a copy.
func (l *MemLog) Contents() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf...), nil
}

// Close implements LogStore.
func (l *MemLog) Close() error { return nil }

// FailNextSyncs arms the next n Sync calls to fail, for rewind tests.
func (l *MemLog) FailNextSyncs(n int) {
	l.mu.Lock()
	l.failSyncs = n
	l.mu.Unlock()
}

// Crash simulates a power cut: a seeded random prefix of the unsynced tail
// survives, the rest vanishes, and with some probability the surviving torn
// edge takes a flipped byte (a sector that was mid-write). Afterwards
// everything present is considered durable — it is what the disk holds on
// reboot.
func (l *MemLog) Crash(seed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tail := len(l.buf) - l.synced; tail > 0 {
		rng := rand.New(rand.NewSource(seed))
		keep := rng.Intn(tail + 1)
		l.buf = l.buf[:l.synced+keep]
		if keep > 0 && rng.Float64() < 0.25 {
			l.buf[l.synced+rng.Intn(keep)] ^= 0xA5
		}
	}
	l.synced = len(l.buf)
}

// FileLog is a LogStore backed by an operating-system file.
type FileLog struct {
	f    *os.File
	size int64
}

// OpenFileLog opens (creating if absent) the log file at path. Existing
// contents are preserved for recovery.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat log %s: %w", path, err)
	}
	return &FileLog{f: f, size: info.Size()}, nil
}

// Append implements LogStore.
func (l *FileLog) Append(b []byte) error {
	if _, err := l.f.WriteAt(b, l.size); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(b))
	return nil
}

// Sync implements LogStore.
func (l *FileLog) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: log sync: %w", err)
	}
	return nil
}

// Size implements LogStore.
func (l *FileLog) Size() int64 { return l.size }

// Truncate implements LogStore.
func (l *FileLog) Truncate(n int64) error {
	if err := l.f.Truncate(n); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	l.size = n
	return nil
}

// Contents implements LogStore. A file shorter than the tracked size
// (external truncation, a lost append) is an error, not a zero-padded
// buffer: recovery must see the damage, not silently parse zeros.
func (l *FileLog) Contents() ([]byte, error) {
	buf := make([]byte, l.size)
	n, err := l.f.ReadAt(buf, 0)
	if int64(n) != l.size {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wal: read log: got %d of %d bytes: %w", n, l.size, err)
	}
	return buf, nil
}

// Close implements LogStore.
func (l *FileLog) Close() error { return l.f.Close() }
