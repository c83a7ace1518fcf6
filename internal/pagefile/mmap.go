package pagefile

import (
	"fmt"
	"os"
)

// MmapFile is a read-only File backed by a memory-mapped page file. Opening
// an index this way turns every page read into a copy out of the mapping —
// no read(2) syscall, no file-offset arithmetic in the kernel, and the OS
// page cache is shared across processes serving the same index. Mutating
// calls (WritePage, Allocate, Free) return ErrReadOnly, which makes MmapFile
// suitable exactly for the read-only serving paths: query commands and
// benchmark ablations that open a pre-built index.
//
// On platforms without mmap support (or when the mapping itself fails, e.g.
// on an exotic filesystem), OpenMmapFile degrades gracefully: the returned
// file still works, falling back to pread-style ReadAt calls against the
// underlying descriptor. Mapped reports which mode is active.
//
// Reads are safe to run concurrently: the mapping is immutable for the life
// of the file, counters are atomic, and the fallback path uses ReadAt (which
// does not touch the shared file offset). Close requires external exclusion
// against in-flight reads, same as every other File implementation.
type MmapFile struct {
	pageSpace
	f    *os.File
	data []byte // nil when the mapping failed ⇒ ReadAt fallback
}

// OpenMmapFile attaches read-only to an existing page file at path and maps
// it into memory. The file must be a whole number of pages. If the platform
// cannot map it, the file is still usable through the ReadAt fallback.
func OpenMmapFile(path string, pageSize int) (*MmapFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	m := &MmapFile{f: f}
	m.init(pageSize, m.loadPage, nil)
	if m.nPages, err = wholePages(f, path, m.pageSize); err != nil {
		return nil, err
	}
	if m.nPages > 0 {
		// A failed mapping is not fatal: leave data nil and serve reads
		// through ReadAt. Callers that care can check Mapped().
		if data, err := mmapReadOnly(f, m.nPages*m.pageSize); err == nil {
			m.data = data
		}
	}
	return m, nil
}

// Mapped reports whether reads are served from a live memory mapping (true)
// or the ReadAt fallback (false).
func (f *MmapFile) Mapped() bool { return f.data != nil }

func (f *MmapFile) loadPage(id PageID, buf []byte) error {
	if f.data == nil {
		return preadPage(f.f, f.pageSize, id, buf)
	}
	off := int(id) * f.pageSize
	copy(buf[:f.pageSize], f.data[off:off+f.pageSize])
	return nil
}

// WritePage implements File; MmapFile is read-only.
func (f *MmapFile) WritePage(id PageID, data []byte) error { return ErrReadOnly }

// Allocate implements File; MmapFile is read-only.
func (f *MmapFile) Allocate() (PageID, error) { return InvalidPage, ErrReadOnly }

// Free implements File; MmapFile is read-only.
func (f *MmapFile) Free(id PageID) error { return ErrReadOnly }

// Sync implements File. A read-only file has nothing to make durable, so
// Sync succeeds trivially; write-shaped layers (the WAL) must reject a
// read-only base up front via the ReadOnly marker instead.
func (f *MmapFile) Sync() error { return f.countSync() }

// ReadOnly implements readOnlyFile.
func (f *MmapFile) ReadOnly() bool { return true }

// Close unmaps the file and releases the descriptor.
func (f *MmapFile) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	var unmapErr error
	if f.data != nil {
		unmapErr = munmap(f.data)
		f.data = nil
	}
	closeErr := f.f.Close()
	if unmapErr != nil {
		return unmapErr
	}
	return closeErr
}
