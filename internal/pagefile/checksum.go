package pagefile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// ChecksumOverhead is the number of bytes ChecksumFile reserves at the end
// of each underlying page for the CRC.
const ChecksumOverhead = 4

// ErrChecksum reports that a page's stored checksum does not match its
// contents — the page was torn, partially written, or corrupted at rest.
// It wraps ErrCorrupt so the retry layer classifies it as damage, not as a
// transient device failure.
var ErrChecksum = fmt.Errorf("pagefile: page checksum mismatch (%w)", ErrCorrupt)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumFile wraps a File and maintains a CRC32-C checksum in the last
// four bytes of every page, verified on every read. Its PageSize is the
// inner file's minus ChecksumOverhead: callers see only the payload.
//
// A page whose raw contents are entirely zero is treated as a valid,
// never-written page (freshly allocated pages read as zeros and cannot
// carry a checksum yet); any other corruption — a torn write that
// zero-filled the tail, a flipped bit at rest — fails the CRC and surfaces
// as ErrChecksum. Checksums turn the silent-corruption failure modes
// ChaosFile injects into detected read errors, which is the contract the
// recovery paths above this layer are written against.
type ChecksumFile struct {
	File
	bufs sync.Pool // *[]byte raw pages, inner PageSize bytes each
}

// NewChecksumFile wraps inner. The inner page size must exceed
// ChecksumOverhead.
func NewChecksumFile(inner File) *ChecksumFile {
	raw := inner.PageSize()
	if raw <= ChecksumOverhead {
		panic(fmt.Sprintf("pagefile: inner page size %d too small for checksums", raw))
	}
	f := &ChecksumFile{File: inner}
	f.bufs.New = func() any {
		b := make([]byte, raw)
		return &b
	}
	return f
}

// PageSize implements File: the payload size available to callers.
func (f *ChecksumFile) PageSize() int { return f.File.PageSize() - ChecksumOverhead }

// ReadPage implements File, verifying the page checksum.
func (f *ChecksumFile) ReadPage(id PageID, buf []byte) error { return f.read(id, buf, false) }

// ReadPageSeq implements File, verifying the page checksum.
func (f *ChecksumFile) ReadPageSeq(id PageID, buf []byte) error { return f.read(id, buf, true) }

func (f *ChecksumFile) read(id PageID, buf []byte, seq bool) error {
	rawp := f.bufs.Get().(*[]byte)
	defer f.bufs.Put(rawp)
	raw := *rawp
	if err := readVia(f.File, id, raw, seq); err != nil {
		return err
	}
	payload, sum := raw[:len(raw)-ChecksumOverhead], raw[len(raw)-ChecksumOverhead:]
	// An all-zero page is freshly allocated and never written: zeros are
	// the legitimate initial state and carry no checksum.
	if binary.LittleEndian.Uint32(sum) != crc32.Checksum(payload, castagnoli) && !allZero(raw) {
		return fmt.Errorf("%w: page %d", ErrChecksum, id)
	}
	copy(buf, payload)
	return nil
}

// WritePage implements File, appending the payload checksum.
func (f *ChecksumFile) WritePage(id PageID, data []byte) error {
	if len(data) > f.PageSize() {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), f.PageSize())
	}
	rawp := f.bufs.Get().(*[]byte)
	defer f.bufs.Put(rawp)
	raw := *rawp
	payload := raw[:len(raw)-ChecksumOverhead]
	clear(payload[copy(payload, data):])
	binary.LittleEndian.PutUint32(raw[len(payload):], crc32.Checksum(payload, castagnoli))
	return f.File.WritePage(id, raw)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
