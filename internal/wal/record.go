// Package wal implements a physical-redo write-ahead log over
// internal/pagefile. A wal.File interposes between the tree and its page
// file: writes are framed into an append-only log; SealTx makes a group of
// writes durable with one log fsync (the commit point) and then writes them
// back to the inner file; Sync checkpoints — flushes what the overlay still
// holds, fsyncs the inner file, and truncates the log; Open replays the
// committed log tail after a crash, discarding torn frames and uncommitted
// records.
//
// The framing reuses the ChecksumFile idiom: every record is length-prefixed
// and guarded by a CRC32-C over its payload, so a torn log tail is detected
// by the first frame that fails to parse, never by replaying garbage.
package wal

import (
	"encoding/binary"
	"hash/crc32"

	"hybridtree/internal/pagefile"
)

// Record kinds. A write carries a page image; a commit seals every write
// framed since the previous commit into one atomic transaction; a
// checkpoint asserts that everything before it is durable in the inner file
// and replay may start after it.
const (
	kindWrite      = 1
	kindCommit     = 2
	kindCheckpoint = 3
)

// frameHeader is the per-record overhead: u32 payload length + u32 CRC32-C
// of the payload, both little-endian.
const frameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealFrame fills in the length and CRC of the frame that starts at off in
// dst, whose payload occupies dst[off+frameHeader:].
func sealFrame(dst []byte, off int) {
	payload := dst[off+frameHeader:]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.Checksum(payload, castagnoli))
}

// appendWrite appends a framed write record carrying the page image as
// given (write-back pads it to the full page, so short meta writes stay
// short on the log).
func appendWrite(dst []byte, id pagefile.PageID, data []byte) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, kindWrite)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	dst = append(dst, data...)
	sealFrame(dst, off)
	return dst
}

// appendSeqRecord appends a framed commit or checkpoint record for seq.
func appendSeqRecord(dst []byte, kind byte, seq uint64) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	sealFrame(dst, off)
	return dst
}

// appendCommit appends a framed commit record sealing transaction seq.
func appendCommit(dst []byte, seq uint64) []byte {
	return appendSeqRecord(dst, kindCommit, seq)
}

// record is one parsed log record. data aliases the scanned buffer and is
// only valid until the buffer is mutated.
type record struct {
	kind   byte
	pageID pagefile.PageID
	seq    uint64
	data   []byte
}

// parseFrame decodes the frame at the start of b. maxPayload bounds the
// declared payload length so a corrupted length field cannot demand an
// absurd allocation or swallow the rest of the log. It returns the record,
// the total frame size, and whether the frame was valid; any failure —
// truncation, a bad CRC, an unknown kind, a mis-sized payload — means the
// log is torn here and scanning must stop.
func parseFrame(b []byte, maxPayload int) (record, int, bool) {
	if len(b) < frameHeader {
		return record{}, 0, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 1 || n > maxPayload || len(b) < frameHeader+n {
		return record{}, 0, false
	}
	payload := b[frameHeader : frameHeader+n]
	if binary.LittleEndian.Uint32(b[4:]) != crc32.Checksum(payload, castagnoli) {
		return record{}, 0, false
	}
	rec := record{kind: payload[0]}
	switch rec.kind {
	case kindWrite:
		if n < 5 {
			return record{}, 0, false
		}
		rec.pageID = pagefile.PageID(binary.LittleEndian.Uint32(payload[1:]))
		rec.data = payload[5:]
	case kindCommit, kindCheckpoint:
		if n != 9 {
			return record{}, 0, false
		}
		rec.seq = binary.LittleEndian.Uint64(payload[1:])
	default:
		return record{}, 0, false
	}
	return rec, frameHeader + n, true
}
