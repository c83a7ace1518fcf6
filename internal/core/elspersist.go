package core

import (
	"encoding/binary"
	"fmt"

	"hybridtree/internal/els"
	"hybridtree/internal/pagefile"
)

// The ELS side table lives in memory (Section 3.4), but rebuilding it on
// Open means reading the whole tree. Close therefore snapshots the table
// into a chain of dedicated pages whose head is recorded in the metadata;
// Open restores from the snapshot when present and only falls back to a
// full rebuild when it is missing or stale.
//
// Any committed mutation marks the snapshot stale in the metadata (see
// sealMutation) without dropping its head, so the next Close frees the old
// chain and reuses its pages — also after a crash, when only the metadata
// knows the chain.
//
// Snapshot page layout (little endian): magic 'E', bits uint8, count
// uint16, next uint32, then count records of (page id uint32, encoding of
// 2*dim*bits bits rounded to bytes).

const elsPageHeader = 8

// saveELS writes the current table into a page chain, reusing (then
// freeing any excess of) the previous chain. Returns the chain head.
func (t *Tree) saveELS(prev pagefile.PageID) (pagefile.PageID, error) {
	// Free the previous chain first; page reuse keeps the file compact.
	if err := t.freeELSChain(prev); err != nil {
		return pagefile.InvalidPage, err
	}
	if !t.els.Enabled() || t.els.Len() == 0 {
		return pagefile.InvalidPage, nil
	}
	encSize := (2*t.cfg.Dim*t.els.Bits() + 7) / 8
	recSize := 4 + encSize
	perPage := (t.cfg.PageSize - elsPageHeader) / recSize
	if perPage < 1 {
		return pagefile.InvalidPage, fmt.Errorf("core: page size %d cannot hold an ELS record", t.cfg.PageSize)
	}

	ids, encs := t.els.Snapshot()
	head := pagefile.InvalidPage
	var prevBuf []byte
	var prevPage pagefile.PageID
	buf := make([]byte, t.cfg.PageSize)
	flush := func(next pagefile.PageID) error {
		if prevBuf == nil {
			return nil
		}
		binary.LittleEndian.PutUint32(prevBuf[4:], uint32(next))
		return t.file.WritePage(prevPage, prevBuf)
	}
	for start := 0; start < len(ids); start += perPage {
		end := start + perPage
		if end > len(ids) {
			end = len(ids)
		}
		page, err := t.file.Allocate()
		if err != nil {
			return pagefile.InvalidPage, err
		}
		if head == pagefile.InvalidPage {
			head = page
		}
		if err := flush(page); err != nil {
			return pagefile.InvalidPage, err
		}
		for i := range buf {
			buf[i] = 0
		}
		buf[0] = 'E'
		buf[1] = byte(t.els.Bits())
		binary.LittleEndian.PutUint16(buf[2:], uint16(end-start))
		off := elsPageHeader
		for i := start; i < end; i++ {
			binary.LittleEndian.PutUint32(buf[off:], ids[i])
			copy(buf[off+4:], encs[i])
			off += recSize
		}
		prevBuf, prevPage = buf[:off+0], page
		// flush writes prevBuf after patching the next pointer; keep a
		// stable copy since buf is reused.
		stable := make([]byte, off)
		copy(stable, buf[:off])
		prevBuf = stable
	}
	if err := flush(pagefile.InvalidPage); err != nil {
		return pagefile.InvalidPage, err
	}
	return head, nil
}

// loadELS restores the table from a snapshot chain. Returns false when the
// snapshot is absent or unusable (caller falls back to RebuildELS).
func (t *Tree) loadELS(head pagefile.PageID) (bool, error) {
	if head == pagefile.InvalidPage || !t.els.Enabled() {
		return false, nil
	}
	encSize := (2*t.cfg.Dim*t.els.Bits() + 7) / 8
	recSize := 4 + encSize
	buf := make([]byte, t.cfg.PageSize)
	page := head
	hops := 0
	for page != pagefile.InvalidPage {
		if err := t.file.ReadPage(page, buf); err != nil {
			return false, err
		}
		if buf[0] != 'E' {
			return false, fmt.Errorf("core: page %d is not an ELS snapshot", page)
		}
		if int(buf[1]) != t.els.Bits() {
			return false, nil // snapshot at a different precision: rebuild
		}
		count := int(binary.LittleEndian.Uint16(buf[2:]))
		next := pagefile.PageID(binary.LittleEndian.Uint32(buf[4:]))
		if elsPageHeader+count*recSize > len(buf) {
			return false, fmt.Errorf("core: ELS snapshot page %d overflows", page)
		}
		off := elsPageHeader
		for i := 0; i < count; i++ {
			id := binary.LittleEndian.Uint32(buf[off:])
			enc := make(els.Encoded, encSize)
			copy(enc, buf[off+4:off+4+encSize])
			t.els.Restore(id, enc, t.cfg.Space)
			off += recSize
		}
		page = next
		hops++
		if hops > 1<<20 {
			return false, fmt.Errorf("core: ELS snapshot chain too long (corrupt link?)")
		}
	}
	return true, nil
}

// freeELSChain releases a snapshot chain. A stale chain is freed as far as
// it is intact: a crash inside Close, after it began rewriting the chain's
// pages but before the new metadata was durable, can leave the chain ending
// in a page that was never written or looping into its successor's pages.
// The walk then stops at the first page that is not a snapshot page or was
// already freed, and the rest is only lost space.
func (t *Tree) freeELSChain(head pagefile.PageID) error {
	buf := make([]byte, t.cfg.PageSize)
	freed := make(map[pagefile.PageID]bool)
	for page := head; page != pagefile.InvalidPage && !freed[page]; {
		err := t.file.ReadPage(page, buf)
		if err == nil && buf[0] != 'E' {
			err = fmt.Errorf("core: page %d is not an ELS snapshot", page)
		}
		if err != nil {
			if t.elsStale {
				return nil
			}
			return err
		}
		if err := t.file.Free(page); err != nil {
			return err
		}
		freed[page] = true
		page = pagefile.PageID(binary.LittleEndian.Uint32(buf[4:]))
	}
	return nil
}
