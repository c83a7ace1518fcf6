// Package els implements the hybrid tree's Encoded Live Space (ELS)
// optimization (Section 3.4, Figure 4 of the paper). SP-based structures
// index dead space — regions of their partitions that contain no data — and
// pay unnecessary disk accesses for it. Storing exact live-space bounding
// rectangles would make node size dimension-dependent (turning the structure
// back into a DP technique), so the live rectangle is instead *encoded*
// relative to the kd-tree-defined region on a 2^bits grid per dimension,
// costing 2·dim·bits bits per node. The encoding is conservative: the
// decoded rectangle always contains the true live rectangle, so pruning with
// it is safe.
package els

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"hybridtree/internal/geom"
)

// Encoded is a bit-packed live-space rectangle: for each dimension, a
// lo-cell index (rounded down) and a hi-cell index (rounded up), each using
// the table's configured number of bits.
type Encoded []byte

// chunkBits sets the chunk granularity of the persistent table, its
// copy-on-write unit. A mutation after a Publish clones one chunk and the
// chunk directory, so smaller chunks trade a cheaper chunk clone for a
// longer directory: at 8 entries a 64-d chunk is 4 KB of decoded
// rectangles, and a directory over a few thousand pages is a few KB of
// pointers. A snapshot is just a shared directory.
const (
	chunkBits = 3
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk holds chunkSize consecutive node ids' encodings plus their eagerly
// decoded rectangles in one flat float32 block (entry i's rectangle
// occupies dec[i·2·dim : (i+1)·2·dim], lo then hi). A chunk is mutable only
// in the generation that made it: the next Publish seals it, and later
// mutations replace it wholesale via copy-on-write.
type chunk struct {
	gen     uint64
	present [chunkSize]bool
	enc     [chunkSize]Encoded
	dec     []float32
}

// Table holds the encoded live rectangles of a tree's nodes, keyed by an
// opaque node identifier (page id). The paper stores this side information
// in memory — for an 8K page, 4-bit precision and 64 dimensions it is under
// 1% of the database size — and so do we. MemoryBytes reports the honest
// footprint so the harness can verify that claim.
//
// The table is the writer's working copy: mutations require the external
// serialization the concurrency layer already provides for writers. Readers
// never touch the Table — they use the immutable Snap the writer obtains
// from Publish at commit time, which is safe for any number of concurrent
// goroutines with zero locking.
type Table struct {
	bits int
	dim  int
	n    int
	// chunks is indexed by id>>chunkBits. When sealedSlice is true the slice
	// itself is shared with a published Snap and must be cloned before any
	// element is replaced.
	chunks      []*chunk
	sealedSlice bool
	// gen is the generation being written; Publish advances it, sealing
	// every chunk made before.
	gen uint64
	// scratch holds Set's candidate encoding until it is known to differ.
	scratch []byte
}

// NewTable creates an ELS table with the given precision in bits per
// boundary (0 disables encoding: Decode returns the outer rectangle
// unchanged). The paper sweeps 0–16 bits in Figure 5(c); 4 is its sweet
// spot.
func NewTable(bits int) *Table {
	if bits < 0 || bits > 16 {
		panic(fmt.Sprintf("els: bits per boundary must be in [0,16], got %d", bits))
	}
	return &Table{bits: bits}
}

// Bits returns the configured precision.
func (t *Table) Bits() int { return t.bits }

// Enabled reports whether encoding is active (bits > 0).
func (t *Table) Enabled() bool { return t.bits > 0 }

// MemoryBytes returns the total size of all stored encodings.
func (t *Table) MemoryBytes() int {
	n := 0
	for _, c := range t.chunks {
		if c == nil {
			continue
		}
		for i := range c.enc {
			if c.present[i] {
				n += len(c.enc[i])
			}
		}
	}
	return n
}

func (t *Table) ensureDim(dim int) {
	if t.dim == 0 {
		t.dim = dim
	}
}

// mutable returns a chunk safe to mutate in place, cloning any state shared
// with a published snapshot first.
func (t *Table) mutable(ci int) *chunk {
	if t.sealedSlice {
		t.chunks = append([]*chunk(nil), t.chunks...)
		t.sealedSlice = false
	}
	for ci >= len(t.chunks) {
		t.chunks = append(t.chunks, nil)
	}
	c := t.chunks[ci]
	if c == nil {
		c = &chunk{gen: t.gen, dec: make([]float32, chunkSize*2*t.dim)}
		t.chunks[ci] = c
	} else if c.gen != t.gen {
		nc := &chunk{gen: t.gen, present: c.present, enc: c.enc}
		nc.dec = append([]float32(nil), c.dec...)
		t.chunks[ci] = nc
		c = nc
	}
	return c
}

// install stores enc (and its decoded form, relative to outer) for id.
func (t *Table) install(id uint32, outer geom.Rect, e Encoded) {
	t.ensureDim(outer.Dim())
	c := t.mutable(int(id >> chunkBits))
	idx := int(id & chunkMask)
	if !c.present[idx] {
		c.present[idx] = true
		t.n++
	}
	c.enc[idx] = e
	off := idx * 2 * t.dim
	decodeTo(c.dec[off:off+t.dim], c.dec[off+t.dim:off+2*t.dim], outer, e, t.bits)
}

// Set encodes live relative to outer and stores it for id. live must be
// contained in outer (up to float rounding; coordinates are clamped). An
// encoding equal to the stored one installs nothing: the tree encodes every
// entry relative to the same outer rectangle, so the decoded block would
// not change either.
func (t *Table) Set(id uint32, outer, live geom.Rect) {
	if !t.Enabled() {
		return
	}
	n := encodedLen(outer.Dim(), t.bits)
	t.scratch = slices.Grow(t.scratch[:0], n)[:n]
	encodeTo(t.scratch, outer, live, t.bits)
	if old, ok := t.Encoded(id); ok && bytes.Equal(old, t.scratch) {
		return
	}
	t.install(id, outer, bytes.Clone(t.scratch))
}

// decAt returns the stored decoded rectangle for id, aliasing the chunk's
// flat block. Callers must not mutate it.
func decAt(chunks []*chunk, dim int, id uint32) (geom.Rect, bool) {
	ci := int(id >> chunkBits)
	if ci >= len(chunks) {
		return geom.Rect{}, false
	}
	c := chunks[ci]
	if c == nil {
		return geom.Rect{}, false
	}
	idx := int(id & chunkMask)
	if !c.present[idx] {
		return geom.Rect{}, false
	}
	off := idx * 2 * dim
	return geom.Rect{Lo: c.dec[off : off+dim], Hi: c.dec[off+dim : off+2*dim]}, true
}

// Get returns the decoded live rectangle for id, or outer itself when no
// encoding is stored (or encoding is disabled). The second return reports
// whether an encoding was present. The returned rectangle aliases the
// table's decoded block — callers must not mutate it.
func (t *Table) Get(id uint32, outer geom.Rect) (geom.Rect, bool) {
	if !t.Enabled() {
		return outer, false
	}
	if r, ok := decAt(t.chunks, t.dim, id); ok {
		return r, true
	}
	return outer, false
}

// EnlargeToInclude grows id's stored live rectangle to include p (used on
// insertion). If nothing is stored yet, the live rectangle becomes the
// degenerate rectangle at p.
func (t *Table) EnlargeToInclude(id uint32, outer geom.Rect, p geom.Point) {
	if !t.Enabled() {
		return
	}
	t.ensureDim(outer.Dim())
	if live, ok := decAt(t.chunks, t.dim, id); ok {
		if live.Contains(p) {
			return // common case: no re-encode, no copy-on-write
		}
		grown := live.Clone()
		grown.Enlarge(p)
		t.install(id, outer, Encode(outer, grown, t.bits))
		return
	}
	live := geom.Rect{Lo: p.Clone(), Hi: p.Clone()}
	t.install(id, outer, Encode(outer, live, t.bits))
}

// EnlargeExisting grows id's stored live rectangle to include p only when
// an encoding is already stored; absent entries stay absent. The insert
// descent uses this for the root: a fresh tree never stores a root entry,
// but a rebuild (recovery) or snapshot restore does, and that entry must
// track later insertions — while installing a fresh degenerate rectangle
// here would wrongly claim the whole live space is {p}.
func (t *Table) EnlargeExisting(id uint32, outer geom.Rect, p geom.Point) {
	if !t.Enabled() {
		return
	}
	t.ensureDim(outer.Dim())
	live, ok := decAt(t.chunks, t.dim, id)
	if !ok || live.Contains(p) {
		return
	}
	grown := live.Clone()
	grown.Enlarge(p)
	t.install(id, outer, Encode(outer, grown, t.bits))
}

// Encoded returns the raw stored encoding for id, if any. The returned
// slice is shared with the table — callers must not mutate it. Set always
// installs a freshly allocated encoding, so a captured slice stays intact.
func (t *Table) Encoded(id uint32) (Encoded, bool) {
	ci := int(id >> chunkBits)
	if ci >= len(t.chunks) || t.chunks[ci] == nil {
		return nil, false
	}
	idx := int(id & chunkMask)
	if !t.chunks[ci].present[idx] {
		return nil, false
	}
	return t.chunks[ci].enc[idx], true
}

// Delete removes id's encoding (when its node is freed).
func (t *Table) Delete(id uint32) {
	if !t.Enabled() {
		return
	}
	ci := int(id >> chunkBits)
	if ci >= len(t.chunks) || t.chunks[ci] == nil {
		return
	}
	idx := int(id & chunkMask)
	if !t.chunks[ci].present[idx] {
		return
	}
	c := t.mutable(ci)
	c.present[idx] = false
	c.enc[idx] = nil
	t.n--
}

// Len returns the number of stored encodings.
func (t *Table) Len() int { return t.n }

// Snapshot returns every stored (id, encoding) pair in ascending id order,
// so that tests can pin a table or compare two. The encodings are shared,
// not copied.
func (t *Table) Snapshot() (ids []uint32, encs []Encoded) {
	ids = make([]uint32, 0, t.n)
	encs = make([]Encoded, 0, t.n)
	for ci, c := range t.chunks {
		if c == nil {
			continue
		}
		for i := 0; i < chunkSize; i++ {
			if c.present[i] {
				ids = append(ids, uint32(ci<<chunkBits|i))
				encs = append(encs, c.enc[i])
			}
		}
	}
	return ids, encs
}

// Snap is an immutable point-in-time view of a Table, safe for concurrent
// lock-free reads. A Snap shares chunk storage with the table and with
// other snapshots; the copy-on-write discipline in Table guarantees no
// chunk reachable from a Snap is ever mutated.
type Snap struct {
	bits   int
	dim    int
	n      int
	chunks []*chunk
}

// Publish seals the table's current state and returns it as an immutable
// snapshot. The writer calls this once per committed mutation; subsequent
// table mutations copy-on-write any chunk (and the chunk slice) the
// snapshot references.
func (t *Table) Publish() *Snap {
	t.gen++
	t.sealedSlice = true
	return &Snap{bits: t.bits, dim: t.dim, n: t.n, chunks: t.chunks}
}

// ResetTo rewinds the table to a previously published snapshot, discarding
// every mutation since. Rollback uses this instead of replaying undo
// pre-images.
func (t *Table) ResetTo(s *Snap) {
	t.bits = s.bits
	t.dim = s.dim
	t.n = s.n
	t.chunks = s.chunks
	t.sealedSlice = true
}

// Enabled reports whether encoding is active in this snapshot.
func (s *Snap) Enabled() bool { return s.bits > 0 }

// Len returns the number of stored encodings in the snapshot.
func (s *Snap) Len() int { return s.n }

// MemoryBytes returns the total size of all encodings stored in the
// snapshot.
func (s *Snap) MemoryBytes() int {
	n := 0
	for _, c := range s.chunks {
		if c == nil {
			continue
		}
		for i := range c.enc {
			if c.present[i] {
				n += len(c.enc[i])
			}
		}
	}
	return n
}

// Get is Table.Get against the snapshot: zero locks, zero allocations. The
// returned rectangle aliases the snapshot's decoded block — callers must
// not mutate it.
func (s *Snap) Get(id uint32, outer geom.Rect) (geom.Rect, bool) {
	if s.bits == 0 {
		return outer, false
	}
	if r, ok := decAt(s.chunks, s.dim, id); ok {
		return r, true
	}
	return outer, false
}

// Encode quantizes live relative to outer using the given bits per boundary.
// Lo boundaries round down and hi boundaries round up, so the decoded
// rectangle always contains live.
func Encode(outer, live geom.Rect, bits int) Encoded {
	e := make(Encoded, encodedLen(outer.Dim(), bits))
	encodeTo(e, outer, live, bits)
	return e
}

// encodedLen is the size of an encoding: 2·dim·bits bits, rounded up to
// bytes.
func encodedLen(dim, bits int) int { return (2*dim*bits + 7) / 8 }

// encodeTo writes Encode's result into buf, which must be encodedLen long.
func encodeTo(buf []byte, outer, live geom.Rect, bits int) {
	dim := outer.Dim()
	cells := float64(int(1) << bits)
	clear(buf)
	w := bitWriter{buf: buf}
	for d := 0; d < dim; d++ {
		ext := outer.Extent(d)
		var loCell, hiCell uint32
		if ext <= 0 {
			// Degenerate outer extent: the whole cell range is one point.
			loCell, hiCell = 0, uint32(cells)-1
		} else {
			loFrac := (float64(live.Lo[d]) - float64(outer.Lo[d])) / ext
			hiFrac := (float64(live.Hi[d]) - float64(outer.Lo[d])) / ext
			loCell = clampCell(math.Floor(loFrac*cells), cells)
			hiCell = clampCell(math.Ceil(hiFrac*cells)-1, cells)
			if hiCell < loCell {
				hiCell = loCell
			}
		}
		w.write(loCell, bits)
		w.write(hiCell, bits)
	}
}

// Decode expands an encoding back to a rectangle in outer's coordinates.
func Decode(outer geom.Rect, e Encoded, bits int) geom.Rect {
	dim := outer.Dim()
	out := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	decodeTo(out.Lo, out.Hi, outer, e, bits)
	return out
}

// decodeTo writes Decode's corners into lo and hi.
func decodeTo(lo, hi []float32, outer geom.Rect, e Encoded, bits int) {
	cells := float64(int(1) << bits)
	r := bitReader{buf: e}
	for d := range lo {
		loCell := r.read(bits)
		hiCell := r.read(bits)
		ext := outer.Extent(d)
		lo[d] = outer.Lo[d] + float32(float64(loCell)/cells*ext)
		hi[d] = outer.Lo[d] + float32(float64(hiCell+1)/cells*ext)
		if hi[d] > outer.Hi[d] {
			hi[d] = outer.Hi[d]
		}
		if lo[d] < outer.Lo[d] {
			lo[d] = outer.Lo[d]
		}
	}
}

func clampCell(v, cells float64) uint32 {
	if v < 0 {
		return 0
	}
	if v > cells-1 {
		return uint32(cells) - 1
	}
	return uint32(v)
}

// bitWriter packs fixed-width unsigned values MSB-first.
type bitWriter struct {
	buf []byte
	n   int // bits written
}

func (w *bitWriter) write(v uint32, bits int) {
	for i := bits - 1; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			w.buf[w.n/8] |= 1 << uint(7-w.n%8)
		}
		w.n++
	}
}

type bitReader struct {
	buf []byte
	n   int
}

func (r *bitReader) read(bits int) uint32 {
	var v uint32
	for i := 0; i < bits; i++ {
		v <<= 1
		if r.buf[r.n/8]&(1<<uint(7-r.n%8)) != 0 {
			v |= 1
		}
		r.n++
	}
	return v
}
