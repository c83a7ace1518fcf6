package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"hybridtree/internal/pagefile"
)

// On-page layout (little endian).
//
// Header (6 bytes): magic 'H', node type (0 data / 1 index), dim uint16,
// count uint16. For data nodes count is the entry count; for index nodes it
// is the number of kd records that follow.
//
// Data entry (8 + 4*dim bytes): RecordID uint64, then dim float32
// coordinates.
//
// kd record: tag byte. Internal (tag 0, 15 bytes): dim uint16, lsp float32,
// rsp float32, left uint16, right uint16 (indices into the kd record
// array). Leaf (tag 1, 5 bytes): child page id uint32. Records are written
// in pre-order from the kd root, so record 0 is always the root; a kd-tree
// with c leaves costs exactly (c-1)*15 + c*5 bytes regardless of the
// feature space dimensionality — the fanout-independence at the heart of
// Table 1.
const (
	nodeHeaderSize = 6
	kdInternalSize = 15
	kdLeafSize     = 5

	magicByte     = 'H'
	typeDataNode  = 0
	typeIndexNode = 1
)

// ErrCorruptPage reports that a page failed structural validation on decode.
type ErrCorruptPage struct {
	Page   pagefile.PageID
	Reason string
}

func (e *ErrCorruptPage) Error() string {
	return fmt.Sprintf("core: corrupt page %d: %s", e.Page, e.Reason)
}

// serializedSize returns the number of bytes the node occupies when
// encoded; the overflow tests compare it against the page size.
func (n *node) serializedSize(dim int) int {
	if n.leaf {
		return nodeHeaderSize + n.count()*(8+4*dim)
	}
	internal, leaves := 0, 0
	n.walkReachable(func(k *kdNode) {
		if k.isLeaf() {
			leaves++
		} else {
			internal++
		}
	})
	return nodeHeaderSize + internal*kdInternalSize + leaves*kdLeafSize
}

// walkReachable visits every reachable kd record in pre-order.
func (n *node) walkReachable(fn func(k *kdNode)) {
	if n.kdRoot == kdNone {
		return
	}
	stack := []int32{n.kdRoot}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := &n.kd[idx]
		fn(k)
		if !k.isLeaf() {
			stack = append(stack, k.Right, k.Left)
		}
	}
}

// encode serializes the node into buf, compacting the kd arena to its
// reachable records. buf must be at least serializedSize bytes.
func (n *node) encode(buf []byte, dim int) (int, error) {
	buf[0] = magicByte
	if n.leaf {
		buf[1] = typeDataNode
		binary.LittleEndian.PutUint16(buf[2:], uint16(dim))
		binary.LittleEndian.PutUint16(buf[4:], uint16(n.count()))
		off := nodeHeaderSize
		for i := range n.rids {
			binary.LittleEndian.PutUint64(buf[off:], uint64(n.rids[i]))
			off += 8
			for _, v := range n.vals[i*dim : (i+1)*dim] {
				binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
				off += 4
			}
		}
		return off, nil
	}

	buf[1] = typeIndexNode
	binary.LittleEndian.PutUint16(buf[2:], uint16(dim))

	// First pass: pre-order numbering of reachable records.
	renum := make(map[int32]uint16)
	var order []int32
	var number func(idx int32)
	number = func(idx int32) {
		renum[idx] = uint16(len(order))
		order = append(order, idx)
		k := &n.kd[idx]
		if !k.isLeaf() {
			number(k.Left)
			number(k.Right)
		}
	}
	if n.kdRoot != kdNone {
		number(n.kdRoot)
	}
	if len(order) > (1 << 16) {
		return 0, fmt.Errorf("core: kd arena of %d records exceeds page index width", len(order))
	}
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(order)))

	off := nodeHeaderSize
	for _, idx := range order {
		k := &n.kd[idx]
		if k.isLeaf() {
			buf[off] = 1
			binary.LittleEndian.PutUint32(buf[off+1:], uint32(k.Child))
			off += kdLeafSize
			continue
		}
		buf[off] = 0
		binary.LittleEndian.PutUint16(buf[off+1:], k.Dim)
		binary.LittleEndian.PutUint32(buf[off+3:], math.Float32bits(k.Lsp))
		binary.LittleEndian.PutUint32(buf[off+7:], math.Float32bits(k.Rsp))
		binary.LittleEndian.PutUint16(buf[off+11:], renum[k.Left])
		binary.LittleEndian.PutUint16(buf[off+13:], renum[k.Right])
		off += kdInternalSize
	}
	return off, nil
}

// hostLittle reports whether this host keeps a float32 in memory in the
// page's byte order, which makes a stored row its own in-memory image.
var hostLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeRow fills row from b, its 4*len(row)-byte little-endian image. On a
// little-endian host that is one copy into a byte view of the row (a
// []float32 is 4-byte aligned, so the view is too); other hosts take the
// portable loop. This is the decoder's only host-order fork.
func decodeRow(row []float32, b []byte) {
	if hostLittle && len(row) > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), 4*len(row)), b)
		return
	}
	decodeRowPortable(row, b)
}

// decodeRowPortable is decodeRow one float at a time, on any host.
func decodeRowPortable(row []float32, b []byte) {
	for d := range row {
		row[d] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*d:]))
	}
}

// decodeNode reconstructs a node from page bytes, validating structure as
// it goes.
func decodeNode(id pagefile.PageID, buf []byte, dim int) (*node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, &ErrCorruptPage{Page: id, Reason: "short page"}
	}
	if buf[0] != magicByte {
		return nil, &ErrCorruptPage{Page: id, Reason: fmt.Sprintf("bad magic 0x%02x", buf[0])}
	}
	if got := int(binary.LittleEndian.Uint16(buf[2:])); got != dim {
		return nil, &ErrCorruptPage{Page: id, Reason: fmt.Sprintf("dimensionality %d, tree expects %d", got, dim)}
	}
	count := int(binary.LittleEndian.Uint16(buf[4:]))

	switch buf[1] {
	case typeDataNode:
		need := nodeHeaderSize + count*(8+4*dim)
		if need > len(buf) {
			return nil, &ErrCorruptPage{Page: id, Reason: "entry count exceeds page"}
		}
		// Decode straight into the flat slab: exactly two allocations per
		// leaf (vals, rids) regardless of entry count.
		n := &node{id: id, leaf: true, dim: dim, kdRoot: kdNone,
			vals: make([]float32, count*dim), rids: make([]RecordID, count)}
		off := nodeHeaderSize
		for i := 0; i < count; i++ {
			n.rids[i] = RecordID(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			decodeRow(n.vals[i*dim:(i+1)*dim], buf[off:off+4*dim])
			off += 4 * dim
		}
		return n, nil

	case typeIndexNode:
		n := &node{id: id, kdRoot: kdNone, kd: make([]kdNode, count)}
		if count > 0 {
			n.kdRoot = 0
		}
		off := nodeHeaderSize
		for i := 0; i < count; i++ {
			if off >= len(buf) {
				return nil, &ErrCorruptPage{Page: id, Reason: "kd records exceed page"}
			}
			switch buf[off] {
			case 1:
				if off+kdLeafSize > len(buf) {
					return nil, &ErrCorruptPage{Page: id, Reason: "truncated kd leaf"}
				}
				n.kd[i] = kdNode{Left: kdNone, Right: kdNone,
					Child: pagefile.PageID(binary.LittleEndian.Uint32(buf[off+1:]))}
				off += kdLeafSize
			case 0:
				if off+kdInternalSize > len(buf) {
					return nil, &ErrCorruptPage{Page: id, Reason: "truncated kd internal"}
				}
				left := int32(binary.LittleEndian.Uint16(buf[off+11:]))
				right := int32(binary.LittleEndian.Uint16(buf[off+13:]))
				// Records are written in pre-order, so children always
				// follow their parent; anything else could encode a cycle
				// or shared substructure and must be rejected.
				if left >= int32(count) || right >= int32(count) || left <= int32(i) || right <= int32(i) {
					return nil, &ErrCorruptPage{Page: id, Reason: "kd link out of pre-order range"}
				}
				n.kd[i] = kdNode{
					Dim:  binary.LittleEndian.Uint16(buf[off+1:]),
					Lsp:  math.Float32frombits(binary.LittleEndian.Uint32(buf[off+3:])),
					Rsp:  math.Float32frombits(binary.LittleEndian.Uint32(buf[off+7:])),
					Left: left, Right: right,
				}
				if int(n.kd[i].Dim) >= dim {
					return nil, &ErrCorruptPage{Page: id, Reason: "split dimension out of range"}
				}
				off += kdInternalSize
			default:
				return nil, &ErrCorruptPage{Page: id, Reason: fmt.Sprintf("bad kd tag 0x%02x", buf[off])}
			}
		}
		return n, nil

	default:
		return nil, &ErrCorruptPage{Page: id, Reason: fmt.Sprintf("bad node type 0x%02x", buf[1])}
	}
}
