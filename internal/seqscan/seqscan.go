// Package seqscan implements the linear-scan baseline of the paper's
// evaluation. Beyond 10-15 dimensions most index structures lose to simply
// reading the whole file sequentially [Beyer et al.]; the paper therefore
// normalizes every method's I/O cost against a scan, charging sequential
// pages one tenth of a random page, so linear scan's normalized I/O cost is
// 0.1 by construction and any index above that line is losing.
package seqscan

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/index"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/pqueue"
)

// Scan is a flat file of (vector, record id) entries read sequentially.
type Scan struct {
	file     pagefile.File
	dim      int
	pages    []pagefile.PageID
	perPage  int
	lastFill int // entries on the final page
	count    int
	buf      []byte // scratch page buffer
	reads    *obs.Counter
}

// page layout: count uint16, then entries of (rid uint64, dim float32s).
const headerSize = 2

// New creates an empty scan file for dim-dimensional vectors.
func New(file pagefile.File, dim int) (*Scan, error) {
	if dim < 1 {
		return nil, fmt.Errorf("seqscan: dim must be >= 1, got %d", dim)
	}
	perPage := (file.PageSize() - headerSize) / (8 + 4*dim)
	if perPage < 1 {
		return nil, fmt.Errorf("seqscan: page size %d cannot hold a %d-d entry", file.PageSize(), dim)
	}
	reads, _, _ := obs.IndexCounters(obs.Default(), "scan")
	return &Scan{file: file, dim: dim, perPage: perPage, buf: make([]byte, file.PageSize()), reads: reads}, nil
}

// Name implements index.Index.
func (s *Scan) Name() string { return "scan" }

// File implements index.Index.
func (s *Scan) File() pagefile.File { return s.file }

// NumPages returns the number of data pages — the denominator of the
// paper's normalized I/O cost for every access method over this dataset.
func (s *Scan) NumPages() int { return len(s.pages) }

// Len returns the number of stored entries.
func (s *Scan) Len() int { return s.count }

// Insert implements index.Index: entries append to the last page.
func (s *Scan) Insert(p geom.Point, rid uint64) error {
	if len(p) != s.dim {
		return fmt.Errorf("seqscan: vector has dim %d, want %d", len(p), s.dim)
	}
	if len(s.pages) == 0 || s.lastFill == s.perPage {
		id, err := s.file.Allocate()
		if err != nil {
			return err
		}
		s.pages = append(s.pages, id)
		s.lastFill = 0
	}
	id := s.pages[len(s.pages)-1]
	buf := s.buf
	if err := s.file.ReadPageSeq(id, buf); err != nil {
		return err
	}
	off := headerSize + s.lastFill*(8+4*s.dim)
	binary.LittleEndian.PutUint64(buf[off:], rid)
	off += 8
	for _, v := range p {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	s.lastFill++
	s.count++
	binary.LittleEndian.PutUint16(buf, uint16(s.lastFill))
	return s.file.WritePage(id, buf[:off])
}

// Delete implements index.Index: the matching entry is overwritten with the
// final entry of the final page, which then shrinks by one (the classic
// heap-file delete). An emptied final page is released.
func (s *Scan) Delete(p geom.Point, rid uint64) (bool, error) {
	if len(p) != s.dim {
		return false, fmt.Errorf("seqscan: vector has dim %d, want %d", len(p), s.dim)
	}
	entrySize := 8 + 4*s.dim
	buf := s.buf
	for _, id := range s.pages {
		if err := s.file.ReadPageSeq(id, buf); err != nil {
			return false, err
		}
		n := int(binary.LittleEndian.Uint16(buf))
		for i := 0; i < n; i++ {
			off := headerSize + i*entrySize
			if binary.LittleEndian.Uint64(buf[off:]) != rid {
				continue
			}
			match := true
			for d := 0; d < s.dim; d++ {
				v := math.Float32frombits(binary.LittleEndian.Uint32(buf[off+8+4*d:]))
				if v != p[d] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			// Pull the last entry of the last page into the hole.
			lastPage := s.pages[len(s.pages)-1]
			if lastPage == id {
				lastOff := headerSize + (n-1)*entrySize
				copy(buf[off:off+entrySize], buf[lastOff:lastOff+entrySize])
				binary.LittleEndian.PutUint16(buf, uint16(n-1))
				if err := s.file.WritePage(id, buf[:headerSize+(n-1)*entrySize]); err != nil {
					return false, err
				}
			} else {
				last := make([]byte, s.file.PageSize())
				if err := s.file.ReadPageSeq(lastPage, last); err != nil {
					return false, err
				}
				lastOff := headerSize + (s.lastFill-1)*entrySize
				copy(buf[off:off+entrySize], last[lastOff:lastOff+entrySize])
				binary.LittleEndian.PutUint16(last, uint16(s.lastFill-1))
				if err := s.file.WritePage(id, buf[:headerSize+n*entrySize]); err != nil {
					return false, err
				}
				if err := s.file.WritePage(lastPage, last[:headerSize+(s.lastFill-1)*entrySize]); err != nil {
					return false, err
				}
			}
			s.lastFill--
			s.count--
			if s.lastFill == 0 {
				freed := s.pages[len(s.pages)-1]
				s.pages = s.pages[:len(s.pages)-1]
				if len(s.pages) > 0 {
					s.lastFill = s.perPage
				}
				if err := s.file.Free(freed); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	}
	return false, nil
}

// scan streams every entry through fn, counting sequential reads. The point
// passed to fn is a scratch buffer valid only for the duration of the call;
// callbacks that keep it must Clone it.
func (s *Scan) scan(fn func(p geom.Point, rid uint64)) error {
	buf := make([]byte, s.file.PageSize())
	p := make(geom.Point, s.dim)
	s.reads.Add(uint64(len(s.pages)))
	for _, id := range s.pages {
		if err := s.file.ReadPageSeq(id, buf); err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint16(buf))
		off := headerSize
		for i := 0; i < n; i++ {
			rid := binary.LittleEndian.Uint64(buf[off:])
			off += 8
			for d := 0; d < s.dim; d++ {
				p[d] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
			}
			fn(p, rid)
		}
	}
	return nil
}

// Search implements index.Index.
func (s *Scan) Search(ctx context.Context, q core.Query) ([]core.Neighbor, error) {
	if err := index.Check(ctx, q, s.dim); err != nil {
		return nil, err
	}
	switch q.Kind {
	case core.Box:
		return s.searchBox(q.Rect)
	case core.Range:
		return s.searchRange(q.Point, q.Radius, q.Metric)
	}
	return s.searchKNN(q.Point, q.K, q.Metric)
}

func (s *Scan) searchBox(q geom.Rect) ([]core.Neighbor, error) {
	var out []core.Neighbor
	err := s.scan(func(p geom.Point, rid uint64) {
		if q.Contains(p) {
			out = append(out, core.Neighbor{Entry: core.Entry{Point: p.Clone(), RID: core.RecordID(rid)}})
		}
	})
	return out, err
}

// searchRange under a metric with an additive kernel (L1, L2 and their
// weighted forms) compares sums against the radius in sum space with
// partial-sum early abandonment, paying one root per reported hit instead
// of one full distance per stored point.
func (s *Scan) searchRange(q geom.Point, radius float64, m dist.Metric) ([]core.Neighbor, error) {
	var out []core.Neighbor
	if add, ok := dist.AsAdditive(m); ok {
		bound := add.SumBound(radius)
		err := s.scan(func(p geom.Point, rid uint64) {
			if sum := add.SumBounded(q, p, bound); sum <= bound {
				out = append(out, core.Neighbor{Entry: core.Entry{Point: p.Clone(), RID: core.RecordID(rid)}, Dist: add.Root(sum)})
			}
		})
		return out, err
	}
	err := s.scan(func(p geom.Point, rid uint64) {
		if d := m.Distance(q, p); d <= radius {
			out = append(out, core.Neighbor{Entry: core.Entry{Point: p.Clone(), RID: core.RecordID(rid)}, Dist: d})
		}
	})
	return out, err
}

// searchKNN clones a point only once it beats the current k-th bound, and
// under a metric with an additive kernel runs the whole scan in sum space
// with early abandonment against that bound.
func (s *Scan) searchKNN(q geom.Point, k int, m dist.Metric) ([]core.Neighbor, error) {
	best := pqueue.NewKBest[core.Neighbor](k)
	add, fast := dist.AsAdditive(m)
	err := s.scan(func(p geom.Point, rid uint64) {
		bound := math.Inf(1)
		if best.Full() {
			bound = best.Bound()
		}
		var d float64
		if fast {
			d = add.SumBounded(q, p, bound)
		} else {
			d = m.Distance(q, p)
		}
		if d > bound {
			return // abandoned or beaten; Offer would reject it
		}
		best.Offer(core.Neighbor{Entry: core.Entry{Point: p.Clone(), RID: core.RecordID(rid)}, Dist: d}, d)
	})
	if err != nil {
		return nil, err
	}
	ns, _ := best.Sorted()
	if fast {
		for i := range ns {
			ns[i].Dist = add.Root(ns[i].Dist)
		}
	}
	return ns, nil
}
