// Package nodestore provides a generic decoded-node cache over a page file,
// shared by the baseline access methods (SR-tree, hB-tree, KDB-tree). Like
// the hybrid tree's store, it charges one logical random read per Get even
// on a cache hit: the experiments count cold disk accesses, and caching is
// only a construction-speed convenience that must not distort measurements.
//
// Get is lock-free: each shard publishes its map through an atomic pointer
// and mutators replace it copy-on-write, so readers never contend with each
// other or with the writer. Put, Alloc and Free still need the exclusive
// writer serialization a concurrency layer provides.
package nodestore

import (
	"sync"
	"sync/atomic"

	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// Codec serializes nodes of type N to and from page bytes.
type Codec[N any] interface {
	Encode(n N, buf []byte) (int, error)
	Decode(id pagefile.PageID, buf []byte) (N, error)
}

// shards is the number of independently-published cache segments.
const shards = 16

// shard is one cache segment: readers load m with a single atomic pointer
// load; mutators serialize on mu and install a fresh copy of the map, never
// mutating one a reader may hold.
type shard[N any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[pagefile.PageID]N]
}

// mutate replaces the shard's map with fn applied to a private copy.
func (sh *shard[N]) mutate(fn func(m map[pagefile.PageID]N)) {
	sh.mu.Lock()
	old := *sh.m.Load()
	next := make(map[pagefile.PageID]N, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	fn(next)
	sh.m.Store(&next)
	sh.mu.Unlock()
}

// Store is a write-through decoded-node cache.
type Store[N any] struct {
	file   pagefile.File
	codec  Codec[N]
	shards [shards]shard[N]
	bufs   sync.Pool // *[]byte scratch pages
	// obs holds the shared node-read/cache-hit counters for the owning
	// access method (nil = no obs accounting); see SetObsMethod.
	obs atomic.Pointer[obsCounters]
}

// obsCounters bundles the unified per-method counters every access method
// reports reads through (obs.IndexCounters — the same code path the hybrid
// tree's own store uses, so cross-method numbers stay comparable).
type obsCounters struct {
	reads, hits, misses *obs.Counter
}

// SetObsMethod attaches the store to the unified per-method obs counters
// under the given method label (the index's Name()).
func (s *Store[N]) SetObsMethod(method string) {
	reads, hits, misses := obs.IndexCounters(obs.Default(), method)
	s.obs.Store(&obsCounters{reads: reads, hits: hits, misses: misses})
}

// PauseObs detaches the obs counters and returns the previous attachment
// for ResumeObs, so structural audit walks don't inflate read accounting
// (mirroring the pagefile.Stats save/restore those walks already do).
func (s *Store[N]) PauseObs() any {
	o := s.obs.Load()
	s.obs.Store(nil)
	return o
}

// ResumeObs restores an attachment returned by PauseObs.
func (s *Store[N]) ResumeObs(o any) {
	if o == nil {
		s.obs.Store(nil)
		return
	}
	s.obs.Store(o.(*obsCounters))
}

// New creates a store over file using codec.
func New[N any](file pagefile.File, codec Codec[N]) *Store[N] {
	s := &Store[N]{file: file, codec: codec}
	for i := range s.shards {
		m := make(map[pagefile.PageID]N)
		s.shards[i].m.Store(&m)
	}
	pageSize := file.PageSize()
	s.bufs.New = func() any {
		b := make([]byte, pageSize)
		return &b
	}
	return s
}

func (s *Store[N]) shard(id pagefile.PageID) *shard[N] {
	return &s.shards[uint(id)%shards]
}

// Get returns the decoded node, counting one logical random read. Safe for
// concurrent callers; a cache hit costs one atomic load and no locks.
func (s *Store[N]) Get(id pagefile.PageID) (N, error) {
	sh := s.shard(id)
	if n, ok := (*sh.m.Load())[id]; ok {
		s.file.Stats().AddRandomReads(1)
		if o := s.obs.Load(); o != nil {
			o.reads.Inc()
			o.hits.Inc()
		}
		return n, nil
	}
	var zero N
	bufp := s.bufs.Get().(*[]byte)
	if err := s.file.ReadPage(id, *bufp); err != nil {
		s.bufs.Put(bufp)
		return zero, err
	}
	n, err := s.codec.Decode(id, *bufp)
	s.bufs.Put(bufp)
	if err != nil {
		return zero, err
	}
	if o := s.obs.Load(); o != nil {
		o.reads.Inc()
		o.misses.Inc()
	}
	sh.mutate(func(m map[pagefile.PageID]N) {
		if cached, ok := m[id]; ok {
			n = cached // first decode wins; writers see one canonical instance
		} else {
			m[id] = n
		}
	})
	return n, nil
}

// Alloc reserves a fresh page id.
func (s *Store[N]) Alloc() (pagefile.PageID, error) {
	return s.file.Allocate()
}

// Put writes the node through to its page and caches it.
func (s *Store[N]) Put(id pagefile.PageID, n N) error {
	bufp := s.bufs.Get().(*[]byte)
	size, err := s.codec.Encode(n, *bufp)
	if err == nil {
		err = s.file.WritePage(id, (*bufp)[:size])
	}
	s.bufs.Put(bufp)
	if err != nil {
		return err
	}
	s.shard(id).mutate(func(m map[pagefile.PageID]N) { m[id] = n })
	return nil
}

// DropCache empties the decoded cache, forcing decodes on subsequent Gets.
func (s *Store[N]) DropCache() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		m := make(map[pagefile.PageID]N)
		sh.m.Store(&m)
		sh.mu.Unlock()
	}
}
