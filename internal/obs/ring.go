package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Ring is a Tracer that keeps the most recent finished traces in a
// fixed-size ring buffer, for the /debug/queries endpoint. Traces are
// recorded single-threaded by their owning query and only touch the ring
// (one mutex acquisition) when they finish.
type Ring struct {
	seq   atomic.Uint64
	mu    sync.Mutex
	buf   []*Trace
	next  int
	total uint64
}

// NewRing returns a ring tracer retaining the last capacity traces
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]*Trace, 0, capacity)}
}

// StartTrace implements Tracer: every operation is traced and delivered to
// the ring when finished.
func (r *Ring) StartTrace(op string) *Trace {
	return &Trace{Op: op, Seq: r.seq.Add(1), Start: time.Now(), sink: r.Collect}
}

// Collect implements Collector: it retains t, evicting the oldest retained
// trace once the ring is full. It is the sink StartTrace attaches, exported
// so a Tee can deliver one trace to several collectors.
func (r *Ring) Collect(t *Trace) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next] = t
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (r *Ring) Snapshot() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		// Walk backwards from the slot most recently written.
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// Total returns how many traces have finished into the ring over its
// lifetime (including ones since overwritten).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
