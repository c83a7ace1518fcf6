package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Collector receives finished traces. Ring (recent traces) and SlowRecorder
// (tail-latency traces) both implement it; Tee fans one traced operation out
// to several collectors.
type Collector interface {
	Collect(*Trace)
}

// SlowRecorder is the slow-query flight recorder: a Tracer that retains the
// full span trees (with per-stage attribution) of the slowest operations.
// A trace is admitted when its elapsed time reaches the threshold, and the
// recorder keeps the K slowest admitted traces in a min-heap keyed by
// elapsed time — so the retained set is "the worst K tails seen", not "the
// last K slow ones". A threshold of 0 makes it a pure top-K recorder.
//
// Recording is single-threaded per operation (the Trace is owned by its
// query); the recorder itself is touched once per finished trace, and only
// traces that beat the current floor take the mutex's slow path beyond a
// length check. Disabling the recorder is done by not installing it as a
// tracer — the query path then runs its usual zero-allocation untraced
// code.
type SlowRecorder struct {
	seq         atomic.Uint64
	thresholdNs atomic.Int64
	observed    atomic.Uint64 // finished traces offered to Collect
	admitted    atomic.Uint64 // traces that cleared threshold + floor

	k    int
	mu   sync.Mutex
	heap []*Trace // min-heap on Elapsed; heap[0] is the eviction floor
}

// NewSlowRecorder returns a recorder retaining the k slowest traces
// (minimum 1) at or above threshold.
func NewSlowRecorder(k int, threshold time.Duration) *SlowRecorder {
	if k < 1 {
		k = 1
	}
	r := &SlowRecorder{k: k}
	r.thresholdNs.Store(int64(threshold))
	return r
}

// StartTrace implements Tracer: every operation is traced; Collect decides
// at finish time whether the trace is slow enough to retain.
func (r *SlowRecorder) StartTrace(op string) *Trace {
	return &Trace{Op: op, Seq: r.seq.Add(1), Start: time.Now(), sink: r.Collect}
}

// Collect implements Collector: it admits t when its elapsed time reaches
// the threshold and beats the current K-th slowest retained trace.
func (r *SlowRecorder) Collect(t *Trace) {
	r.observed.Add(1)
	e := int64(t.Elapsed)
	if e < r.thresholdNs.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.heap) < r.k {
		r.heap = append(r.heap, t)
		r.siftUp(len(r.heap) - 1)
		r.admitted.Add(1)
		return
	}
	if e <= int64(r.heap[0].Elapsed) {
		return
	}
	r.heap[0] = t
	r.siftDown(0)
	r.admitted.Add(1)
}

func (r *SlowRecorder) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if r.heap[p].Elapsed <= r.heap[i].Elapsed {
			return
		}
		r.heap[p], r.heap[i] = r.heap[i], r.heap[p]
		i = p
	}
}

func (r *SlowRecorder) siftDown(i int) {
	n := len(r.heap)
	for {
		l, rgt, min := 2*i+1, 2*i+2, i
		if l < n && r.heap[l].Elapsed < r.heap[min].Elapsed {
			min = l
		}
		if rgt < n && r.heap[rgt].Elapsed < r.heap[min].Elapsed {
			min = rgt
		}
		if min == i {
			return
		}
		r.heap[i], r.heap[min] = r.heap[min], r.heap[i]
		i = min
	}
}

// Snapshot returns the retained traces, slowest first.
func (r *SlowRecorder) Snapshot() []*Trace {
	r.mu.Lock()
	out := make([]*Trace, len(r.heap))
	copy(out, r.heap)
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Elapsed > out[b].Elapsed })
	return out
}

// Observed returns how many finished traces the recorder has seen.
func (r *SlowRecorder) Observed() uint64 { return r.observed.Load() }

// tee is the fan-out Tracer Tee builds.
type tee struct {
	seq atomic.Uint64
	cs  []Collector
}

// Tee returns a Tracer delivering every finished trace to each collector —
// typically a Ring (recent queries) plus a SlowRecorder (tail queries), so
// one traced execution feeds both /debug/queries and /debug/slow. Nil
// collectors are skipped; with no non-nil collector it returns Nop().
func Tee(cs ...Collector) Tracer {
	kept := make([]Collector, 0, len(cs))
	for _, c := range cs {
		switch v := c.(type) {
		case nil:
			continue
		case *Ring:
			if v == nil {
				continue
			}
		case *SlowRecorder:
			if v == nil {
				continue
			}
		}
		kept = append(kept, c)
	}
	if len(kept) == 0 {
		return Nop()
	}
	return &tee{cs: kept}
}

// StartTrace implements Tracer.
func (t *tee) StartTrace(op string) *Trace {
	return &Trace{Op: op, Seq: t.seq.Add(1), Start: time.Now(), sink: t.deliver}
}

func (t *tee) deliver(tr *Trace) {
	for _, c := range t.cs {
		c.Collect(tr)
	}
}
