// Package pqueue provides the priority queues used by best-first
// nearest-neighbor search (Hjaltason–Samet): a min-heap of search-frontier
// entries ordered by MINDIST, and a bounded max-heap that maintains the k
// best candidates seen so far.
package pqueue

// Min is a binary min-heap of values with float64 priorities.
// The zero value is an empty, ready-to-use queue.
type Min[T any] struct {
	vals []T
	pris []float64
}

// Len returns the number of queued items.
func (q *Min[T]) Len() int { return len(q.vals) }

// Reset empties the queue in place, keeping the backing storage for reuse.
// Remaining values are zeroed so a pooled queue never keeps the previous
// query's values reachable.
func (q *Min[T]) Reset() {
	var zero T
	for i := range q.vals {
		q.vals[i] = zero
	}
	q.vals = q.vals[:0]
	q.pris = q.pris[:0]
}

// Push adds value with the given priority.
func (q *Min[T]) Push(value T, priority float64) {
	q.vals = append(q.vals, value)
	q.pris = append(q.pris, priority)
	i := len(q.vals) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.pris[parent] <= q.pris[i] {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// Pop removes and returns the item with the smallest priority. It must not
// be called on an empty queue.
func (q *Min[T]) Pop() (T, float64) {
	value, priority := q.vals[0], q.pris[0]
	last := len(q.vals) - 1
	q.swap(0, last)
	var zero T
	q.vals[last] = zero // release for GC
	q.vals = q.vals[:last]
	q.pris = q.pris[:last]
	q.siftDown(0)
	return value, priority
}

func (q *Min[T]) swap(i, j int) {
	q.vals[i], q.vals[j] = q.vals[j], q.vals[i]
	q.pris[i], q.pris[j] = q.pris[j], q.pris[i]
}

func (q *Min[T]) siftDown(i int) {
	n := len(q.vals)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.pris[l] < q.pris[small] {
			small = l
		}
		if r < n && q.pris[r] < q.pris[small] {
			small = r
		}
		if small == i {
			return
		}
		q.swap(i, small)
		i = small
	}
}

// KBest keeps the k items with the smallest priorities seen so far, in a
// max-heap so the current worst member is O(1) to inspect — the pruning
// bound during k-NN search.
type KBest[T any] struct {
	k    int
	vals []T
	pris []float64
}

// NewKBest returns a collector for the k smallest-priority items. k must be
// positive.
func NewKBest[T any](k int) *KBest[T] {
	if k < 1 {
		panic("pqueue: KBest needs k >= 1")
	}
	return &KBest[T]{k: k}
}

// Len returns how many items are currently held (at most k).
func (q *KBest[T]) Len() int { return len(q.vals) }

// K returns the collector's capacity k.
func (q *KBest[T]) K() int { return q.k }

// Reset empties the collector in place (k is unchanged), keeping the backing
// storage for reuse. Held values are zeroed so a pooled collector never keeps
// the previous query's values reachable.
func (q *KBest[T]) Reset() {
	var zero T
	for i := range q.vals {
		q.vals[i] = zero
	}
	q.vals = q.vals[:0]
	q.pris = q.pris[:0]
}

// Full reports whether k items are held.
func (q *KBest[T]) Full() bool { return len(q.vals) == q.k }

// Bound returns the current pruning bound: the largest held priority when
// full, +Inf-like behavior otherwise is the caller's concern — Offer handles
// the not-full case itself.
func (q *KBest[T]) Bound() float64 { return q.pris[0] }

// Offer considers (value, priority); it is kept iff fewer than k items are
// held or priority beats the current worst. Returns whether it was kept.
func (q *KBest[T]) Offer(value T, priority float64) bool {
	if len(q.vals) < q.k {
		q.push(value, priority)
		return true
	}
	if priority >= q.pris[0] {
		return false
	}
	q.vals[0], q.pris[0] = value, priority
	q.siftDown(0)
	return true
}

// Sorted drains the collector and returns the items in ascending priority
// order along with their priorities.
func (q *KBest[T]) Sorted() ([]T, []float64) {
	n := len(q.vals)
	vals := make([]T, n)
	pris := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		vals[i], pris[i] = q.pop()
	}
	return vals, pris
}

// AppendSorted drains the collector, appending its items to dst in ascending
// priority order, and returns the extended slice. Unlike Sorted it allocates
// nothing beyond what growing dst requires, so a caller that recycles its
// result buffer completes the drain allocation-free.
func (q *KBest[T]) AppendSorted(dst []T) []T {
	n := len(q.vals)
	base := len(dst)
	dst = append(dst, q.vals...) // grow by n; overwritten in order below
	for i := n - 1; i >= 0; i-- {
		dst[base+i], _ = q.pop()
	}
	return dst
}

func (q *KBest[T]) push(value T, priority float64) {
	q.vals = append(q.vals, value)
	q.pris = append(q.pris, priority)
	i := len(q.vals) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.pris[parent] >= q.pris[i] {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *KBest[T]) pop() (T, float64) {
	value, priority := q.vals[0], q.pris[0]
	last := len(q.vals) - 1
	q.swap(0, last)
	var zero T
	q.vals[last] = zero
	q.vals = q.vals[:last]
	q.pris = q.pris[:last]
	q.siftDown(0)
	return value, priority
}

func (q *KBest[T]) swap(i, j int) {
	q.vals[i], q.vals[j] = q.vals[j], q.vals[i]
	q.pris[i], q.pris[j] = q.pris[j], q.pris[i]
}

func (q *KBest[T]) siftDown(i int) {
	n := len(q.vals)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && q.pris[l] > q.pris[big] {
			big = l
		}
		if r < n && q.pris[r] > q.pris[big] {
			big = r
		}
		if big == i {
			return
		}
		q.swap(i, big)
		i = big
	}
}
