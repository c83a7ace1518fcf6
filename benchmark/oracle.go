package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
)

// response is the part of the server's JSON envelope the oracle reads.
type response struct {
	Neighbors []neighbor `json:"neighbors"`
	RIDs      []uint64   `json:"rids"`
}

type neighbor struct {
	RID  uint64  `json:"rid"`
	Dist float64 `json:"dist"`
}

// oracle checks kept responses against a brute-force scan of the vectors
// the benchmark generated. initial is what the index held when the pass
// began (bulk-loaded vectors plus stream entries inserted earlier); during
// is what the pass itself sent for insertion. A response read from some
// committed snapshot must be right for initial ∪ S for some S ⊆ during —
// with no concurrent inserts that is one exact answer, with them it is the
// bracket internal/sim's concurrent oracle uses.
type oracle struct {
	d       *dataSet
	initial []int // stream indexes present before the pass
	during  []int // stream indexes sent during the pass
}

// distEps absorbs the decimal round trip of a float64 distance; the metric
// itself is the server's, evaluated on the same float32 coordinates.
const distEps = 1e-9

func (o *oracle) vector(rid uint64) (geom.Point, bool) {
	n := uint64(len(o.d.base))
	switch {
	case rid < n:
		return o.d.base[rid], true
	case rid-n < uint64(len(o.d.stream)):
		return o.d.stream[rid-n], true
	}
	return nil, false
}

// scan calls fn(rid, vector, concurrent) for every vector that may be in
// the index: concurrent marks those inserted during the pass.
func (o *oracle) scan(fn func(rid uint64, p geom.Point, concurrent bool)) {
	for i, p := range o.d.base {
		fn(uint64(i), p, false)
	}
	for _, i := range o.initial {
		fn(uint64(o.d.streamRID(i)), o.d.stream[i], false)
	}
	for _, i := range o.during {
		fn(uint64(o.d.streamRID(i)), o.d.stream[i], true)
	}
}

func (o *oracle) mayHold(rid uint64) bool {
	n := uint64(len(o.d.base))
	if rid < n {
		return true
	}
	for _, set := range [][]int{o.initial, o.during} {
		i := sort.SearchInts(set, int(rid-n))
		if i < len(set) && set[i] == int(rid-n) {
			return true
		}
	}
	return false
}

// check verifies one kept response.
func (o *oracle) check(k kept) error {
	var resp response
	if err := json.Unmarshal(k.body, &resp); err != nil {
		return fmt.Errorf("%s #%d: bad response body: %v", k.req.kind, k.req.ref, err)
	}
	switch k.req.kind {
	case opKNN:
		return o.checkKNN(k.req, resp)
	case opRange:
		return o.checkRange(k.req, resp)
	case opBox, opPoint:
		return o.checkBox(k.req, resp)
	}
	return nil
}

// checkNeighbors verifies what every distance answer must satisfy: each
// rid one the index may hold, no rid twice, each reported distance the true
// distance of that rid's vector, and — for k-NN, whose answer is ordered —
// ascending distances.
func (o *oracle) checkNeighbors(r *request, resp response) error {
	q := o.d.anchors[r.ref]
	seen := make(map[uint64]bool, len(resp.Neighbors))
	for i, nb := range resp.Neighbors {
		if r.kind == opKNN && i > 0 && nb.Dist < resp.Neighbors[i-1].Dist {
			return fmt.Errorf("%s #%d: neighbors not sorted at %d", r.kind, r.ref, i)
		}
		p, ok := o.vector(nb.RID)
		if !ok || !o.mayHold(nb.RID) || seen[nb.RID] {
			return fmt.Errorf("%s #%d: unexpected or duplicate rid %d", r.kind, r.ref, nb.RID)
		}
		seen[nb.RID] = true
		if want := oracleMetric.Distance(q, p); math.Abs(want-nb.Dist) > distEps {
			return fmt.Errorf("%s #%d: rid %d reported at %g, true distance %g", r.kind, r.ref, nb.RID, nb.Dist, want)
		}
	}
	return nil
}

func (o *oracle) checkKNN(r *request, resp response) error {
	if err := o.checkNeighbors(r, resp); err != nil {
		return err
	}
	q := o.d.anchors[r.ref]
	// Best k distances over the initial contents (upper bracket) and over
	// everything that may have been inserted by then (lower bracket).
	upper, lower := newTopK(knnK), newTopK(knnK)
	o.scan(func(_ uint64, p geom.Point, concurrent bool) {
		dist := oracleMetric.Distance(q, p)
		lower.add(dist)
		if !concurrent {
			upper.add(dist)
		}
	})
	up, lo := upper.vals, lower.vals
	if len(resp.Neighbors) != len(up) {
		return fmt.Errorf("knn #%d: %d neighbors, want %d", r.ref, len(resp.Neighbors), len(up))
	}
	for i, nb := range resp.Neighbors {
		if nb.Dist > up[i]+distEps || nb.Dist < lo[i]-distEps {
			return fmt.Errorf("knn #%d: neighbor %d at %g outside [%g, %g]", r.ref, i, nb.Dist, lo[i], up[i])
		}
	}
	return nil
}

func (o *oracle) checkRange(r *request, resp response) error {
	if err := o.checkNeighbors(r, resp); err != nil {
		return err
	}
	q := o.d.anchors[r.ref]
	got := make(map[uint64]bool, len(resp.Neighbors))
	for _, nb := range resp.Neighbors {
		if nb.Dist > o.d.rangeRadius {
			return fmt.Errorf("range #%d: rid %d at %g beyond radius %g", r.ref, nb.RID, nb.Dist, o.d.rangeRadius)
		}
		got[nb.RID] = true
	}
	var err error
	o.scan(func(rid uint64, p geom.Point, concurrent bool) {
		if !concurrent && !got[rid] && oracleMetric.Distance(q, p) <= o.d.rangeRadius {
			err = fmt.Errorf("range #%d: missing rid %d", r.ref, rid)
		}
	})
	return err
}

func (o *oracle) checkBox(r *request, resp response) error {
	var q geom.Rect
	if r.kind == opPoint {
		q = geom.Rect{Lo: o.d.base[r.ref], Hi: o.d.base[r.ref]}
	} else {
		q = boxAround(o.d.anchors[r.ref], o.d.boxSide)
	}
	got := make(map[uint64]bool, len(resp.RIDs))
	for _, rid := range resp.RIDs {
		p, ok := o.vector(rid)
		if !ok || !o.mayHold(rid) || got[rid] || !q.Contains(p) {
			return fmt.Errorf("%s #%d: rid %d does not belong in the answer", r.kind, r.ref, rid)
		}
		got[rid] = true
	}
	var err error
	o.scan(func(rid uint64, p geom.Point, concurrent bool) {
		if !concurrent && !got[rid] && q.Contains(p) {
			err = fmt.Errorf("%s #%d: missing rid %d", r.kind, r.ref, rid)
		}
	})
	return err
}

// checkAll verifies every kept response on all CPUs (the timed window is
// over) and returns the number of mismatches with the first one found.
func (o *oracle) checkAll(ks []kept, workers int) (mismatches int, first error) {
	sort.Ints(o.initial)
	sort.Ints(o.during)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ks); i += workers {
				if err := o.check(ks[i]); err != nil {
					mu.Lock()
					mismatches++
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return mismatches, first
}

// lostWrites looks up every acknowledged insert in the recovered tree and
// returns how many are missing.
func lostWrites(t *core.Tree, d *dataSet, acked []int) (int, error) {
	lost := 0
	for _, i := range acked {
		rids, err := t.SearchPoint(d.stream[i])
		if err != nil {
			return lost, err
		}
		found := false
		for _, rid := range rids {
			found = found || rid == d.streamRID(i)
		}
		if !found {
			lost++
		}
	}
	return lost, nil
}

// topK keeps the k smallest values seen.
type topK struct {
	k    int
	vals []float64 // ascending
}

func newTopK(k int) *topK { return &topK{k: k, vals: make([]float64, 0, k+1)} }

func (t *topK) add(v float64) {
	if len(t.vals) == t.k && v >= t.vals[t.k-1] {
		return
	}
	i := sort.SearchFloat64s(t.vals, v)
	t.vals = append(t.vals, 0)
	copy(t.vals[i+1:], t.vals[i:])
	t.vals[i] = v
	if len(t.vals) > t.k {
		t.vals = t.vals[:t.k]
	}
}
