package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// ConcurrentConfig drives the reader-during-writer-burst differential
// oracle: a single writer inserts records 0,1,2,... in order while readers
// continuously search with no locks, and every result is checked against
// what some committed snapshot must contain. The workload itself is
// deterministic (points and query centers derive from Seed); only the
// interleaving — which snapshot each search lands on — varies between runs,
// and the oracle is exactly the property that must hold for every possible
// interleaving.
type ConcurrentConfig struct {
	Seed     int64
	Dim      int // default 4
	Inserts  int // records the writer inserts (default 1000)
	Readers  int // concurrent reader goroutines (default 4)
	PageSize int // default 512
	KNNK     int // k for the k-NN bracket checks (default 5)
}

func (c ConcurrentConfig) withDefaults() ConcurrentConfig {
	if c.Dim <= 0 {
		c.Dim = 4
	}
	if c.Inserts <= 0 {
		c.Inserts = 1000
	}
	if c.Readers <= 0 {
		c.Readers = 4
	}
	if c.PageSize <= 0 {
		c.PageSize = 512
	}
	if c.KNNK <= 0 {
		c.KNNK = 5
	}
	return c
}

// ConcurrentResult summarizes one oracle run.
type ConcurrentResult struct {
	Snapshots   int // box-search snapshots verified across all readers
	KNNChecked  int // k-NN results bracket-checked
	MinPrefix   int // smallest snapshot any reader observed
	MaxPrefix   int // largest snapshot any reader observed
	FinalSize   int
	FinalEpochs uint64 // published commit epoch at the end
}

// concurrentPoint is record i's deterministic vector under seed.
func concurrentPoint(seed int64, i, dim int) geom.Point {
	rng := rand.New(rand.NewSource(seed ^ int64(0x9E3779B9*uint32(i+1))))
	p := make(geom.Point, dim)
	for d := range p {
		p[d] = rng.Float32()
	}
	return p
}

// RunConcurrent executes the concurrent differential oracle and returns its
// summary, or the first oracle violation as an error.
//
// Oracles, per reader iteration:
//
//  1. Prefix: a full-space box search must return exactly {0..k-1} for some
//     k — the records of one committed snapshot. A gap or duplicate means
//     the search mixed two versions of a node.
//  2. Monotonicity: successive searches by one reader pin successive (or
//     identical) versions, so k never decreases within a reader.
//  3. k-NN bracket: a k-NN result that pins some snapshot at least as new
//     as the preceding box search must be at least as good, neighbor for
//     neighbor, as the true k-NN over {0..k-1}, and no better than the true
//     k-NN over all records — both computed from the deterministic points.
func RunConcurrent(cfg ConcurrentConfig) (ConcurrentResult, error) {
	cfg = cfg.withDefaults()
	file := pagefile.NewMemFile(cfg.PageSize)
	tree, err := concurrent.New(file, core.Config{Dim: cfg.Dim, PageSize: cfg.PageSize})
	if err != nil {
		return ConcurrentResult{}, err
	}

	pts := make([]geom.Point, cfg.Inserts)
	for i := range pts {
		pts[i] = concurrentPoint(cfg.Seed, i, cfg.Dim)
	}
	space := geom.Rect{Lo: make(geom.Point, cfg.Dim), Hi: make(geom.Point, cfg.Dim)}
	for d := 0; d < cfg.Dim; d++ {
		space.Lo[d], space.Hi[d] = 0, 1
	}

	// kthBest returns the sorted distances of the true k nearest neighbors
	// of q among the first n deterministic points.
	metric := dist.L2()
	kthBest := func(q geom.Point, n, k int) []float64 {
		ds := make([]float64, n)
		for i := 0; i < n; i++ {
			ds[i] = metric.Distance(q, pts[i])
		}
		sort.Float64s(ds)
		if k > n {
			k = n
		}
		return ds[:k]
	}

	var (
		done    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		res     ConcurrentResult
		firstVi error
	)
	res.MinPrefix = cfg.Inserts + 1
	violate := func(err error) {
		mu.Lock()
		if firstVi == nil {
			firstVi = err
		}
		mu.Unlock()
		done.Store(true)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < cfg.Inserts && !done.Load(); i++ {
			if err := tree.Insert(pts[i], core.RecordID(i)); err != nil {
				violate(fmt.Errorf("sim: concurrent writer insert %d: %w", i, err))
				return
			}
		}
	}()

	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000+r)))
			last := -1
			snapshots, knns := 0, 0
			minP, maxP := cfg.Inserts+1, 0
			// The loop tests done after its body, so every reader verifies
			// at least one snapshot even when the writer finishes first.
			for more := true; more; more = !done.Load() {
				es, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: space})
				if err != nil {
					violate(fmt.Errorf("sim: concurrent reader %d box: %w", r, err))
					return
				}
				k := len(es)
				seen := make([]bool, cfg.Inserts)
				for _, e := range es {
					if int(e.RID) >= cfg.Inserts || seen[e.RID] {
						violate(fmt.Errorf("sim: reader %d: unexpected or duplicate rid %d in %d-record snapshot", r, e.RID, k))
						return
					}
					seen[e.RID] = true
				}
				for i := 0; i < k; i++ {
					if !seen[i] {
						violate(fmt.Errorf("sim: reader %d: snapshot of %d records is missing rid %d (mixed versions)", r, k, i))
						return
					}
				}
				if k < last {
					violate(fmt.Errorf("sim: reader %d: snapshot went backwards, %d after %d", r, k, last))
					return
				}
				last = k
				snapshots++
				if k < minP {
					minP = k
				}
				if k > maxP {
					maxP = k
				}

				if k >= cfg.KNNK {
					q := make(geom.Point, cfg.Dim)
					for d := range q {
						q[d] = rng.Float32()
					}
					ns, err := tree.Search(context.Background(), core.Query{Kind: core.KNN, Point: q, K: cfg.KNNK, Metric: metric})
					if err != nil {
						violate(fmt.Errorf("sim: concurrent reader %d knn: %w", r, err))
						return
					}
					upper := kthBest(q, k, cfg.KNNK)           // true k-NN over the older snapshot
					lower := kthBest(q, cfg.Inserts, cfg.KNNK) // true k-NN over everything
					const eps = 1e-6
					for i, n := range ns {
						if n.Dist > upper[i]+eps || n.Dist < lower[i]-eps {
							violate(fmt.Errorf("sim: reader %d: knn neighbor %d dist %g outside snapshot bracket [%g, %g]",
								r, i, n.Dist, lower[i], upper[i]))
							return
						}
					}
					knns++
				}
			}
			mu.Lock()
			res.Snapshots += snapshots
			res.KNNChecked += knns
			if minP < res.MinPrefix {
				res.MinPrefix = minP
			}
			if maxP > res.MaxPrefix {
				res.MaxPrefix = maxP
			}
			mu.Unlock()
		}(r)
	}

	wg.Wait()
	if firstVi != nil {
		return ConcurrentResult{}, firstVi
	}
	if err := tree.CheckInvariants(); err != nil {
		return ConcurrentResult{}, fmt.Errorf("sim: post-run audit: %w", err)
	}
	if got := tree.Size(); got != cfg.Inserts {
		return ConcurrentResult{}, fmt.Errorf("sim: final size %d, want %d", got, cfg.Inserts)
	}
	res.FinalSize = cfg.Inserts
	epoch, _, _ := tree.SnapshotInfo()
	res.FinalEpochs = epoch
	return res, nil
}
