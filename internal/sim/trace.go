// Package sim is a deterministic workload simulator for the access methods
// in this repository. A seeded generator materializes a trace of
// interleaved inserts, deletes and queries; the simulator drives each
// access method through the trace, differentially checks every result
// against a sequential-scan oracle, and — for the hybrid tree — injects
// probabilistic storage faults while asserting that every failed mutation
// left the tree invariant-clean and bit-identical in content. Everything
// is reproducible from (trace seed, fault seed): same seeds, same trace,
// same fault schedule, same final state, same digest.
package sim

import (
	"math"
	"math/rand"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
)

// OpKind enumerates trace operations.
type OpKind uint8

const (
	OpInsert OpKind = iota
	OpDelete
	OpBox
	OpRange
	OpKNN
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpBox:
		return "box"
	case OpRange:
		return "range"
	case OpKNN:
		return "knn"
	}
	return "?"
}

// Op is one simulated operation. Point is the inserted/deleted vector or
// the query center; Rect, Radius and K apply to their query kinds.
type Op struct {
	Kind   OpKind
	Point  geom.Point
	RID    uint64
	Rect   geom.Rect
	Radius float64
	K      int
}

// Query is the core.Query a box, range or k-NN op asks, under metric m (for
// the distance kinds) and budget b.
func (op Op) Query(m dist.Metric, b core.Budget) core.Query {
	switch op.Kind {
	case OpBox:
		return core.Query{Kind: core.Box, Rect: op.Rect, Budget: b}
	case OpRange:
		return core.Query{Kind: core.Range, Point: op.Point, Radius: op.Radius, Metric: m, Budget: b}
	}
	return core.Query{Kind: core.KNN, Point: op.Point, K: op.K, Metric: m, Budget: b}
}

// TraceConfig parameterizes trace generation.
type TraceConfig struct {
	Seed int64
	Ops  int
	Dim  int
	// Operation mix weights (normalized internally). Zero values take the
	// defaults 0.4 / 0.2 / 0.2 / 0.1 / 0.1.
	InsertW, DeleteW, BoxW, RangeW, KNNW float64
	// BoxSide is the nominal box-query side length (default 0.2); actual
	// sides jitter in [0.5, 1.5]× around it.
	BoxSide float64
	// MaxRadius bounds range-query radii (default 0.5).
	MaxRadius float64
	// MaxK bounds k-NN queries (default 10).
	MaxK int
	// Clusters is the number of Gaussian clusters in the data mixture
	// (default 8); 30% of inserts are uniform background noise.
	Clusters int
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.Ops == 0 {
		c.Ops = 10000
	}
	if c.Dim == 0 {
		c.Dim = 4
	}
	if c.InsertW == 0 && c.DeleteW == 0 && c.BoxW == 0 && c.RangeW == 0 && c.KNNW == 0 {
		c.InsertW, c.DeleteW, c.BoxW, c.RangeW, c.KNNW = 0.4, 0.2, 0.2, 0.1, 0.1
	}
	if c.BoxSide == 0 {
		c.BoxSide = 0.2
	}
	if c.MaxRadius == 0 {
		c.MaxRadius = 0.5
	}
	if c.MaxK == 0 {
		c.MaxK = 10
	}
	if c.Clusters == 0 {
		c.Clusters = 8
	}
	return c
}

// GenTrace materializes the full operation list for a configuration. The
// generator tracks the entries a fault-free run would hold live, so
// deletes mostly target existing records (with deliberate misses mixed in)
// and queries mostly center on populated space. Generation is a pure
// function of the config.
func GenTrace(cfg TraceConfig) []Op {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	centers := make([]geom.Point, cfg.Clusters)
	for i := range centers {
		c := make(geom.Point, cfg.Dim)
		for d := range c {
			c[d] = rng.Float32()
		}
		centers[i] = c
	}
	clamp := func(v float64) float32 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return float32(v)
	}
	randPoint := func() geom.Point {
		p := make(geom.Point, cfg.Dim)
		if rng.Float64() < 0.3 {
			for d := range p {
				p[d] = rng.Float32()
			}
			return p
		}
		c := centers[rng.Intn(len(centers))]
		for d := range p {
			p[d] = clamp(float64(c[d]) + rng.NormFloat64()*0.05)
		}
		return p
	}

	type rec struct {
		p   geom.Point
		rid uint64
	}
	var live []rec
	nextRID := uint64(0)
	total := cfg.InsertW + cfg.DeleteW + cfg.BoxW + cfg.RangeW + cfg.KNNW
	center := func() geom.Point {
		if len(live) > 0 && rng.Float64() < 0.7 {
			return live[rng.Intn(len(live))].p.Clone()
		}
		return randPoint()
	}

	ops := make([]Op, 0, cfg.Ops)
	for len(ops) < cfg.Ops {
		r := rng.Float64() * total
		switch {
		case r < cfg.InsertW || len(live) < 50:
			p := randPoint()
			ops = append(ops, Op{Kind: OpInsert, Point: p, RID: nextRID})
			live = append(live, rec{p, nextRID})
			nextRID++
		case r < cfg.InsertW+cfg.DeleteW:
			if rng.Float64() < 0.8 && len(live) > 0 {
				i := rng.Intn(len(live))
				ops = append(ops, Op{Kind: OpDelete, Point: live[i].p, RID: live[i].rid})
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				// A deliberate miss: a never-inserted (point, rid) pair.
				ops = append(ops, Op{Kind: OpDelete, Point: randPoint(), RID: math.MaxUint64 - nextRID})
			}
		case r < cfg.InsertW+cfg.DeleteW+cfg.BoxW:
			c := center()
			lo := make(geom.Point, cfg.Dim)
			hi := make(geom.Point, cfg.Dim)
			for d := 0; d < cfg.Dim; d++ {
				side := cfg.BoxSide * (0.5 + rng.Float64())
				lo[d] = float32(float64(c[d]) - side/2)
				hi[d] = float32(float64(c[d]) + side/2)
			}
			ops = append(ops, Op{Kind: OpBox, Rect: geom.Rect{Lo: lo, Hi: hi}})
		case r < cfg.InsertW+cfg.DeleteW+cfg.BoxW+cfg.RangeW:
			ops = append(ops, Op{Kind: OpRange, Point: center(), Radius: rng.Float64() * cfg.MaxRadius})
		default:
			ops = append(ops, Op{Kind: OpKNN, Point: center(), K: 1 + rng.Intn(cfg.MaxK)})
		}
	}
	return ops
}
