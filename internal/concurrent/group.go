package concurrent

import (
	"sync"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
)

// groupOp is one writer's queued mutation and its reply channel.
type groupOp struct {
	delete bool
	p      geom.Point
	rid    core.RecordID
	done   chan groupResult
}

type groupResult struct {
	found bool // Delete only
	err   error
}

// GroupCommitter amortizes the write-ahead log's fsync across concurrent
// writers. Callers' Insert/Delete calls queue behind the MVCC commit
// point; a single worker drains the queue and applies each batch inside
// one core.RunTx — one transaction, one commit record, one fsync — then
// fans the acknowledgement back out. Every acknowledged operation carries
// the same durability guarantee as a direct call: the shared fsync covers
// the whole batch, and a batch that fails durability rolls back and is
// retried operation by operation so each caller gets its own verdict.
//
// Without a transactional file underneath this still takes the writer lock
// once per batch, it just cannot amortize what doesn't exist.
type GroupCommitter struct {
	t        *Tree
	ch       chan *groupOp
	maxBatch int
	wg       sync.WaitGroup

	// mu guards closed and serializes every channel send against Close, so
	// a submit arriving while Close runs resolves to ErrClosed instead of a
	// send-on-closed-channel panic. A send that blocks on a full queue holds
	// mu, which only delays Close — the worker drains the queue regardless.
	mu     sync.Mutex
	closed bool

	batchSizes *obs.Histogram
	batches    *obs.Counter
}

// NewGroupCommitter starts the commit worker. maxBatch bounds how many
// queued operations one transaction may absorb (≤ 0 means 64).
func NewGroupCommitter(t *Tree, maxBatch int) *GroupCommitter {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	r := obs.Default()
	g := &GroupCommitter{
		t:          t,
		ch:         make(chan *groupOp, 4*maxBatch),
		maxBatch:   maxBatch,
		batchSizes: r.Histogram("wal_group_commit_batch_size"),
		batches:    r.Counter("wal_group_commit_batches_total"),
	}
	g.wg.Add(1)
	go g.run()
	return g
}

// Insert queues the insert and blocks until its group commits (or fails).
// After Close it returns ErrClosed. A vector the tree would refuse (wrong
// dimensionality, outside the data space: core.ErrBadVector) is refused
// here, before it is queued — inside a batch its failure would roll back
// every neighbour's work and re-run the batch one transaction at a time.
func (g *GroupCommitter) Insert(p geom.Point, rid core.RecordID) error {
	if err := g.t.tree.CheckVector(p); err != nil {
		return err
	}
	op := &groupOp{p: p, rid: rid, done: make(chan groupResult, 1)}
	if err := g.submit(op); err != nil {
		return err
	}
	return (<-op.done).err
}

// Delete queues the delete and blocks until its group commits (or fails).
// After Close it returns ErrClosed.
func (g *GroupCommitter) Delete(p geom.Point, rid core.RecordID) (bool, error) {
	op := &groupOp{delete: true, p: p, rid: rid, done: make(chan groupResult, 1)}
	if err := g.submit(op); err != nil {
		return false, err
	}
	res := <-op.done
	return res.found, res.err
}

func (g *GroupCommitter) submit(op *groupOp) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	g.ch <- op
	return nil
}

// Close stops admission (subsequent Insert/Delete calls return ErrClosed),
// lets the worker drain and commit every queued operation — each waiting
// caller still receives its verdict — and waits for the worker to exit.
func (g *GroupCommitter) Close() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.ch) // safe: submits hold g.mu, so no send can race the close
	}
	g.mu.Unlock()
	g.wg.Wait()
}

func (g *GroupCommitter) run() {
	defer g.wg.Done()
	for op := range g.ch {
		batch := []*groupOp{op}
		for len(batch) < g.maxBatch {
			select {
			case next, ok := <-g.ch:
				if !ok {
					g.commit(batch)
					return
				}
				batch = append(batch, next)
			default:
				goto full
			}
		}
	full:
		g.commit(batch)
	}
}

// commit applies one batch as a single transaction; on failure it retries
// each operation alone so acknowledgements stay per-operation exact.
func (g *GroupCommitter) commit(batch []*groupOp) {
	g.batches.Inc()
	g.batchSizes.Observe(int64(len(batch)))
	results := make([]groupResult, len(batch))
	g.t.mu.Lock()
	err := g.t.tree.RunTx(func() error {
		for i, op := range batch {
			if op.delete {
				found, err := g.t.tree.Delete(op.p, op.rid)
				if err != nil {
					return err
				}
				results[i] = groupResult{found: found}
			} else if err := g.t.tree.Insert(op.p, op.rid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil && len(batch) > 1 {
		// The whole batch rolled back; one bad operation must not fail its
		// neighbors. Re-run individually — each as its own transaction.
		for i, op := range batch {
			if op.delete {
				found, derr := g.t.tree.Delete(op.p, op.rid)
				results[i] = groupResult{found: found, err: derr}
			} else {
				results[i] = groupResult{err: g.t.tree.Insert(op.p, op.rid)}
			}
		}
		err = nil
	}
	g.t.mu.Unlock()
	for i, op := range batch {
		if err != nil {
			results[i] = groupResult{err: err}
		}
		op.done <- results[i]
	}
}
