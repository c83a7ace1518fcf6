package concurrent

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/wal"
)

// newWALTree builds a concurrent.Tree over the durable stack.
func newWALTree(t *testing.T, dim, pageSize int) (*Tree, *pagefile.CrashFile, *wal.MemLog, *pagefile.ChecksumFile) {
	t.Helper()
	inner := pagefile.NewCrashFile(pageSize)
	sum := pagefile.NewChecksumFile(inner)
	log := wal.NewMemLog()
	wf, _, err := wal.Open(sum, log, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(wf, core.Config{Dim: dim, PageSize: sum.PageSize()})
	if err != nil {
		t.Fatal(err)
	}
	return tree, inner, log, sum
}

// TestGroupCommitAmortizesFsync: a burst of concurrent writers, every
// write durable, with far fewer log fsyncs than operations. The tree's
// writer mutex is held while the burst queues, so the commit worker
// cannot outpace the producers and trivially commit one op per batch —
// without that, batch formation (and the assertion below) would be a
// scheduler coin-flip.
func TestGroupCommitAmortizesFsync(t *testing.T) {
	const dim, pageSize = 3, 512
	const total = 400
	tree, inner, log, _ := newWALTree(t, dim, pageSize)

	fsyncs := obs.Default().Counter("wal_fsyncs_total")
	commits := obs.Default().Counter("wal_commits_total")
	fsyncs0, commits0 := fsyncs.Value(), commits.Value()

	g := NewGroupCommitter(tree, 64)
	tree.mu.Lock()
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < total; i++ {
		p := geom.Point{float32(rng.Float64()), float32(rng.Float64()), float32(rng.Float64())}
		wg.Add(1)
		go func(i int, p geom.Point) {
			defer wg.Done()
			if err := g.Insert(p, core.RecordID(i+1)); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}(i, p)
	}
	// Let the queue saturate before the worker may commit anything.
	deadline := time.Now().Add(10 * time.Second)
	for len(g.ch) < cap(g.ch) {
		if time.Now().After(deadline) {
			tree.mu.Unlock()
			t.Fatalf("queue never filled: %d/%d", len(g.ch), cap(g.ch))
		}
		time.Sleep(time.Millisecond)
	}
	tree.mu.Unlock()
	wg.Wait()
	g.Close()

	if got := tree.Size(); got != total {
		t.Fatalf("size %d, want %d", got, total)
	}
	dFsyncs := fsyncs.Value() - fsyncs0
	dCommits := commits.Value() - commits0
	if dCommits == 0 || dFsyncs == 0 {
		t.Fatalf("no commits (%d) or fsyncs (%d) recorded", dCommits, dFsyncs)
	}
	if dFsyncs > total/4 {
		t.Fatalf("fsyncs %d not amortized over %d ops", dFsyncs, total)
	}

	// Everything acknowledged must survive a crash with no checkpoint.
	inner.Crash(50)
	log.Crash(51)
	sum := pagefile.NewChecksumFile(inner)
	wf, rec, err := wal.Open(sum, log, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open after crash: %v", err)
	}
	if rec.Txs == 0 {
		t.Fatalf("no transactions replayed: %+v", rec)
	}
	recovered, err := Open(wf, core.Config{Dim: dim, PageSize: sum.PageSize()})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	if got := recovered.Size(); got != total {
		t.Fatalf("recovered size %d, want %d", got, total)
	}
	if err := recovered.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

// TestGroupCommitMixedOpsWithReaders: inserts and deletes through the
// committer while searches run lock-free; final contents must be exact.
func TestGroupCommitMixedOpsWithReaders(t *testing.T) {
	const dim, pageSize = 2, 512
	tree, _, _, _ := newWALTree(t, dim, pageSize)
	g := NewGroupCommitter(tree, 16)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			q := geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: q}); err != nil {
					t.Errorf("box search: %v", err)
					return
				}
			}
		}()
	}

	const n = 200
	pts := make([]geom.Point, n)
	rng := rand.New(rand.NewSource(99))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		pts[i] = geom.Point{float32(rng.Float64()), float32(rng.Float64())}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := g.Insert(pts[i], core.RecordID(i+1)); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	// Delete the even half concurrently.
	for i := 0; i < n; i += 2 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			found, err := g.Delete(pts[i], core.RecordID(i+1))
			if err != nil {
				t.Errorf("delete %d: %v", i, err)
			} else if !found {
				t.Errorf("delete %d: not found", i)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	g.Close()

	if got := tree.Size(); got != n/2 {
		t.Fatalf("size %d, want %d", got, n/2)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Exact content check against the surviving odd half.
	want := map[core.RecordID]bool{}
	for i := 1; i < n; i += 2 {
		want[core.RecordID(i+1)] = true
	}
	got, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for _, e := range got {
		if !want[e.RID] {
			t.Fatalf("unexpected entry %v", e)
		}
	}
	_ = fmt.Sprint()
}

// TestColdCacheReadersRaceGroupCommit is the regression test for the
// unguarded WAL overlay: after a reopen the node cache is cold, so
// lock-free searches miss and read through the wal.File (overlay lookup)
// while the group committer's writes mutate the overlay. Run under -race
// this used to report concurrent map access; without -race it could fatal
// with "concurrent map read and map write".
func TestColdCacheReadersRaceGroupCommit(t *testing.T) {
	const dim, pageSize = 2, 512
	tree, inner, log, _ := newWALTree(t, dim, pageSize)

	// Seed enough points that the tree spans many pages, then crash and
	// reopen: recovery repopulates the overlay, the node cache starts empty.
	rng := rand.New(rand.NewSource(7))
	const seeded = 300
	for i := 0; i < seeded; i++ {
		p := geom.Point{float32(rng.Float64()), float32(rng.Float64())}
		if err := tree.Insert(p, core.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	inner.Crash(60)
	log.Crash(61)
	sum := pagefile.NewChecksumFile(inner)
	wf, rec, err := wal.Open(sum, log, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open after crash: %v", err)
	}
	if rec.Txs == 0 {
		t.Fatalf("no transactions replayed: %+v", rec)
	}
	cold, err := Open(wf, core.Config{Dim: dim, PageSize: sum.PageSize()})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}

	g := NewGroupCommitter(cold, 16)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := geom.Point{float32(rng.Float64() * 0.5), float32(rng.Float64() * 0.5)}
				q := geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + 0.5, lo[1] + 0.5}}
				if _, err := cold.Search(context.Background(), core.Query{Kind: core.Box, Rect: q}); err != nil {
					t.Errorf("box search: %v", err)
					return
				}
			}
		}(r)
	}

	const extra = 200
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		p := geom.Point{float32(rng.Float64()), float32(rng.Float64())}
		wg.Add(1)
		go func(i int, p geom.Point) {
			defer wg.Done()
			if err := g.Insert(p, core.RecordID(seeded+i+1)); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}(i, p)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	g.Close()

	if got := cold.Size(); got != seeded+extra {
		t.Fatalf("size %d, want %d", got, seeded+extra)
	}
	if err := cold.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestGroupCommitCloseDrainsInFlight is the shutdown-ordering hazard test:
// many writers submit while Close races them. Every operation must resolve
// to exactly one verdict — committed (and then durable/visible) or
// ErrClosed — and nothing may panic with send-on-closed-channel, which is
// what the pre-fix unguarded `g.ch <- op` did when a submit lost the race.
func TestGroupCommitCloseDrainsInFlight(t *testing.T) {
	const dim, pageSize = 2, 512
	const writers = 64
	tree, _, _, _ := newWALTree(t, dim, pageSize)

	g := NewGroupCommitter(tree, 8)
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, writers)
	for i := range pts {
		pts[i] = geom.Point{float32(rng.Float64()), float32(rng.Float64())}
	}

	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = g.Insert(pts[i], core.RecordID(i+1))
		}(i)
	}
	close(start)
	// Close concurrently with the submit burst: some operations land before
	// the channel closes, the rest must get ErrClosed — never a panic.
	g.Close()
	wg.Wait()

	committed := 0
	for i, err := range errs {
		switch {
		case err == nil:
			committed++
		case errors.Is(err, ErrClosed):
		default:
			t.Fatalf("writer %d: unexpected verdict %v", i, err)
		}
	}
	if got := tree.Size(); got != committed {
		t.Fatalf("tree size %d but %d inserts acknowledged", got, committed)
	}
	// Post-close submits keep resolving (no hang, no panic).
	if err := g.Insert(pts[0], core.RecordID(9999)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Insert: err = %v, want ErrClosed", err)
	}
	if _, err := g.Delete(pts[0], core.RecordID(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Delete: err = %v, want ErrClosed", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestGroupCommitBadVectorCostsNoRollback: an insert the tree would refuse
// (outside the data space, wrong dimensionality) is turned away before it is
// queued, so it cannot roll back the batch it would have joined. A rolled
// back batch is re-run one transaction per operation, so "no rollback" is
// observable as: no more commits than batches. The tree's writer mutex is
// held while the burst queues — as in TestGroupCommitAmortizesFsync — so the
// bad ops arrive while the good ones are forming batches.
func TestGroupCommitBadVectorCostsNoRollback(t *testing.T) {
	const dim, pageSize = 2, 512
	const good, maxBatch = 100, 32
	tree, _, _, _ := newWALTree(t, dim, pageSize)
	commits := obs.Default().Counter("wal_commits_total")
	batches := obs.Default().Counter("wal_group_commit_batches_total")
	commits0, batches0 := commits.Value(), batches.Value()

	g := NewGroupCommitter(tree, maxBatch)
	tree.mu.Lock()
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < good; i++ {
		p := geom.Point{float32(rng.Float64()), float32(rng.Float64())}
		wg.Add(1)
		go func(i int, p geom.Point) {
			defer wg.Done()
			if err := g.Insert(p, core.RecordID(i+1)); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}(i, p)
	}
	for _, bad := range []geom.Point{{2, 2}, {0.5}} {
		wg.Add(1)
		go func(bad geom.Point) {
			defer wg.Done()
			if err := g.Insert(bad, 9999); !errors.Is(err, core.ErrBadVector) {
				t.Errorf("Insert(%v) = %v, want core.ErrBadVector", bad, err)
			}
		}(bad)
	}
	// Every good op is queued once the channel holds all of them but the
	// one batch the worker may already have taken.
	deadline := time.Now().Add(10 * time.Second)
	for len(g.ch) < good-maxBatch {
		if time.Now().After(deadline) {
			tree.mu.Unlock()
			t.Fatalf("queue never filled: %d/%d", len(g.ch), good-maxBatch)
		}
		time.Sleep(time.Millisecond)
	}
	tree.mu.Unlock()
	wg.Wait()

	nBatches, nCommits := batches.Value()-batches0, commits.Value()-commits0
	if nBatches == 0 || nBatches > good/4 {
		t.Fatalf("%d batches for %d ops: the burst did not batch", nBatches, good)
	}
	if nCommits > nBatches {
		t.Fatalf("%d commits for %d batches: a batch was rolled back and re-run op by op", nCommits, nBatches)
	}
	// Deleting a vector that cannot be in the index is a miss, not an error.
	if found, err := g.Delete(geom.Point{2, 2}, 9999); err != nil || found {
		t.Fatalf("Delete of an out-of-space vector = %v, %v; want false, nil", found, err)
	}
	g.Close()
	if got := tree.Size(); got != good {
		t.Fatalf("size %d, want %d", got, good)
	}
}

// TestWriteMetricsCountGroupCommits: every logical Insert and Delete is
// counted and timed once, whether it runs alone, batched by the
// GroupCommitter or inside update, and every rolled back transaction counts
// one rollback. Delete's orphan reinsertions are reinserts, not inserts.
func TestWriteMetricsCountGroupCommits(t *testing.T) {
	const dim, pageSize = 2, 512
	tree, _, _, _ := newWALTree(t, dim, pageSize)
	r := obs.Default()
	inserts, deletes := r.Counter("core_inserts_total"), r.Counter("core_deletes_total")
	rollbacks, reinserts := r.Counter("core_rollbacks_total"), r.Counter("core_reinserts_total")
	insertNs, deleteNs := r.Histogram(`core_mutation_ns{op="insert"}`), r.Histogram(`core_mutation_ns{op="delete"}`)
	type tally struct{ ins, del, insNs, delNs, rb uint64 }
	read := func() tally {
		return tally{inserts.Value(), deletes.Value(), insertNs.Count(), deleteNs.Count(), rollbacks.Value()}
	}
	check := func(step string, before tally, ins, del, rb uint64) {
		t.Helper()
		now := read()
		got := tally{now.ins - before.ins, now.del - before.del, now.insNs - before.insNs,
			now.delNs - before.delNs, now.rb - before.rb}
		if want := (tally{ins, del, ins, del, rb}); got != want {
			t.Fatalf("%s: counted (inserts, deletes, insert ns, delete ns, rollbacks) %v, want %v", step, got, want)
		}
	}

	before := read()
	if err := tree.Insert(geom.Point{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	check("plain Insert", before, 1, 0, 0)

	g := NewGroupCommitter(tree, 0)
	defer g.Close()
	const n = 300
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, n)
	before = read()
	for i := range pts {
		pts[i] = geom.Point{float32(rng.Float64()), float32(rng.Float64())}
		if err := g.Insert(pts[i], core.RecordID(i+2)); err != nil {
			t.Fatal(err)
		}
	}
	check("GroupCommitter.Insert", before, n, 0, 0)

	// Deleting most records underfills data nodes, whose survivors Delete
	// reinserts.
	before, reinserted := read(), reinserts.Value()
	for i := 0; i < n-20; i++ {
		if found, err := g.Delete(pts[i], core.RecordID(i+2)); err != nil || !found {
			t.Fatalf("delete %d: %v, %v", i, found, err)
		}
	}
	check("GroupCommitter.Delete", before, 0, n-20, 0)
	if reinserts.Value() == reinserted {
		t.Fatal("no orphan was reinserted: the case is not exercised")
	}

	before = read()
	if found, err := tree.update(pts[n-1], geom.Point{0.25, 0.75}, core.RecordID(n+1)); err != nil || !found {
		t.Fatalf("Update: %v, %v", found, err)
	}
	check("Update", before, 1, 1, 0)

	// The new vector is refused before its Insert starts, so the Delete
	// is the only operation counted, and the transaction rolls back.
	before = read()
	if _, err := tree.update(pts[n-2], geom.Point{2, 2}, core.RecordID(n)); !errors.Is(err, core.ErrBadVector) {
		t.Fatalf("Update outside the space = %v, want core.ErrBadVector", err)
	}
	check("rolled back Update", before, 0, 1, 1)
}
