package core

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"testing"

	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

// contents dumps the tree's full (rid, point) multiset via a whole-space
// box search, canonically ordered.
func contents(t *testing.T, tree *Tree) []Entry {
	t.Helper()
	es, err := tree.SearchBox(tree.Config().Space)
	if err != nil {
		t.Fatalf("full-space search: %v", err)
	}
	sort.Slice(es, func(a, b int) bool { return es[a].RID < es[b].RID })
	return es
}

func sameContents(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].RID != b[i].RID || !a[i].Point.Equal(b[i].Point) {
			return false
		}
	}
	return true
}

// opTrace records the kind of every page operation attempted through it —
// (A)llocate, (W)ritePage, (F)ree — so the fuse sweeps can check where in a
// mutation storage is touched.
type opTrace struct {
	pagefile.File
	ops []byte
}

func (f *opTrace) Allocate() (pagefile.PageID, error) {
	f.ops = append(f.ops, 'A')
	return f.File.Allocate()
}

func (f *opTrace) WritePage(id pagefile.PageID, data []byte) error {
	f.ops = append(f.ops, 'W')
	return f.File.WritePage(id, data)
}

func (f *opTrace) Free(id pagefile.PageID) error {
	f.ops = append(f.ops, 'F')
	return f.File.Free(id)
}

var deferredWriteOrder = regexp.MustCompile(`^A*W*F*$`)

// checkDeferredWrites verifies one swept mutation's operations: a mutation
// allocates while it runs, writes only when it seals, and frees only after
// that (commit) or after giving up (rollback). kth is the operation the
// fuse failed (out of range if none); when that fault came before the seal,
// the mutation must not have written a page.
func checkDeferredWrites(t *testing.T, ops []byte, kth int, pageWrites uint64) {
	t.Helper()
	if !deferredWriteOrder.Match(ops) {
		t.Fatalf("page operations %q: want every allocation before the first write", ops)
	}
	if kth < len(ops) && ops[kth] == 'A' && pageWrites != 0 {
		t.Fatalf("fault before the seal, yet %d pages were written (%q)", pageWrites, ops)
	}
}

// checkPageAccounting verifies that every live page of the file is owned:
// the metadata page, one page per tree node, and the pages LeakedPages
// reports (which the next Flush retries). Any other live page is a leak
// that nothing tracks. Only meaningful on a file the tree has had to itself
// since New (a reopened file has forgotten its free list).
func checkPageAccounting(t *testing.T, tree *Tree) {
	t.Helper()
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	owned := 1 + st.DataNodes + st.IndexNodes + tree.LeakedPages()
	if live := tree.file.NumPages(); live != owned {
		t.Fatalf("file has %d live pages, tree owns %d (1 meta + %d data + %d index + %d leaked)",
			live, owned, st.DataNodes, st.IndexNodes, tree.LeakedPages())
	}
}

// TestInsertFaultAtomicity sweeps a fault fuse across every I/O position of
// an Insert: for each k, the k-th page operation fails, and the tree must
// be invariant-clean and content-identical to its pre-insert state. Healing
// the file and retrying must then succeed exactly once.
func TestInsertFaultAtomicity(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(71))
	randPoint := func() geom.Point {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		return p
	}
	for k := 0; k < 40; k++ {
		k := k
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			fault := pagefile.NewChaosFile(pagefile.NewMemFile(256), pagefile.ChaosProfile{}, 1)
			trace := &opTrace{File: fault}
			tree, err := New(trace, Config{Dim: dim, PageSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			// Enough data that inserts regularly split nodes.
			prng := rand.New(rand.NewSource(73))
			for i := 0; i < 300; i++ {
				p := make(geom.Point, dim)
				for d := range p {
					p[d] = prng.Float32()
				}
				if err := tree.Insert(p, RecordID(i)); err != nil {
					t.Fatal(err)
				}
			}
			before := contents(t, tree)
			p := randPoint()
			trace.ops = nil
			writes := fault.Stats().Writes
			fault.SetRemaining(k)
			err = tree.Insert(p, RecordID(10_000+k))
			fault.SetRemaining(1 << 30)
			checkDeferredWrites(t, trace.ops, k, fault.Stats().Writes-writes)
			if err == nil {
				// The insert finished within budget; nothing to roll back.
				if tree.Size() != len(before)+1 {
					t.Fatalf("size = %d after clean insert of %d", tree.Size(), len(before))
				}
				return
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("invariants broken after failed insert: %v", err)
			}
			if got := contents(t, tree); !sameContents(got, before) {
				t.Fatalf("contents changed by failed insert: %d entries vs %d", len(got), len(before))
			}
			if tree.Size() != len(before) {
				t.Fatalf("size = %d, want %d after rollback", tree.Size(), len(before))
			}
			// Retry on the healed file: exactly one copy lands.
			if err := tree.Insert(p, RecordID(10_000+k)); err != nil {
				t.Fatalf("retry after heal: %v", err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			after := contents(t, tree)
			if len(after) != len(before)+1 {
				t.Fatalf("retry landed %d entries, want 1", len(after)-len(before))
			}
		})
	}
}

// TestDeleteFaultAtomicity is the eliminate-and-reinsert fault sweep
// (Section 3.5): deletes are aimed at a tree whose leaves sit near minimum
// fill, so most trigger node elimination and orphan reinsertion. A fault
// anywhere in that sequence — including partway through reinserting
// orphans — must leave every record present exactly once.
func TestDeleteFaultAtomicity(t *testing.T) {
	const dim = 4
	const n = 400
	for k := 0; k < 60; k++ {
		k := k
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			fault := pagefile.NewChaosFile(pagefile.NewMemFile(256), pagefile.ChaosProfile{}, 1)
			trace := &opTrace{File: fault}
			tree, err := New(trace, Config{Dim: dim, PageSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			prng := rand.New(rand.NewSource(79))
			pts := make([]geom.Point, n)
			for i := range pts {
				p := make(geom.Point, dim)
				for d := range p {
					p[d] = prng.Float32()
				}
				pts[i] = p
				if err := tree.Insert(p, RecordID(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Drain leaves toward underflow so the swept delete reliably
			// exercises eliminate-and-reinsert.
			live := make(map[RecordID]geom.Point, n)
			for i, p := range pts {
				live[RecordID(i)] = p
			}
			for i := 0; i < n/2; i++ {
				found, err := tree.Delete(pts[i], RecordID(i))
				if err != nil || !found {
					t.Fatalf("drain delete %d: found=%v err=%v", i, found, err)
				}
				delete(live, RecordID(i))
			}
			before := contents(t, tree)
			if len(before) != len(live) {
				t.Fatalf("drained tree has %d entries, want %d", len(before), len(live))
			}
			victim := RecordID(n/2 + k%(n/2-1))
			trace.ops = nil
			writes := fault.Stats().Writes
			fault.SetRemaining(k)
			found, err := tree.Delete(live[victim], victim)
			fault.SetRemaining(1 << 30)
			checkDeferredWrites(t, trace.ops, k, fault.Stats().Writes-writes)
			if err == nil {
				if !found {
					t.Fatalf("victim %d not found", victim)
				}
			} else {
				if err := tree.CheckInvariants(); err != nil {
					t.Fatalf("invariants broken after failed delete: %v", err)
				}
				if got := contents(t, tree); !sameContents(got, before) {
					t.Fatalf("contents changed by failed delete: %d entries vs %d", len(got), len(before))
				}
				// Retry on the healed file.
				found, err = tree.Delete(live[victim], victim)
				if err != nil || !found {
					t.Fatalf("retry delete: found=%v err=%v", found, err)
				}
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// The victim is gone exactly once; every other record survives
			// exactly once — nothing lost or duplicated by reinsertion.
			delete(live, victim)
			after := contents(t, tree)
			if len(after) != len(live) {
				t.Fatalf("%d entries after delete, want %d", len(after), len(live))
			}
			for _, e := range after {
				p, ok := live[e.RID]
				if !ok || !p.Equal(e.Point) {
					t.Fatalf("unexpected entry %d after delete", e.RID)
				}
				delete(live, e.RID)
			}
		})
	}
}

// TestBatchFaultBeforeSealWritesNothing sweeps the fuse across a RunTx batch
// that splits nodes many times, so most fuse positions fail an allocation in
// the middle of the batch: whichever one it is, no page has been written by
// then, and the rollback writes none either. The pages whose rollback free
// the burnt fuse also failed are all accounted for as leaked.
func TestBatchFaultBeforeSealWritesNothing(t *testing.T) {
	const dim = 4
	fault := pagefile.NewChaosFile(pagefile.NewMemFile(256), pagefile.ChaosProfile{}, 1)
	trace := &opTrace{File: fault}
	tree, err := New(trace, Config{Dim: dim, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	pts, rids := seededPoints(83, 360, dim)
	for i := 0; i < 300; i++ {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := contents(t, tree)
	allocFaults := 0
	for k := 0; ; k++ {
		trace.ops = nil
		writes := fault.Stats().Writes
		fault.SetRemaining(k)
		err := tree.RunTx(func() error {
			for i := 300; i < len(pts); i++ {
				if err := tree.Insert(pts[i], rids[i]); err != nil {
					return err
				}
			}
			return nil
		})
		fault.SetRemaining(1 << 30)
		checkDeferredWrites(t, trace.ops, k, fault.Stats().Writes-writes)
		if err == nil {
			break
		}
		if trace.ops[k] == 'A' {
			allocFaults++
		}
		if got := contents(t, tree); !sameContents(got, before) {
			t.Fatalf("fuse %d: contents changed by the failed batch", k)
		}
	}
	if allocFaults < 3 {
		t.Fatalf("only %d fuse positions failed an allocation; the batch was meant to split often", allocFaults)
	}
	if tree.LeakedPages() == 0 {
		t.Fatal("no rollback free failed under the burnt fuse; the leak accounting went untested")
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	checkPageAccounting(t, tree)
	if n := tree.LeakedPages(); n != 0 {
		t.Fatalf("%d pages still leaked after a clean flush", n)
	}
	tree.DropCaches()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("cold invariants: %v", err)
	}
}

// TestCloseRepairsAfterFailedSeal: without a write-ahead log, a seal that
// fails after its first page write leaves that page's post-image in the
// file. Memory stays authoritative, and Close — even with no Flush before
// it — rewrites the file from memory, so a reopen sees the rolled-back state.
func TestCloseRepairsAfterFailedSeal(t *testing.T) {
	const dim = 4
	mem := pagefile.NewMemFile(256)
	fault := pagefile.NewChaosFile(mem, pagefile.ChaosProfile{}, 1)
	trace := &opTrace{File: fault}
	cfg := Config{Dim: dim, PageSize: 256}
	tree, err := New(trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, rids := seededPoints(89, 330, dim)
	for i := 0; i < 300; i++ {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := contents(t, tree)
	for k := 0; ; k++ {
		trace.ops = nil
		fault.SetRemaining(k)
		err := tree.RunTx(func() error {
			for i := 300; i < len(pts); i++ {
				if err := tree.Insert(pts[i], rids[i]); err != nil {
					return err
				}
			}
			return nil
		})
		fault.SetRemaining(1 << 30)
		if err == nil {
			t.Fatal("the batch committed before any seal failed partway")
		}
		if k > 0 && trace.ops[k] == 'W' && trace.ops[k-1] == 'W' {
			break // at least one post-image reached the file
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	checkPageAccounting(t, tree)
	reopened, err := Open(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatalf("reopened tree: %v", err)
	}
	if got := contents(t, reopened); !sameContents(got, before) {
		t.Fatalf("reopened tree has %d entries, want the %d from before the failed batch", len(got), len(before))
	}
}

// TestChaosOpsAgainstModel runs a long random insert/delete/search workload
// through a chaotic file and cross-checks the tree against a plain map
// model: an operation either succeeds on both or fails on the tree and is
// skipped on the model.
func TestChaosOpsAgainstModel(t *testing.T) {
	const dim = 3
	// FreeErr is high enough that some rollback's free of a page it had
	// allocated fails, which the page accounting below must still see.
	profile := pagefile.ChaosProfile{ReadErr: 0.01, WriteErr: 0.02, WriteTorn: 0.005, AllocErr: 0.01, FreeErr: 0.05}
	chaos := pagefile.NewChaosFile(pagefile.NewMemFile(256), profile, 91)
	chaos.SetEnabled(false)
	tree, err := New(chaos, Config{Dim: dim, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	chaos.SetEnabled(true)
	type rec struct {
		p   geom.Point
		rid RecordID
	}
	var model []rec
	rng := rand.New(rand.NewSource(93))
	nextRID := RecordID(0)
	failures := 0
	for op := 0; op < 4000; op++ {
		switch r := rng.Float64(); {
		case r < 0.55 || len(model) == 0:
			p := make(geom.Point, dim)
			for d := range p {
				p[d] = rng.Float32()
			}
			rid := nextRID
			nextRID++
			if err := tree.Insert(p, rid); err != nil {
				failures++
			} else {
				model = append(model, rec{p, rid})
			}
		case r < 0.8:
			i := rng.Intn(len(model))
			found, err := tree.Delete(model[i].p, model[i].rid)
			if err != nil {
				failures++
				break
			}
			if !found {
				t.Fatalf("op %d: record %d missing", op, model[i].rid)
			}
			model[i] = model[len(model)-1]
			model = model[:len(model)-1]
		default:
			rect := randQueryRect(rng, dim, 0.4)
			got, err := tree.SearchBox(rect)
			if err != nil {
				failures++
				break
			}
			want := 0
			for _, m := range model {
				if rect.Contains(m.p) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("op %d: box returned %d, model has %d", op, len(got), want)
			}
		}
		if op%500 == 0 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if failures == 0 {
		t.Fatal("chaos injected no failures; test is vacuous")
	}
	chaos.SetEnabled(false)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != len(model) {
		t.Fatalf("size = %d, model has %d", tree.Size(), len(model))
	}
	t.Logf("survived %d injected failures, %d live records, %d leaked pages",
		failures, len(model), tree.LeakedPages())
	// Every page a failed free left allocated is one the tree knows about,
	// so a clean Flush gets all of them back.
	checkPageAccounting(t, tree)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := tree.LeakedPages(); n != 0 {
		t.Fatalf("%d pages still leaked after a clean flush", n)
	}
	checkPageAccounting(t, tree)
}

// TestFlushRepairsDiskAfterFaults verifies the recovery recipe: after a
// fault storm mangles on-disk pages, a clean Flush + DropCaches leaves a
// readable, correct tree (the cache was authoritative all along).
func TestFlushRepairsDiskAfterFaults(t *testing.T) {
	const dim = 3
	profile := pagefile.ChaosProfile{WriteErr: 0.08, WriteTorn: 0.04, WriteShort: 0.04}
	chaos := pagefile.NewChaosFile(pagefile.NewMemFile(256), profile, 97)
	chaos.SetEnabled(false)
	tree, err := New(chaos, Config{Dim: dim, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	chaos.SetEnabled(true)
	rng := rand.New(rand.NewSource(101))
	var kept []geom.Point
	for i := 0; len(kept) < 600; i++ {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		if err := tree.Insert(p, RecordID(len(kept))); err == nil {
			kept = append(kept, p)
		}
	}
	if chaos.Counts().Total() == 0 {
		t.Fatal("no faults injected; test is vacuous")
	}
	before := contents(t, tree)
	// Heal the storage, repair the disk image, then force cold reads.
	chaos.SetEnabled(false)
	if err := tree.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	tree.DropCaches()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("cold invariants: %v", err)
	}
	after := contents(t, tree)
	if !sameContents(after, before) {
		t.Fatalf("cold read returned %d entries, want %d", len(after), len(before))
	}
}
