package core

import (
	"math/rand"
	"testing"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// TestTracedQueryParity asserts that tracing is purely observational: the
// same queries, traced and untraced, return identical results and charge
// identical pagefile access counts.
func TestTracedQueryParity(t *testing.T) {
	tree, pts, stats := parityTree(t, 5000, 12, 61)
	rng := rand.New(rand.NewSource(62))

	boxes := make([]geom.Rect, 16)
	queries := make([]geom.Point, 16)
	for i := range boxes {
		boxes[i] = randQueryRect(rng, 12, 0.4)
		queries[i] = pts[rng.Intn(len(pts))]
	}

	type outcome struct {
		box   []Entry
		knn   []Neighbor
		rng   []Neighbor
		reads uint64
	}
	run := func() []outcome {
		outs := make([]outcome, len(boxes))
		for i := range boxes {
			before := stats.Snapshot().RandomReads
			var err error
			if outs[i].box, err = tree.SearchBox(boxes[i]); err != nil {
				t.Fatal(err)
			}
			if outs[i].knn, err = tree.SearchKNN(queries[i], 7, dist.L2()); err != nil {
				t.Fatal(err)
			}
			if outs[i].rng, err = tree.SearchRange(queries[i], 0.6, dist.L2()); err != nil {
				t.Fatal(err)
			}
			outs[i].reads = stats.Snapshot().RandomReads - before
		}
		return outs
	}

	want := run()
	ring := obs.NewRing(64)
	tree.setTracer(ring)
	defer tree.setTracer(nil)
	got := run()

	for i := range want {
		if !entriesEqual(got[i].box, want[i].box) {
			t.Errorf("query %d: traced box results differ from untraced", i)
		}
		if !neighborsEqual(got[i].knn, want[i].knn) {
			t.Errorf("query %d: traced knn results differ from untraced", i)
		}
		if !neighborsEqual(got[i].rng, want[i].rng) {
			t.Errorf("query %d: traced range results differ from untraced", i)
		}
		if got[i].reads != want[i].reads {
			t.Errorf("query %d: traced charged %d reads, untraced %d", i, got[i].reads, want[i].reads)
		}
	}
	if ring.Total() != uint64(3*len(boxes)) {
		t.Errorf("ring collected %d traces, want %d", ring.Total(), 3*len(boxes))
	}
}

// TestKNNTraceSpansEveryVisitedNode asserts the span tree is complete: a
// traced k-NN query has exactly one span per logical node read (so every
// visited node is named), a root span at level 0, and parent links that
// resolve within the tree.
func TestKNNTraceSpansEveryVisitedNode(t *testing.T) {
	tree, pts, stats := parityTree(t, 5000, 12, 63)
	ring := obs.NewRing(8)
	tree.setTracer(ring)
	defer tree.setTracer(nil)

	before := stats.Snapshot().RandomReads
	res, err := tree.SearchKNN(pts[123], 9, dist.L2())
	if err != nil {
		t.Fatal(err)
	}
	reads := stats.Snapshot().RandomReads - before

	traces := ring.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Op != "knn" {
		t.Errorf("trace op = %q, want knn", tr.Op)
	}
	if tr.Results != len(res) {
		t.Errorf("trace results = %d, want %d", tr.Results, len(res))
	}
	if uint64(len(tr.Spans)) != reads {
		t.Errorf("trace has %d spans but the query charged %d node reads", len(tr.Spans), reads)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Parent != -1 || tr.Spans[0].Level != 0 {
		t.Fatalf("first span is not a root: %+v", tr.Spans[0])
	}
	hits := 0
	for i, s := range tr.Spans {
		if s.Parent >= int32(i) {
			t.Errorf("span %d: parent %d not an earlier span", i, s.Parent)
		}
		if i > 0 && s.Parent >= 0 && s.Level != tr.Spans[s.Parent].Level+1 {
			t.Errorf("span %d: level %d inconsistent with parent level %d", i, s.Level, tr.Spans[s.Parent].Level)
		}
		if s.Leaf {
			hits += int(s.Hits)
		}
	}
	// k-NN hits are offers accepted into the k-best collector; later
	// candidates can displace earlier ones, so hits bound results from above.
	if hits < len(res) {
		t.Errorf("leaf spans record %d hits, query returned %d", hits, len(res))
	}
	// The human renderer names every visited node.
	if s := tr.String(); len(s) == 0 {
		t.Error("trace renders empty")
	}
}

// TestExplainTraceAgreement asserts the Explanation's per-level table is an
// exact aggregation of the span tree it now carries.
func TestExplainTraceAgreement(t *testing.T) {
	tree, _, _ := parityTree(t, 4000, 8, 65)
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 8; i++ {
		res, ex, err := tree.ExplainBox(randQueryRect(rng, 8, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Trace == nil {
			t.Fatal("explanation carries no trace")
		}
		nodes, hits := 0, 0
		for _, l := range ex.Levels {
			nodes += l.NodesRead
			hits += l.EntriesHit
		}
		if nodes != len(ex.Trace.Spans) {
			t.Errorf("levels count %d nodes, trace has %d spans", nodes, len(ex.Trace.Spans))
		}
		if hits != len(res) || ex.Results != len(res) {
			t.Errorf("levels count %d hits, results %d, got %d entries", hits, ex.Results, len(res))
		}
	}
}

// TestMutationTraces asserts inserts and deletes produce traces, that splits
// and orphan reinsertions are attributed to the top-level mutation, and that
// the nested Insert a reinsertion performs does not emit its own trace.
func TestMutationTraces(t *testing.T) {
	const dim = 6
	file := pagefile.NewMemFile(pagefile.DefaultPageSize)
	tree, err := New(file, Config{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(4096)
	tree.setTracer(ring)
	defer tree.setTracer(nil)

	rng := rand.New(rand.NewSource(67))
	pts := make([]geom.Point, 600)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ring.Total(); got != uint64(len(pts)) {
		t.Fatalf("inserts produced %d traces, want %d (one per top-level mutation)", got, len(pts))
	}
	splits := 0
	for _, tr := range ring.Snapshot() {
		if tr.Op != "insert" {
			t.Fatalf("unexpected trace op %q during build", tr.Op)
		}
		splits += int(tr.Splits)
	}
	if splits == 0 {
		t.Error("600 inserts recorded no splits in their traces")
	}

	deletes := 0
	reinserts := 0
	for i := range pts {
		found, err := tree.Delete(pts[i], RecordID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("point %d not found for delete", i)
		}
		deletes++
		last := ring.Snapshot()[0]
		if last.Op != "delete" {
			t.Fatalf("latest trace op %q after delete, want delete (nested reinsertion leaked a trace?)", last.Op)
		}
		reinserts += int(last.Reinserts)
	}
	if got := ring.Total(); got != uint64(len(pts)+deletes) {
		t.Errorf("total traces %d, want %d", got, len(pts)+deletes)
	}
	if reinserts == 0 {
		t.Error("deleting every record recorded no orphan reinsertions")
	}
	if tree.Size() != 0 {
		t.Errorf("tree size %d after deleting everything", tree.Size())
	}
}

// setTracer sets this tree's query/mutation tracer (nil disables tracing).
// Set it before the tree is shared between goroutines: searches read the
// tracer without synchronization.
func (t *Tree) setTracer(tr obs.Tracer) { t.tracer = tr }
