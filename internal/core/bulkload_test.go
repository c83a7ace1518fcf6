package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"hybridtree/internal/dataset"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

func bulkRandom(t testing.TB, n, dim, pageSize int, seed int64) (*Tree, []geom.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	rids := make([]RecordID, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
		rids[i] = RecordID(i)
	}
	file := pagefile.NewMemFile(pageSize)
	tree, err := BulkLoad(file, Config{Dim: dim, PageSize: pageSize}, pts, rids)
	if err != nil {
		t.Fatal(err)
	}
	return tree, pts
}

func TestBulkLoadCorrectness(t *testing.T) {
	for _, tc := range []struct{ n, dim, page int }{
		{0, 4, 512},
		{5, 4, 512},
		{3000, 4, 512},
		{3000, 8, 512},
		{1500, 16, 1024},
		{800, 64, 4096},
	} {
		t.Run(fmt.Sprintf("n%d_d%d", tc.n, tc.dim), func(t *testing.T) {
			tree, pts := bulkRandom(t, tc.n, tc.dim, tc.page, 31)
			if tree.Size() != tc.n {
				t.Fatalf("size = %d, want %d", tree.Size(), tc.n)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(37))
			for q := 0; q < 15; q++ {
				rect := randQueryRect(rng, tc.dim, 0.6)
				got, err := tree.SearchBox(rect)
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, entriesToSet(got), bruteBox(pts, rect), "bulk box")
			}
		})
	}
}

func TestBulkLoadUtilization(t *testing.T) {
	tree, _ := bulkRandom(t, 8000, 8, 512, 41)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Bulk loading should fill data pages near the bulkFill target, well
	// above what incremental splits leave behind.
	if st.AvgDataFill < 0.75 {
		t.Fatalf("bulk avg fill %.2f, want >= 0.75", st.AvgDataFill)
	}
	t.Logf("bulk: height=%d dataNodes=%d fill=%.2f fanout=%.1f overlapVol=%.4f",
		st.Height, st.DataNodes, st.AvgDataFill, st.AvgFanout, st.OverlapVolume)
}

func TestBulkLoadThenMutate(t *testing.T) {
	tree, pts := bulkRandom(t, 2000, 6, 512, 43)
	rng := rand.New(rand.NewSource(47))
	// Insert more.
	extra := make([]geom.Point, 500)
	for i := range extra {
		p := make(geom.Point, 6)
		for d := range p {
			p[d] = rng.Float32()
		}
		extra[i] = p
		if err := tree.Insert(p, RecordID(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete some originals.
	for i := 0; i < 300; i++ {
		found, err := tree.Delete(pts[i], RecordID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("bulk-loaded entry %d missing", i)
		}
	}
	if tree.Size() != 2000+500-300 {
		t.Fatalf("size = %d", tree.Size())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Search matches brute force over the surviving set.
	for q := 0; q < 10; q++ {
		rect := randQueryRect(rng, 6, 0.5)
		got, err := tree.SearchBox(rect)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[RecordID]bool)
		for i, p := range pts {
			if i >= 300 && rect.Contains(p) {
				want[RecordID(i)] = true
			}
		}
		for i, p := range extra {
			if rect.Contains(p) {
				want[RecordID(10000+i)] = true
			}
		}
		sameSet(t, entriesToSet(got), want, "post-mutation box")
	}
}

func TestBulkLoadPersistence(t *testing.T) {
	file := pagefile.NewMemFile(512)
	rng := rand.New(rand.NewSource(53))
	pts := make([]geom.Point, 1000)
	rids := make([]RecordID, 1000)
	for i := range pts {
		p := geom.Point{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
		pts[i], rids[i] = p, RecordID(i)
	}
	tree, err := BulkLoad(file, Config{Dim: 4, PageSize: 512}, pts, rids)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(file, Config{Dim: 4, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Size() != 1000 {
		t.Fatalf("reopened size = %d", reopened.Size())
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// failingWrites fails every page write after the first ok ones, the way a
// build that dies partway stops writing.
type failingWrites struct {
	pagefile.File
	ok int
}

var errWriteFailed = errors.New("injected write failure")

func (f *failingWrites) WritePage(id pagefile.PageID, data []byte) error {
	if f.ok == 0 {
		return errWriteFailed
	}
	f.ok--
	return f.File.WritePage(id, data)
}

// TestBulkLoadDiesDirty: without a log, a bulk load whose writes stop
// partway leaves a file Open refuses with ErrUncleanShutdown (not an
// unreadable page 0), and one that finishes is clean and synced: it opens
// after a crash that drops every unsynced write, with no Close.
func TestBulkLoadDiesDirty(t *testing.T) {
	const dim, n = 8, 3000
	cfg := Config{Dim: dim, PageSize: 1024}
	pts, rids := seededPoints(71, n, dim)
	inner := pagefile.NewMemFile(cfg.PageSize)
	if _, err := BulkLoad(&failingWrites{File: inner, ok: 20}, cfg, pts, rids); !errors.Is(err, errWriteFailed) {
		t.Fatalf("bulk load over failing writes: err %v, want the injected failure", err)
	}
	if _, err := Open(inner, cfg); !errors.Is(err, ErrUncleanShutdown) {
		t.Fatalf("Open after a bulk load died partway: err %v, want ErrUncleanShutdown", err)
	}

	crash := pagefile.NewCrashFile(cfg.PageSize)
	crash.LoseProb, crash.TearProb = 1, 0
	if _, err := BulkLoad(crash, cfg, pts, rids); err != nil {
		t.Fatal(err)
	}
	crash.Crash(72)
	tree, err := Open(crash, cfg)
	if err != nil {
		t.Fatalf("Open of a finished bulk load after a crash: %v", err)
	}
	if tree.Size() != n {
		t.Fatalf("reopened size %d, want %d", tree.Size(), n)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	file := pagefile.NewMemFile(512)
	if _, err := BulkLoad(file, Config{Dim: 2, PageSize: 512},
		[]geom.Point{{0.5, 0.5}}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := BulkLoad(file, Config{Dim: 2, PageSize: 512},
		[]geom.Point{{0.5, 1.5}}, []RecordID{1}); err == nil {
		t.Fatal("out-of-space point accepted")
	}
	if _, err := BulkLoad(file, Config{Dim: 2, PageSize: 512},
		[]geom.Point{{0.5}}, []RecordID{1}); err == nil {
		t.Fatal("wrong-dim point accepted")
	}
}

func TestApproxKNN(t *testing.T) {
	tree, pts := buildRandom(t, 4000, 8, 512, Config{}, 59)
	rng := rand.New(rand.NewSource(61))
	m := dist.L2()
	for q := 0; q < 10; q++ {
		query := make(geom.Point, 8)
		for d := range query {
			query[d] = rng.Float32()
		}
		exact, err := tree.SearchKNN(query, 10, m)
		if err != nil {
			t.Fatal(err)
		}
		// epsilon 0 must equal exact search.
		zero, err := tree.SearchKNNApprox(query, 10, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			if diff := zero[i].Dist - exact[i].Dist; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("eps=0 diverges at %d: %g vs %g", i, zero[i].Dist, exact[i].Dist)
			}
		}
		// epsilon > 0: every reported distance within (1+eps) of the true
		// same-rank distance.
		const eps = 0.5
		approx, err := tree.SearchKNNApprox(query, 10, m, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(approx) != len(exact) {
			t.Fatalf("approx returned %d results", len(approx))
		}
		for i := range approx {
			if approx[i].Dist > exact[i].Dist*(1+eps)+1e-9 {
				t.Fatalf("rank %d: approx %g exceeds (1+eps)*exact %g", i, approx[i].Dist, exact[i].Dist)
			}
		}
	}
	_ = pts
}

func TestApproxKNNSavesWork(t *testing.T) {
	tree, _ := buildRandom(t, 6000, 16, 1024, Config{}, 67)
	rng := rand.New(rand.NewSource(71))
	query := make(geom.Point, 16)
	for d := range query {
		query[d] = rng.Float32()
	}
	stats := tree.File().Stats()
	stats.Reset()
	if _, err := tree.SearchKNN(query, 10, dist.L2()); err != nil {
		t.Fatal(err)
	}
	exactReads := stats.Reads()
	stats.Reset()
	if _, err := tree.SearchKNNApprox(query, 10, dist.L2(), 1.0); err != nil {
		t.Fatal(err)
	}
	approxReads := stats.Reads()
	if approxReads > exactReads {
		t.Fatalf("approx (%d reads) costlier than exact (%d)", approxReads, exactReads)
	}
	t.Logf("exact=%d approx(eps=1)=%d reads", exactReads, approxReads)
}

func TestApproxKNNValidation(t *testing.T) {
	tree, _ := buildRandom(t, 100, 4, 512, Config{}, 73)
	if _, err := tree.SearchKNNApprox(geom.Point{0.5}, 1, dist.L2(), 0.1); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if _, err := tree.SearchKNNApprox(make(geom.Point, 4), 0, dist.L2(), 0.1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := tree.SearchKNNApprox(make(geom.Point, 4), 1, dist.L2(), -1); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

// TestBulkLoadPinnedFile pins bulk-loaded files byte for byte. bulkSplit
// orders every subset by the split coordinate, ties broken by the order the
// parent level left them in; that order has one answer, so changing how it
// is computed may not move a single page. The uniform case quantizes its
// coordinates to sixteen values so that every split sorts through long runs
// of ties — the case the tie-break decides. The COLHIST case is the
// benchmark's shape (64-d, 4 KB pages), whose skew makes most splits peel
// one page off the end of a range, so the split tree is deep.
func TestBulkLoadPinnedFile(t *testing.T) {
	for _, tc := range []struct {
		name          string
		pts           []geom.Point
		dim, pageSize int
		want          string
	}{
		{"quantized16d", quantizedPoints(6000, 16), 16, 1024, "580 pages 315a434829369b26"},
		{"colhist64d", dataset.ColHist(10000, 64, 1999), 64, 4096, "906 pages 204564d9a2af032b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rids := make([]RecordID, len(tc.pts))
			for i := range rids {
				rids[i] = RecordID(i)
			}
			file := pagefile.NewMemFile(tc.pageSize)
			if _, err := BulkLoad(file, Config{Dim: tc.dim, PageSize: tc.pageSize}, tc.pts, rids); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashPages(t, h, file)
			if got := fmt.Sprintf("%d pages %x", file.NumPages(), h.Sum(nil)[:8]); got != tc.want {
				t.Fatalf("bulk-loaded file is %s, pinned %s", got, tc.want)
			}
		})
	}
}

// TestInsertPinnedFile pins insert-built files byte for byte, together with
// the ELS side table: ChooseSubtree decides every page an insert touches
// and the ELS upkeep every encoding, and neither may move a byte however
// it is computed. The uniform case is insert-only over coordinates
// quantized to k/16, which land on ELS cell boundaries — where a union of
// stored codes differs from the code of the union, so an incremental
// encoding shortcut shows. The COLHIST cases are the benchmark's shape:
// 64-d, 4 KB pages, bulk-loaded and then inserted into; the delete-built one
// then deletes every entry of the leftmost data page and every seventh
// inserted vector, so underfull elimination, its orphan reinsertions and
// its ELS cleanup all write into the pinned file.
func TestInsertPinnedFile(t *testing.T) {
	colhist := dataset.ColHist(13000, 64, 1999)
	for _, tc := range []struct {
		name          string
		bulk, insert  []geom.Point
		deletes       bool
		dim, pageSize int
		want          string
	}{
		{"quantized16d", nil, quantizedPoints(6000, 16), false, 16, 1024, "628 pages 626 els 2a1b312d09f9ffe3"},
		{"colhist64d", colhist[:10000], colhist[10000:], false, 64, 4096, "1297 pages 1296 els b24e66a836eb0c8d"},
		{"colhist64d-deleted", colhist[:10000], colhist[10000:], true, 64, 4096, "1273 pages 1272 els 10f12b80a7434e02"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Dim: tc.dim, PageSize: tc.pageSize}
			file := pagefile.NewMemFile(tc.pageSize)
			var tree *Tree
			var err error
			if len(tc.bulk) == 0 {
				tree, err = New(file, cfg)
			} else {
				rids := make([]RecordID, len(tc.bulk))
				for i := range rids {
					rids[i] = RecordID(i)
				}
				tree, err = BulkLoad(file, cfg, tc.bulk, rids)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range tc.insert {
				if err := tree.Insert(p, RecordID(len(tc.bulk)+i)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.deletes {
				deleteLeafAndEvery7th(t, tree, tc.insert, len(tc.bulk))
			}
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashPages(t, h, file)
			ids, encs := tree.els.Snapshot()
			for i, id := range ids {
				fmt.Fprintf(h, "%d:%x;", id, encs[i])
			}
			got := fmt.Sprintf("%d pages %d els %x", file.NumPages(), len(ids), h.Sum(nil)[:8])
			if got != tc.want {
				t.Fatalf("insert-built file is %s, pinned %s", got, tc.want)
			}
		})
	}
}

// deleteLeafAndEvery7th deletes every entry of tree's leftmost data page,
// requiring that the page is eliminated as underfull and its last entries
// reinserted, and then every seventh of inserted, whose record ids start at
// base.
func deleteLeafAndEvery7th(t *testing.T, tree *Tree, inserted []geom.Point, base int) {
	t.Helper()
	leaf, err := tree.store.get(tree.root)
	for err == nil && !leaf.leaf {
		k := leaf.kdRoot
		for !leaf.kd[k].isLeaf() {
			k = leaf.kd[k].Left
		}
		leaf, err = tree.store.get(leaf.kd[k].Child)
	}
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	for _, p := range leaf.materializePoints(nil) {
		pts = append(pts, p.Clone())
	}
	rids := slices.Clone(leaf.rids)

	ring := obs.NewRing(1)
	tree.SetTracer(ring)
	defer tree.SetTracer(nil)
	del := func(p geom.Point, rid RecordID) int {
		found, err := tree.Delete(p, rid)
		if err != nil || !found {
			t.Fatalf("delete rid %d: found %v, %v", rid, found, err)
		}
		return int(ring.Snapshot()[0].Reinserts)
	}
	reinserts := 0
	for i, p := range pts {
		reinserts += del(p, rids[i])
	}
	if reinserts == 0 {
		t.Fatalf("deleting all %d entries of data page %d reinserted no orphans", len(pts), leaf.id)
	}
	for i := 0; i < len(inserted); i += 7 {
		if !slices.Contains(rids, RecordID(base+i)) {
			del(inserted[i], RecordID(base+i))
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// quantizedPoints returns n seeded points whose coordinates are multiples
// of 1/16, so splits sort through long runs of ties.
func quantizedPoints(n, dim int) []geom.Point {
	rng := rand.New(rand.NewSource(77))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = float32(rng.Intn(16)) / 16
		}
		pts[i] = p
	}
	return pts
}

// hashPages writes every page of file, in id order, into h; a freed page
// is written as its id.
func hashPages(t *testing.T, h io.Writer, file pagefile.File) {
	t.Helper()
	buf := make([]byte, file.PageSize())
	for id := 0; id < file.NumPages(); id++ {
		err := file.ReadPage(pagefile.PageID(id), buf)
		if errors.Is(err, pagefile.ErrPageFreed) {
			fmt.Fprintf(h, "free %d;", id)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
}
