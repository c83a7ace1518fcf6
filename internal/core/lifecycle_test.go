package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
)

func TestDeleteBasic(t *testing.T) {
	tree, pts := buildRandom(t, 1200, 6, 512, Config{}, 101)
	// Delete a known entry.
	found, err := tree.Delete(pts[10], 10)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("existing entry not found")
	}
	if tree.Size() != 1199 {
		t.Fatalf("size = %d", tree.Size())
	}
	// Deleting again fails: it is gone.
	found, err = tree.Delete(pts[10], 10)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("entry deleted twice")
	}
	// Wrong rid with right point fails.
	found, err = tree.Delete(pts[11], 99999)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("rid mismatch deleted something")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteHalfThenSearch(t *testing.T) {
	tree, pts := buildRandom(t, 2000, 8, 512, Config{}, 103)
	rng := rand.New(rand.NewSource(107))
	deleted := make(map[RecordID]bool)
	perm := rng.Perm(len(pts))
	for _, i := range perm[:1000] {
		found, err := tree.Delete(pts[i], RecordID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("entry %d missing", i)
		}
		deleted[RecordID(i)] = true
	}
	if tree.Size() != 1000 {
		t.Fatalf("size = %d, want 1000", tree.Size())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remaining points all findable; deleted ones gone.
	for q := 0; q < 20; q++ {
		rect := randQueryRect(rng, 8, 0.7)
		got, err := tree.SearchBox(rect)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[RecordID]bool)
		for i, p := range pts {
			if !deleted[RecordID(i)] && rect.Contains(p) {
				want[RecordID(i)] = true
			}
		}
		sameSet(t, entriesToSet(got), want, fmt.Sprintf("post-delete box %d", q))
	}
}

func TestDeleteAll(t *testing.T) {
	tree, pts := buildRandom(t, 800, 4, 512, Config{}, 109)
	for i, p := range pts {
		found, err := tree.Delete(p, RecordID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("entry %d missing at deletion", i)
		}
	}
	if tree.Size() != 0 {
		t.Fatalf("size = %d after deleting all", tree.Size())
	}
	res, err := tree.SearchBox(geom.UnitCube(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("%d entries remain after deleting all", len(res))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree must shrink back rather than keep a tall skeleton.
	if tree.Height() > 2 {
		t.Fatalf("height = %d after deleting everything", tree.Height())
	}
}

func TestInsertDeleteInterleaved(t *testing.T) {
	file := pagefile.NewMemFile(512)
	tree, err := New(file, Config{Dim: 4, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(113))
	live := make(map[RecordID]geom.Point)
	nextRID := RecordID(0)
	for step := 0; step < 4000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			p := geom.Point{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
			if err := tree.Insert(p, nextRID); err != nil {
				t.Fatal(err)
			}
			live[nextRID] = p
			nextRID++
		} else {
			// Delete a random live record.
			var rid RecordID
			for r := range live {
				rid = r
				break
			}
			found, err := tree.Delete(live[rid], rid)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("live record %d not found", rid)
			}
			delete(live, rid)
		}
	}
	if tree.Size() != len(live) {
		t.Fatalf("size = %d, want %d", tree.Size(), len(live))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := tree.SearchBox(geom.UnitCube(4))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[RecordID]bool)
	for r := range live {
		want[r] = true
	}
	sameSet(t, entriesToSet(got), want, "final contents")
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	file, err := pagefile.CreateDiskFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dim: 8, PageSize: 1024}
	tree, err := New(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(127))
	pts := make([]geom.Point, 1500)
	for i := range pts {
		p := make(geom.Point, 8)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the same file: a brand-new store, no warm cache.
	reopened, err := Open(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Size() != 1500 {
		t.Fatalf("reopened size = %d", reopened.Size())
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	qrng := rand.New(rand.NewSource(131))
	for q := 0; q < 15; q++ {
		rect := randQueryRect(qrng, 8, 0.7)
		got, err := reopened.SearchBox(rect)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, entriesToSet(got), bruteBox(pts, rect), "reopened box")
	}
	// And further inserts work on the reopened tree.
	extra := geom.Point{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	if err := reopened.Insert(extra, 99999); err != nil {
		t.Fatal(err)
	}
	rids, err := reopened.SearchPoint(extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0] != 99999 {
		t.Fatalf("post-reopen insert lookup = %v", rids)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsMismatchedConfig(t *testing.T) {
	file := pagefile.NewMemFile(1024)
	tree, err := New(file, Config{Dim: 8, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file, Config{Dim: 4, PageSize: 1024}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestCodecRoundTripData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(32)
		count := rng.Intn(20)
		n := &node{id: 7, leaf: true, dim: dim, kdRoot: kdNone}
		for i := 0; i < count; i++ {
			p := make(geom.Point, dim)
			for d := range p {
				p[d] = rng.Float32()
			}
			n.appendPoint(p, RecordID(rng.Uint64()))
		}
		buf := make([]byte, 8192)
		size, err := n.encode(buf, dim)
		if err != nil || size != n.serializedSize(dim) {
			return false
		}
		dec, err := decodeNode(7, buf[:size], dim)
		if err != nil || !dec.leaf || dec.count() != count {
			return false
		}
		for i := range n.rids {
			if !dec.point(i).Equal(n.point(i)) || dec.rids[i] != n.rids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTripIndex(t *testing.T) {
	// Build a random kd arena (with some unreachable junk records to prove
	// encode compacts), round-trip it, and compare the reachable structure
	// via the children() mapping.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(8)
		n := &node{id: 3, kdRoot: kdNone}
		// Random kd-tree with up to 20 leaves.
		var build func(depth int) int32
		build = func(depth int) int32 {
			idx := int32(len(n.kd))
			if depth <= 0 || rng.Float64() < 0.3 {
				n.kd = append(n.kd, kdNode{Left: kdNone, Right: kdNone,
					Child: pagefile.PageID(rng.Intn(1000))})
				return idx
			}
			a, b := rng.Float32(), rng.Float32()
			n.kd = append(n.kd, kdNode{Dim: uint16(rng.Intn(dim)), Lsp: a, Rsp: b})
			l := build(depth - 1)
			r := build(depth - 1)
			n.kd[idx].Left, n.kd[idx].Right = l, r
			return idx
		}
		// Unreachable junk first, then the real tree.
		n.kd = append(n.kd, kdNode{Left: kdNone, Right: kdNone, Child: 999999})
		n.kdRoot = build(4)

		buf := make([]byte, 8192)
		size, err := n.encode(buf, dim)
		if err != nil {
			return false
		}
		dec, err := decodeNode(3, buf[:size], dim)
		if err != nil || dec.leaf {
			return false
		}
		space := geom.UnitCube(dim)
		a := n.children(space)
		b := dec.children(space)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].child != b[i].child || !a[i].br.Equal(b[i].br) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	n := &node{id: 1, leaf: true, dim: 2, kdRoot: kdNone,
		vals: []float32{0.5, 0.5}, rids: []RecordID{1}}
	buf := make([]byte, 512)
	size, err := n.encode(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte){
		"magic":     func(b []byte) { b[0] = 'X' },
		"type":      func(b []byte) { b[1] = 9 },
		"dim":       func(b []byte) { b[2] = 5 },
		"count":     func(b []byte) { b[4] = 0xff; b[5] = 0xff },
		"truncated": nil,
	}
	for name, corrupt := range cases {
		page := make([]byte, size)
		copy(page, buf[:size])
		if name == "truncated" {
			page = page[:3]
		} else {
			corrupt(page)
		}
		if _, err := decodeNode(1, page, 2); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
}

func TestDataSplitUtilization(t *testing.T) {
	// Build a full data node with a heavily skewed distribution: the middle
	// split would starve one side, so the clamp must kick in (footnote 1).
	file := pagefile.NewMemFile(512)
	tree, err := New(file, Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	cap := tree.cfg.dataCapacity()
	tree.store.beginMut() // splits only ever run inside a mutation scope
	defer tree.store.endMut()
	n, err := tree.store.alloc(true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(137))
	for i := 0; i <= cap; i++ {
		// 90% of the mass below 0.1, a few points near 1.
		var x float32
		if i%10 == 0 {
			x = 0.9 + rng.Float32()*0.1
		} else {
			x = rng.Float32() * 0.1
		}
		n.appendPoint(geom.Point{x, rng.Float32()}, RecordID(i))
	}
	sr, err := tree.splitDataNode(n)
	if err != nil {
		t.Fatal(err)
	}
	if sr.lsp != sr.rsp {
		t.Fatal("data node split must be clean")
	}
	left, _ := tree.store.get(sr.left)
	right, _ := tree.store.get(sr.right)
	minFill := tree.cfg.minDataFill()
	if left.count() < minFill || right.count() < minFill {
		t.Fatalf("utilization violated: %d/%d with min %d", left.count(), right.count(), minFill)
	}
	if left.count()+right.count() != cap+1 {
		t.Fatal("split lost entries")
	}
	// Every left point at or below the split, every right at or above.
	for i := 0; i < left.count(); i++ {
		if p := left.point(i); p[sr.dim] > sr.lsp {
			t.Fatalf("left point %v beyond lsp %g", p, sr.lsp)
		}
	}
	for i := 0; i < right.count(); i++ {
		if p := right.point(i); p[sr.dim] < sr.rsp {
			t.Fatalf("right point %v before rsp %g", p, sr.rsp)
		}
	}
}

func TestEDADataSplitChoosesMaxExtent(t *testing.T) {
	pts := []geom.Point{{0.1, 0.4}, {0.9, 0.6}} // dim 0 extent 0.8, dim 1 extent 0.2
	d, pos := EDAPolicy{}.ChooseDataSplit(pts, geom.BoundingRect(pts))
	if d != 0 {
		t.Fatalf("EDA chose dim %d, want 0 (max extent)", d)
	}
	if pos < 0.49 || pos > 0.51 {
		t.Fatalf("EDA position %g, want middle 0.5", pos)
	}
}

func TestVAMDataSplitChoosesMaxVariance(t *testing.T) {
	// Dim 0: one extreme outlier (big extent, small variance contribution
	// spread); dim 1: bimodal mass (smaller extent, bigger variance).
	var pts []geom.Point
	for i := 0; i < 50; i++ {
		v := float32(0.2)
		if i%2 == 0 {
			v = 0.8
		}
		pts = append(pts, geom.Point{0.5, v})
	}
	pts = append(pts, geom.Point{0.0, 0.5}, geom.Point{1.0, 0.5})
	dEDA, _ := EDAPolicy{}.ChooseDataSplit(pts, geom.BoundingRect(pts))
	dVAM, _ := VAMPolicy{}.ChooseDataSplit(pts, geom.BoundingRect(pts))
	if dEDA != 0 {
		t.Fatalf("EDA chose %d, want 0 (extent)", dEDA)
	}
	if dVAM != 1 {
		t.Fatalf("VAM chose %d, want 1 (variance)", dVAM)
	}
}

func TestFanoutIndependentOfDimensionality(t *testing.T) {
	// The Table 1 property: index fanout must not shrink as dimensionality
	// grows (only data-node capacity does).
	cfg8, _ := Config{Dim: 8, PageSize: 4096}.withDefaults()
	cfg64, _ := Config{Dim: 64, PageSize: 4096}.withDefaults()
	if cfg8.maxFanout() != cfg64.maxFanout() {
		t.Fatalf("fanout depends on dim: %d vs %d", cfg8.maxFanout(), cfg64.maxFanout())
	}
	if cfg64.maxFanout() < 100 {
		t.Fatalf("fanout %d suspiciously low for 4K pages", cfg64.maxFanout())
	}
	// Contrast with data capacity, which must shrink.
	if cfg64.dataCapacity() >= cfg8.dataCapacity() {
		t.Fatal("data capacity should shrink with dimensionality")
	}
}

func TestStatsAndUtilization(t *testing.T) {
	tree, _ := buildRandom(t, 5000, 8, 512, Config{}, 139)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 5000 {
		t.Fatalf("stats entries = %d", st.Entries)
	}
	if st.Height != tree.Height() || st.Height < 2 {
		t.Fatalf("height = %d", st.Height)
	}
	if st.DataNodes == 0 || st.IndexNodes == 0 {
		t.Fatalf("nodes: %d data, %d index", st.DataNodes, st.IndexNodes)
	}
	// Guaranteed utilization: no data node below the configured minimum
	// (the root exemption does not apply once the tree has split).
	minFill := float64(tree.cfg.minDataFill()) / float64(tree.cfg.dataCapacity())
	if st.MinDataFill < minFill-1e-9 {
		t.Fatalf("min data fill %.3f below guarantee %.3f", st.MinDataFill, minFill)
	}
	if st.AvgDataFill < 0.4 {
		t.Fatalf("average fill %.3f suspiciously low", st.AvgDataFill)
	}
	if st.ELSBytes == 0 {
		t.Fatal("ELS table empty despite default precision")
	}
}

func TestAccessCountingColdSemantics(t *testing.T) {
	// Every logical node touch must count, even when served from the
	// decoded cache: run the same query twice and require identical read
	// counts.
	tree, _ := buildRandom(t, 3000, 8, 512, Config{}, 149)
	rect := randQueryRect(rand.New(rand.NewSource(151)), 8, 0.5)
	stats := tree.File().Stats()

	stats.Reset()
	if _, err := tree.SearchBox(rect); err != nil {
		t.Fatal(err)
	}
	first := stats.Reads()
	stats.Reset()
	if _, err := tree.SearchBox(rect); err != nil {
		t.Fatal(err)
	}
	second := stats.Reads()
	if first != second {
		t.Fatalf("cache changed logical access count: %d then %d", first, second)
	}
	if first == 0 {
		t.Fatal("query counted no accesses")
	}
}

func TestELSSnapshotRoundTrip(t *testing.T) {
	file := pagefile.NewMemFile(1024)
	cfg := Config{Dim: 8, PageSize: 1024}
	tree, err := New(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(401))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		p := make(geom.Point, 8)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	wantBytes := tree.ELSMemoryBytes()
	if wantBytes == 0 {
		t.Fatal("no ELS entries to snapshot")
	}

	// Reopening must restore from the snapshot (no full-tree rebuild):
	// count the page reads Open performs and require far fewer than the
	// tree's node count.
	file.Stats().Reset()
	reopened, err := Open(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	openReads := file.Stats().Reads()
	st, err := reopened.Stats()
	if err != nil {
		t.Fatal(err)
	}
	nodes := st.DataNodes + st.IndexNodes
	if int(openReads) >= nodes {
		t.Fatalf("Open read %d pages with %d nodes; snapshot not used", openReads, nodes)
	}
	if reopened.ELSMemoryBytes() != wantBytes {
		t.Fatalf("restored ELS %d bytes, want %d", reopened.ELSMemoryBytes(), wantBytes)
	}
	// Searches still prune correctly with the restored table.
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	qrng := rand.New(rand.NewSource(403))
	for q := 0; q < 10; q++ {
		rect := randQueryRect(qrng, 8, 0.6)
		got, err := reopened.SearchBox(rect)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, entriesToSet(got), bruteBox(pts, rect), "post-restore box")
	}

	// Close again: the old chain is freed, a new one written, and a third
	// Open still works.
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.ELSMemoryBytes() != wantBytes {
		t.Fatal("second round-trip lost ELS entries")
	}
}

func TestELSSnapshotPrecisionMismatchRebuilds(t *testing.T) {
	file := pagefile.NewMemFile(1024)
	tree, err := New(file, Config{Dim: 4, PageSize: 1024, ELSBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(409))
	for i := 0; i < 500; i++ {
		p := geom.Point{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	// Open at a different precision: the snapshot must be ignored and the
	// table rebuilt at the requested precision.
	reopened, err := Open(file, Config{Dim: 4, PageSize: 1024, ELSBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if reopened.ELSMemoryBytes() == 0 {
		t.Fatal("rebuild produced no entries")
	}
}
