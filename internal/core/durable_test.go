package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybridtree/internal/dataset"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/wal"
)

func seededPoints(seed int64, n, dim int) ([]geom.Point, []RecordID) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	rids := make([]RecordID, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = float32(rng.Float64())
		}
		pts[i] = p
		rids[i] = RecordID(i + 1)
	}
	return pts, rids
}

func allEntries(t *testing.T, tree *Tree) []Entry {
	t.Helper()
	got, err := tree.SearchBox(tree.Config().Space)
	if err != nil {
		t.Fatalf("SearchBox: %v", err)
	}
	return got
}

// TestFlushMakesDurable is the regression for the silent-durability gap:
// Flush used to rewrite pages without ever syncing, so "the on-disk image
// matches memory" was only true until the next power cut. Now a clean
// Flush must survive a crash of everything volatile.
func TestFlushMakesDurable(t *testing.T) {
	const dim, pageSize, n = 3, 512, 300
	file := pagefile.NewCrashFile(pageSize)
	tree, err := New(file, Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	pts, rids := seededPoints(41, n, dim)
	for i := range pts {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if file.VolatilePages() != 0 {
		t.Fatalf("%d pages still volatile after Flush — Flush did not sync", file.VolatilePages())
	}

	file.Crash(42)
	reopened, err := Open(file, Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	if got := len(allEntries(t, reopened)); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatalf("invariants after crash: %v", err)
	}
}

// TestFlushReportsSyncFailure: a failed fsync must fail the Flush — the
// caller was promised durability and didn't get it.
func TestFlushReportsSyncFailure(t *testing.T) {
	const dim, pageSize = 2, 512
	inner := pagefile.NewCrashFile(pageSize)
	chaos := pagefile.NewChaosFile(inner, pagefile.ChaosProfile{SyncErr: 1}, 7)
	chaos.SetEnabled(false)
	tree, err := New(chaos, Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(geom.Point{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	chaos.SetEnabled(true)
	if err := tree.Flush(); !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("Flush with failing fsync: err = %v, want ErrInjected", err)
	}
	if c := chaos.Counts(); c.SyncErrs == 0 {
		t.Fatalf("sync fault was not injected: %+v", c)
	}
	chaos.SetEnabled(false)
	if err := tree.Flush(); err != nil {
		t.Fatalf("clean Flush after fault: %v", err)
	}
}

// TestLostSyncStaysVolatile documents the lying-fsync mode: Sync reports
// success but the device never persisted. Flush cannot detect it (neither
// can a real database), which is why the WAL's log-before-ack protocol —
// not Flush — is the durability story under this fault.
func TestLostSyncStaysVolatile(t *testing.T) {
	const dim, pageSize = 2, 512
	inner := pagefile.NewCrashFile(pageSize)
	chaos := pagefile.NewChaosFile(inner, pagefile.ChaosProfile{SyncLost: 1}, 7)
	tree, err := New(chaos, Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(geom.Point{0.25, 0.75}, 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if c := chaos.Counts(); c.SyncLost == 0 {
		t.Fatalf("lost-sync fault was not injected: %+v", c)
	}
	if inner.VolatilePages() == 0 {
		t.Fatalf("pages became durable despite the lost sync")
	}
}

// newWALTree builds the durable stack the simulator crashes: a tree over
// wal.File(ChecksumFile(CrashFile)) plus a MemLog.
func newWALTree(t *testing.T, dim, pageSize int) (*Tree, *wal.File, *pagefile.CrashFile, *wal.MemLog) {
	t.Helper()
	inner := pagefile.NewCrashFile(pageSize)
	sum := pagefile.NewChecksumFile(inner)
	log := wal.NewMemLog()
	wf, _, err := wal.Open(sum, log, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(wf, Config{Dim: dim, PageSize: sum.PageSize()})
	if err != nil {
		t.Fatal(err)
	}
	return tree, wf, inner, log
}

// TestCheckpointWithPinnedReaders: log truncation must not disturb a
// pinned MVCC snapshot — checkpoints move bytes between files, versions
// live in memory and answer to the epoch, not the log.
func TestCheckpointWithPinnedReaders(t *testing.T) {
	const dim, pageSize, n = 3, 512, 250
	tree, wf, _, log := newWALTree(t, dim, pageSize)
	pts, rids := seededPoints(43, n, dim)
	for i := 0; i < n/2; i++ {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Pin the half-built snapshot, then keep writing and checkpoint while
	// it stays pinned.
	release := tree.Pin()
	before := allEntries(t, tree)
	if log.Size() == 0 {
		t.Fatalf("no log activity before checkpoint")
	}
	for i := n / 2; i < n; i++ {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil { // checkpoint: flush overlay, truncate log
		t.Fatalf("Flush: %v", err)
	}
	if log.Size() != 0 {
		t.Fatalf("log size %d after checkpoint, want 0", log.Size())
	}
	if wf.OverlayPages() != 0 {
		t.Fatalf("overlay not drained by checkpoint")
	}
	if err := tree.CheckInvariantsSnapshot(); err != nil {
		t.Fatalf("snapshot invariants during pin: %v", err)
	}
	after := allEntries(t, tree)
	if len(after) != n {
		t.Fatalf("reader sees %d records after checkpoint, want %d", len(after), n)
	}
	_ = before
	release()
	tree.Reclaim()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants after unpin: %v", err)
	}
}

// TestWALTreeCrashRecovery drives the full stack once end to end: build,
// crash without any checkpoint, reopen, and compare contents exactly.
func TestWALTreeCrashRecovery(t *testing.T) {
	const dim, pageSize, n = 3, 512, 120
	tree, _, inner, log := newWALTree(t, dim, pageSize)
	pts, rids := seededPoints(44, n, dim)
	for i := range pts {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := allEntries(t, tree)

	inner.Crash(45)
	log.Crash(46)
	sum := pagefile.NewChecksumFile(inner)
	wf2, rec, err := wal.Open(sum, log, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open after crash: %v", err)
	}
	if rec.Txs == 0 {
		t.Fatalf("nothing replayed: %+v", rec)
	}
	reopened, err := Open(wf2, Config{Dim: dim, PageSize: sum.PageSize()})
	if err != nil {
		t.Fatalf("core.Open after crash: %v", err)
	}
	got := allEntries(t, reopened)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered contents differ: %d vs %d records", len(got), len(want))
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	if err := reopened.Flush(); err != nil {
		t.Fatalf("recovery Flush: %v", err)
	}
	if reopened.LeakedPages() != 0 {
		t.Fatalf("LeakedPages = %d after recovery Flush", reopened.LeakedPages())
	}
}

// TestRunTxBatchesAtomically: several mutations inside one RunTx either
// all commit (one durable transaction) or all roll back.
func TestRunTxBatchesAtomically(t *testing.T) {
	const dim, pageSize = 2, 512
	tree, wf, inner, log := newWALTree(t, dim, pageSize)
	pts, rids := seededPoints(47, 40, dim)

	fsyncsBefore := inner.Stats().Snapshot()
	_ = fsyncsBefore
	seqBefore := wf.Seq()
	err := tree.RunTx(func() error {
		for i := 0; i < 20; i++ {
			if err := tree.Insert(pts[i], rids[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunTx: %v", err)
	}
	if wf.Seq() != seqBefore+1 {
		t.Fatalf("batch used %d transactions, want 1", wf.Seq()-seqBefore)
	}
	if got := len(allEntries(t, tree)); got != 20 {
		t.Fatalf("size %d after batch, want 20", got)
	}

	// A failing batch rolls everything back together.
	errBoom := errors.New("boom")
	err = tree.RunTx(func() error {
		for i := 20; i < 30; i++ {
			if err := tree.Insert(pts[i], rids[i]); err != nil {
				return err
			}
		}
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("RunTx error = %v, want boom", err)
	}
	if got := len(allEntries(t, tree)); got != 20 {
		t.Fatalf("size %d after aborted batch, want 20", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants after aborted batch: %v", err)
	}

	// The rolled-back state is also the recovered state.
	inner.Crash(48)
	log.Crash(49)
	sum := pagefile.NewChecksumFile(inner)
	wf2, _, err := wal.Open(sum, log, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(wf2, Config{Dim: dim, PageSize: sum.PageSize()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(allEntries(t, reopened)); got != 20 {
		t.Fatalf("recovered size %d, want 20", got)
	}
}

// TestWALTreeFailedCommitLeavesNoTrace: under a write-ahead log a mutation
// reaches storage only in its seal, and a seal whose fsync fails is rewound
// before anything was published. So a failed Insert, Delete or RunTx leaves
// the log, the overlay and every page a cold read can reach byte-identical —
// rollback has nothing to repair and writes nothing.
func TestWALTreeFailedCommitLeavesNoTrace(t *testing.T) {
	const dim, pageSize = 3, 512
	tree, wf, _, log := newWALTree(t, dim, pageSize)
	pts, rids := seededPoints(53, 330, dim)
	for i := 0; i < 300; i++ {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
		if i == 150 {
			// Checkpoint midway, so that committed images live both in the
			// inner file and in the overlay.
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	type image struct {
		logSize int64
		overlay int
		pages   []string // "" where the read failed
	}
	snap := func() image {
		im := image{logSize: log.Size(), overlay: wf.OverlayPages()}
		buf := make([]byte, wf.PageSize())
		for id := 0; id < wf.NumPages()+16; id++ {
			page := ""
			if err := wf.ReadPage(pagefile.PageID(id), buf); err == nil {
				page = string(buf)
			}
			im.pages = append(im.pages, page)
		}
		return im
	}
	ops := []struct {
		name string
		run  func() error
	}{
		{"Insert", func() error { return tree.Insert(pts[300], rids[300]) }},
		{"Delete", func() error {
			found, err := tree.Delete(pts[0], rids[0])
			if err == nil && !found {
				err = errors.New("record not found")
			}
			return err
		}},
		{"RunTx", func() error {
			return tree.RunTx(func() error {
				for i := 301; i < 330; i++ { // enough to split a leaf
					if err := tree.Insert(pts[i], rids[i]); err != nil {
						return err
					}
				}
				_, err := tree.Delete(pts[1], rids[1])
				return err
			})
		}},
	}
	staged := obs.Default().Counter("wal_appends_total")
	for _, op := range ops {
		before, entries := snap(), contents(t, tree)
		appends := staged.Value()
		log.FailNextSyncs(1)
		if err := op.run(); err == nil {
			t.Fatalf("%s succeeded despite the failed commit fsync", op.name)
		}
		if got := staged.Value() - appends; got == 0 {
			t.Fatalf("%s failed before its seal; the test is vacuous", op.name)
		}
		if after := snap(); !reflect.DeepEqual(after, before) {
			t.Fatalf("failed %s changed storage: log %d -> %d bytes, overlay %d -> %d pages",
				op.name, before.logSize, after.logSize, before.overlay, after.overlay)
		}
		if !sameContents(contents(t, tree), entries) {
			t.Fatalf("failed %s changed the tree's contents", op.name)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after failed %s: %v", op.name, err)
		}
		if err := op.run(); err != nil {
			t.Fatalf("%s retry: %v", op.name, err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	checkPageAccounting(t, tree)
}

// TestRunTxWritesEachPageOnce: put inside a mutation scope is an in-memory
// mark, and the seal writes every changed page exactly once — N inserts into
// one leaf inside one RunTx log that leaf once, plus the metadata page.
func TestRunTxWritesEachPageOnce(t *testing.T) {
	const dim, pageSize = 2, 512
	tree, wf, _, log := newWALTree(t, dim, pageSize)
	pts, rids := seededPoints(59, 8, dim)
	writes, logSize := wf.Stats().Writes, log.Size()
	err := tree.RunTx(func() error {
		for i := range pts {
			if err := tree.Insert(pts[i], rids[i]); err != nil {
				return err
			}
		}
		if wf.Stats().Writes != writes || log.Size() != logSize {
			t.Errorf("mutations did I/O before the seal: %d page writes, %d log bytes",
				wf.Stats().Writes-writes, log.Size()-logSize)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 1 {
		t.Fatalf("height %d: the inserts were meant to stay in the root leaf", tree.Height())
	}
	if got := wf.Stats().Writes - writes; got != 2 {
		t.Fatalf("transaction wrote %d pages, want 2 (the leaf once, the metadata page)", got)
	}
}

// TestCrashCyclesKeepFileSize: crash cycles under a WAL cost no pages. Each
// cycle opens the closed file under a log, commits a few inserts, kills
// everything volatile, recovers, flushes and closes, and the file keeps its
// size.
func TestCrashCyclesKeepFileSize(t *testing.T) {
	const dim, n, perCycle = 8, 3000, 5
	inner := pagefile.NewCrashFile(1024)
	cfg := Config{Dim: dim, PageSize: pagefile.NewChecksumFile(inner).PageSize()}
	pts, rids := seededPoints(51, n, dim)
	tree, err := BulkLoad(pagefile.NewChecksumFile(inner), cfg, pts, rids)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	pages := inner.NumPages()
	extra, _ := seededPoints(52, 3*perCycle, dim)
	for cycle := 0; cycle < 3; cycle++ {
		log := wal.NewMemLog()
		wf, _, err := wal.Open(pagefile.NewChecksumFile(inner), log, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := Open(wf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := cycle * perCycle; i < (cycle+1)*perCycle; i++ {
			if err := tree.Insert(extra[i], RecordID(n+1+i)); err != nil {
				t.Fatal(err)
			}
		}
		inner.Crash(int64(60 + cycle))
		log.Crash(int64(70 + cycle))

		wf, _, err = wal.Open(pagefile.NewChecksumFile(inner), log, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tree, err = Open(wf, cfg); err != nil {
			t.Fatal(err)
		}
		if want := n + (cycle+1)*perCycle; tree.Size() != want {
			t.Fatalf("cycle %d: recovered %d records, want %d", cycle, tree.Size(), want)
		}
		for i := 0; i < (cycle+1)*perCycle; i++ {
			if got, err := tree.SearchPoint(extra[i]); err != nil || len(got) != 1 {
				t.Fatalf("cycle %d: acknowledged insert %d found %v, err %v", cycle, i, got, err)
			}
		}
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
		if err := wf.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := inner.NumPages(); got != pages {
			t.Fatalf("cycle %d: file has %d pages, %d before the crash", cycle, got, pages)
		}
	}
}

// TestFlushThenReopenFindsEverything: a process that inserts without a log,
// flushes and then dies without Close leaves a clean file that reopens with
// every record, and with live spaces that cover them.
func TestFlushThenReopenFindsEverything(t *testing.T) {
	const dim, n = 4, 2000
	cfg := Config{Dim: dim, PageSize: 512}
	file := pagefile.NewMemFile(512)
	pts, rids := seededPoints(53, n+200, dim)
	tree, err := BulkLoad(file, cfg, pts[:n], rids[:n])
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if tree, err = Open(file, cfg); err != nil {
		t.Fatal(err)
	}
	for i := n; i < len(pts); i++ {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := n; i < len(pts); i++ {
		if got, err := reopened.SearchPoint(pts[i]); err != nil || len(got) != 1 {
			t.Fatalf("flushed insert %d found %v, err %v", i, got, err)
		}
	}
}

// TestUncleanShutdownRefused: a file written without a log and dropped
// without Flush or Close may hold only some of its last mutations' pages,
// so Open refuses it with ErrUncleanShutdown, with or without a log on
// top, instead of serving a tree whose size and live spaces are stale.
func TestUncleanShutdownRefused(t *testing.T) {
	const dim, n, extra = 64, 20000, 50
	path := filepath.Join(t.TempDir(), "idx.ht")
	cfg := Config{Dim: dim, PageSize: 4096}
	pts := dataset.ColHist(n+extra, dim, 1999)
	rids := make([]RecordID, n)
	for i := range rids {
		rids[i] = RecordID(i)
	}
	disk, err := pagefile.CreateDiskFile(path, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BulkLoad(disk, cfg, pts[:n], rids)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if tree, err = Open(disk, cfg); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+extra; i++ {
		if err := tree.Insert(pts[i], RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := disk.Close(); err != nil { // the process dies: no Flush, no Close
		t.Fatal(err)
	}

	if disk, err = pagefile.OpenDiskFile(path, cfg.PageSize); err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	_, err = Open(disk, cfg)
	if !errors.Is(err, ErrUncleanShutdown) {
		t.Fatalf("Open of a file dropped mid-write: err %v, want ErrUncleanShutdown", err)
	}
	if !strings.Contains(err.Error(), "htree build") {
		t.Fatalf("error %q does not say how to rebuild", err)
	}
	wf, _, err := wal.Open(disk, wal.NewMemLog(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(wf, cfg); !errors.Is(err, ErrUncleanShutdown) {
		t.Fatalf("Open under a log of a file dropped mid-write: err %v, want ErrUncleanShutdown", err)
	}
}

// TestOldFormatMetaOpens: a metadata page in the layout of earlier
// versions, which named the head of a persisted ELS snapshot chain at byte
// 32 and its stale flag at byte 36, opens cleanly; the chain's pages are
// left unreferenced and the table is rebuilt from the data.
func TestOldFormatMetaOpens(t *testing.T) {
	const dim = 4
	cfg := Config{Dim: dim, PageSize: 512}
	pts, rids := seededPoints(57, 600, dim)
	for _, stale := range []byte{0, 1} {
		file := pagefile.NewMemFile(cfg.PageSize)
		tree, err := New(file, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			if err := tree.Insert(pts[i], rids[i]); err != nil {
				t.Fatal(err)
			}
		}
		chain, err := file.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := file.WritePage(chain, []byte{'E', 8, 0, 0, 0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		meta := make([]byte, 37)
		copy(meta, metaMagic)
		binary.LittleEndian.PutUint32(meta[8:], dim)
		binary.LittleEndian.PutUint32(meta[12:], uint32(tree.root))
		binary.LittleEndian.PutUint32(meta[16:], uint32(tree.height))
		binary.LittleEndian.PutUint64(meta[20:], uint64(tree.size))
		binary.LittleEndian.PutUint32(meta[28:], uint32(cfg.PageSize))
		binary.LittleEndian.PutUint32(meta[32:], uint32(chain))
		meta[36] = stale
		if err := file.WritePage(tree.meta, meta); err != nil {
			t.Fatal(err)
		}

		reopened, err := Open(file, cfg)
		if err != nil {
			t.Fatalf("stale byte %d: %v", stale, err)
		}
		if err := reopened.CheckInvariants(); err != nil {
			t.Fatalf("stale byte %d: %v", stale, err)
		}
		if !sameContents(contents(t, reopened), contents(t, tree)) {
			t.Fatalf("stale byte %d: reopened tree has other contents", stale)
		}
	}
}

// TestBulkLoadUnderWAL: a bulk-loaded tree on a log commits its inserts
// through the log like any other, so an acknowledged insert survives a
// crash of the log's unsynced tail and the file's unsynced pages.
func TestBulkLoadUnderWAL(t *testing.T) {
	const dim, n, extra = 8, 2000, 20
	inner := pagefile.NewCrashFile(1024)
	log := wal.NewMemLog()
	wf, _, err := wal.Open(pagefile.NewChecksumFile(inner), log, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dim: dim, PageSize: wf.PageSize()}
	pts, rids := seededPoints(59, n+extra, dim)
	tree, err := BulkLoad(wf, cfg, pts[:n], rids[:n])
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+extra; i++ {
		if err := tree.Insert(pts[i], rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	inner.Crash(61)
	log.Crash(62)

	if wf, _, err = wal.Open(pagefile.NewChecksumFile(inner), log, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	if tree, err = Open(wf, cfg); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != n+extra {
		t.Fatalf("recovered %d records, want %d", tree.Size(), n+extra)
	}
	for i := n; i < n+extra; i++ {
		if got, err := tree.SearchPoint(pts[i]); err != nil || len(got) != 1 {
			t.Fatalf("acknowledged insert %d found %v, err %v", i, got, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
