package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"hybridtree/internal/pagefile"
)

const testPageSize = 256

// newStack builds a wal.File over a fresh CrashFile and MemLog.
func newStack(t *testing.T, opts Options) (*File, *pagefile.CrashFile, *MemLog) {
	t.Helper()
	inner := pagefile.NewCrashFile(testPageSize)
	log := NewMemLog()
	f, rec, err := Open(inner, log, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.Replayed != 0 || rec.Txs != 0 {
		t.Fatalf("fresh open replayed something: %+v", rec)
	}
	return f, inner, log
}

func mustAlloc(t *testing.T, f pagefile.File) pagefile.PageID {
	t.Helper()
	id, err := f.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	return id
}

func page(fill byte) []byte {
	p := make([]byte, testPageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func readPage(t *testing.T, f pagefile.File, id pagefile.PageID) []byte {
	t.Helper()
	buf := make([]byte, testPageSize)
	if err := f.ReadPage(id, buf); err != nil {
		t.Fatalf("ReadPage %d: %v", id, err)
	}
	return buf
}

// reopen simulates the post-crash restart: a new wal.File over the same
// (crashed) inner file and log.
func reopen(t *testing.T, inner pagefile.File, log LogStore, opts Options) (*File, Recovery) {
	t.Helper()
	f, rec, err := Open(inner, log, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return f, rec
}

func TestSealedTxSurvivesCrash(t *testing.T) {
	f, inner, log := newStack(t, Options{})
	a, b := mustAlloc(t, f), mustAlloc(t, f)

	f.BeginTx()
	if err := f.WritePage(a, page(0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(b, page(0xBB)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err != nil {
		t.Fatalf("SealTx: %v", err)
	}

	// Power cut: inner volatile state tears, but the log was fsynced.
	inner.Crash(1)
	log.Crash(2)
	f2, rec := reopen(t, inner, log, Options{})
	if rec.Txs != 1 || rec.Replayed != 2 {
		t.Fatalf("recovery = %+v, want 1 tx / 2 records", rec)
	}
	if got := readPage(t, f2, a); !bytes.Equal(got, page(0xAA)) {
		t.Fatalf("page a lost after recovery")
	}
	if got := readPage(t, f2, b); !bytes.Equal(got, page(0xBB)) {
		t.Fatalf("page b lost after recovery")
	}
}

func TestUncommittedRecordsNeverResurrect(t *testing.T) {
	f, inner, log := newStack(t, Options{})
	a := mustAlloc(t, f)
	if err := f.WritePage(a, page(0x01)); err != nil { // auto-commit
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // checkpoint: 0x01 durable
		t.Fatal(err)
	}

	// Forge the failure mode where write records reach the log but their
	// commit frame does not (torn off by the crash): they must be
	// discarded, not replayed.
	frames := appendWrite(nil, a, page(0x02))
	if err := log.Append(frames); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil { // survives the crash intact, still uncommitted
		t.Fatal(err)
	}
	inner.Crash(4)
	f2, rec := reopen(t, inner, log, Options{})
	if rec.Discarded != 1 {
		t.Fatalf("Discarded = %d, want 1 (recovery: %+v)", rec.Discarded, rec)
	}
	if got := readPage(t, f2, a); !bytes.Equal(got, page(0x01)) {
		t.Fatalf("uncommitted write resurrected: page = %x...", got[0])
	}
}

func TestTornTailDetectedAndTruncated(t *testing.T) {
	f, inner, log := newStack(t, Options{})
	a := mustAlloc(t, f)
	if err := f.WritePage(a, page(0x11)); err != nil {
		t.Fatal(err)
	}
	f.BeginTx()
	if err := f.WritePage(a, page(0x22)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err != nil {
		t.Fatal(err)
	}
	// Garbage after the last valid frame: a torn append.
	if err := log.Append([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	inner.Crash(5)
	f2, rec := reopen(t, inner, log, Options{})
	if rec.TornBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", rec)
	}
	if log.Size() != rec.TruncatedTo {
		t.Fatalf("log not truncated: size %d, want %d", log.Size(), rec.TruncatedTo)
	}
	if got := readPage(t, f2, a); !bytes.Equal(got, page(0x22)) {
		t.Fatalf("committed write lost to torn tail")
	}
}

func TestCheckpointTruncatesAndSurvives(t *testing.T) {
	f, inner, log := newStack(t, Options{})
	a := mustAlloc(t, f)
	f.BeginTx()
	if err := f.WritePage(a, page(0x33)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if log.Size() != 0 {
		t.Fatalf("log size %d after checkpoint, want 0", log.Size())
	}
	if f.OverlayPages() != 0 {
		t.Fatalf("overlay %d pages after checkpoint, want 0", f.OverlayPages())
	}
	inner.Crash(6)
	f2, rec := reopen(t, inner, log, Options{})
	if rec.Replayed != 0 {
		t.Fatalf("checkpointed state should need no replay: %+v", rec)
	}
	if got := readPage(t, f2, a); !bytes.Equal(got, page(0x33)) {
		t.Fatalf("checkpointed page lost")
	}
}

func TestSealRewindsOnFsyncFailure(t *testing.T) {
	f, inner, log := newStack(t, Options{})
	a := mustAlloc(t, f)
	if err := f.WritePage(a, page(0x44)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	log.FailNextSyncs(1)
	f.BeginTx()
	if err := f.WritePage(a, page(0x55)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err == nil {
		t.Fatalf("SealTx succeeded despite fsync failure")
	}
	if log.Size() != 0 {
		t.Fatalf("failed tx left %d bytes in the log", log.Size())
	}
	// No repair write: the failed seal never reached the overlay.
	inner.Crash(7)
	log.Crash(8)
	f2, rec := reopen(t, inner, log, Options{})
	_ = rec
	if got := readPage(t, f2, a); !bytes.Equal(got, page(0x44)) {
		t.Fatalf("failed-fsync tx resurrected: page = %x...", got[0])
	}
}

func TestFsyncEveryAmortizes(t *testing.T) {
	f, _, log := newStack(t, Options{FsyncEvery: 4})
	a := mustAlloc(t, f)
	for i := 0; i < 3; i++ {
		f.BeginTx()
		if err := f.WritePage(a, page(byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := f.SealTx(); err != nil {
			t.Fatal(err)
		}
		if log.syncedBytes() != 0 {
			t.Fatalf("commit %d forced an fsync with FsyncEvery=4", i)
		}
	}
	f.BeginTx()
	if err := f.WritePage(a, page(9)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(log.syncedBytes()), log.Size(); got != want {
		t.Fatalf("4th commit did not fsync: synced %d, size %d", got, want)
	}
}

func TestAbortDropsStagedRecords(t *testing.T) {
	f, inner, log := newStack(t, Options{})
	a := mustAlloc(t, f)
	if err := f.WritePage(a, page(0x66)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	before := log.Size()
	f.BeginTx()
	if err := f.WritePage(a, page(0x77)); err != nil {
		t.Fatal(err)
	}
	f.AbortTx()
	if log.Size() != before {
		t.Fatalf("aborted tx reached the log")
	}
	inner.Crash(9)
	log.Crash(10)
	f2, _ := reopen(t, inner, log, Options{})
	if got := readPage(t, f2, a); !bytes.Equal(got, page(0x66)) {
		t.Fatalf("aborted tx visible after recovery")
	}
}

func TestReplayIsIdempotentAcrossRepeatedCrashes(t *testing.T) {
	f, inner, log := newStack(t, Options{})
	a := mustAlloc(t, f)
	f.BeginTx()
	if err := f.WritePage(a, page(0x88)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err != nil {
		t.Fatal(err)
	}
	// Crash, recover, crash again without checkpointing: the log must keep
	// carrying the committed state.
	for seed := int64(20); seed < 23; seed++ {
		inner.Crash(seed)
		log.Crash(seed + 100)
		var rec Recovery
		f, rec = reopen(t, inner, log, Options{})
		if rec.Txs != 1 || rec.Replayed != 1 {
			t.Fatalf("seed %d: recovery %+v, want 1 tx / 1 record", seed, rec)
		}
		if got := readPage(t, f, a); !bytes.Equal(got, page(0x88)) {
			t.Fatalf("seed %d: committed write lost", seed)
		}
	}
}

func TestOpenRejectsReadOnlyBase(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	df, err := pagefile.CreateDiskFile(path, testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	mf, err := pagefile.OpenMmapFile(path, testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	_, _, err = Open(mf, NewMemLog(), Options{})
	if !errors.Is(err, ErrReadOnlyBase) {
		t.Fatalf("Open over mmap: err = %v, want ErrReadOnlyBase", err)
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	log, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	inner := pagefile.NewCrashFile(testPageSize)
	f, _, err := Open(inner, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAlloc(t, f)
	f.BeginTx()
	if err := f.WritePage(a, page(0x99)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen the log from disk; the inner CrashFile loses its volatile
	// state as if the process died.
	inner.Crash(30)
	log2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	f2, rec, err := Open(inner, log2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Txs != 1 {
		t.Fatalf("recovery from FileLog: %+v", rec)
	}
	if got := readPage(t, f2, a); !bytes.Equal(got, page(0x99)) {
		t.Fatalf("FileLog-backed recovery lost the committed write")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != rec.TruncatedTo {
		t.Fatalf("log file size %v/%v, want %d", fi, err, rec.TruncatedTo)
	}
}

// TestConcurrentReadsDuringMutations: the MVCC layer above serves
// lock-free searches whose cold-cache misses read through the file while
// a writer mutates the overlay. Run under -race this is the regression
// test for the unguarded overlay map (concurrent map read and map write).
func TestConcurrentReadsDuringMutations(t *testing.T) {
	f, _, _ := newStack(t, Options{})
	const npages = 8
	ids := make([]pagefile.PageID, npages)
	for i := range ids {
		ids[i] = mustAlloc(t, f)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			buf := make([]byte, testPageSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(i+r)%npages]
				if err := f.ReadPage(id, buf); err != nil {
					t.Errorf("ReadPage: %v", err)
					return
				}
				if err := f.ReadPageSeq(id, buf); err != nil {
					t.Errorf("ReadPageSeq: %v", err)
					return
				}
				_ = f.OverlayPages()
			}
		}(r)
	}

	// One writer (mutations are externally excluded from each other, not
	// from reads): transactions, auto-commits, and checkpoints. The
	// Gosched forces reader/writer interleaving even on GOMAXPROCS=1,
	// where the loop would otherwise run to completion before any reader
	// is scheduled and the race would go unexercised.
	for i := 0; i < 200; i++ {
		runtime.Gosched()
		f.BeginTx()
		if err := f.WritePage(ids[i%npages], page(byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := f.WritePage(ids[(i+1)%npages], page(byte(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := f.SealTx(); err != nil {
			t.Fatal(err)
		}
		if i%17 == 0 {
			if err := f.WritePage(ids[i%npages], page(0xEE)); err != nil {
				t.Fatal(err)
			}
		}
		if i%31 == 0 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
}

// TestFailedRewindBricksTheWAL: when the commit fsync fails AND the rewind
// cannot be made durable either, the on-disk log may still hold the
// rejected transaction — so the WAL must refuse every further mutation
// instead of letting later commits stack on an unknown prefix.
func TestFailedRewindBricksTheWAL(t *testing.T) {
	f, _, log := newStack(t, Options{})
	a := mustAlloc(t, f)
	if err := f.WritePage(a, page(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	log.FailNextSyncs(2) // commit fsync, then the rewind fsync
	f.BeginTx()
	if err := f.WritePage(a, page(0x22)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err == nil {
		t.Fatalf("SealTx succeeded despite fsync failure")
	}

	if err := f.WritePage(a, page(0x33)); !errors.Is(err, ErrBroken) {
		t.Fatalf("WritePage after failed rewind: %v, want ErrBroken", err)
	}
	f.BeginTx()
	if err := f.SealTx(); !errors.Is(err, ErrBroken) {
		t.Fatalf("SealTx after failed rewind: %v, want ErrBroken", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrBroken) {
		t.Fatalf("Sync after failed rewind: %v, want ErrBroken", err)
	}
	// Reads still serve the last committed image, never the rejected one.
	if got := readPage(t, f, a); !bytes.Equal(got, page(0x11)) {
		t.Fatalf("read after brick: %x...", got[0])
	}
}

// TestUncommittedWritesAreInvisible: the file is no-steal within a
// transaction too. Staged writes reach neither the overlay nor the log
// until the commit is durable, so while a transaction is open, after an
// abort and after a failed seal, every read returns the last committed
// bytes and the replay work a crash would need is unchanged.
func TestUncommittedWritesAreInvisible(t *testing.T) {
	cases := []struct {
		name string
		end  func(t *testing.T, f *File, log *MemLog)
	}{
		{"open tx", func(*testing.T, *File, *MemLog) {}},
		{"after AbortTx", func(_ *testing.T, f *File, _ *MemLog) { f.AbortTx() }},
		{"after failed SealTx", func(t *testing.T, f *File, log *MemLog) {
			log.FailNextSyncs(1)
			if err := f.SealTx(); err == nil {
				t.Fatal("SealTx succeeded despite fsync failure")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, _, log := newStack(t, Options{})
			a, b := mustAlloc(t, f), mustAlloc(t, f)
			// a's committed image is in the inner file, b's in the overlay.
			if err := f.WritePage(a, page(0x11)); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			f.BeginTx()
			if err := f.WritePage(b, page(0x22)); err != nil {
				t.Fatal(err)
			}
			if err := f.SealTx(); err != nil {
				t.Fatal(err)
			}
			overlay, size := f.OverlayPages(), log.Size()

			f.BeginTx()
			for _, id := range []pagefile.PageID{a, b, a} {
				if err := f.WritePage(id, page(0xEE)); err != nil {
					t.Fatal(err)
				}
			}
			tc.end(t, f, log)

			if got := readPage(t, f, a); !bytes.Equal(got, page(0x11)) {
				t.Fatalf("page a reads %x..., want the committed 11", got[0])
			}
			if got := readPage(t, f, b); !bytes.Equal(got, page(0x22)) {
				t.Fatalf("page b reads %x..., want the committed 22", got[0])
			}
			if got := f.OverlayPages(); got != overlay {
				t.Fatalf("overlay holds %d pages, want %d", got, overlay)
			}
			if got := log.Size(); got != size {
				t.Fatalf("log is %d bytes, want %d", got, size)
			}
		})
	}
}

// TestRewindIsDurable: a successful rewind fsyncs the truncation, so the
// durable watermark lands exactly on the rewound position — a crash right
// after the failed commit cannot resurrect it from OS-buffered pages.
func TestRewindIsDurable(t *testing.T) {
	f, inner, log := newStack(t, Options{})
	a := mustAlloc(t, f)
	if err := f.WritePage(a, page(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	log.FailNextSyncs(1)
	f.BeginTx()
	if err := f.WritePage(a, page(0x22)); err != nil {
		t.Fatal(err)
	}
	if err := f.SealTx(); err == nil {
		t.Fatalf("SealTx succeeded despite fsync failure")
	}
	if got, want := log.syncedBytes(), int(log.Size()); got != want {
		t.Fatalf("rewind not durable: synced %d, size %d", got, want)
	}
	// Crash right away: recovery must never see the rejected commit.
	inner.Crash(40)
	log.Crash(41)
	f2, _ := reopen(t, inner, log, Options{})
	if got := readPage(t, f2, a); !bytes.Equal(got, page(0x11)) {
		t.Fatalf("rejected commit resurrected: page = %x...", got[0])
	}
}

// TestRewoundCommitNotCountedByFsyncEvery: the rewind fsync resets the
// group-commit batching counter, so a rewound commit cannot make the next
// group fsync fire early (or late).
func TestRewoundCommitNotCountedByFsyncEvery(t *testing.T) {
	f, _, log := newStack(t, Options{FsyncEvery: 2})
	a := mustAlloc(t, f)

	seal := func(fill byte) error {
		f.BeginTx()
		if err := f.WritePage(a, page(fill)); err != nil {
			t.Fatal(err)
		}
		return f.SealTx()
	}
	if err := seal(0x01); err != nil { // unsynced=1: below the batch
		t.Fatal(err)
	}
	log.FailNextSyncs(1)
	if err := seal(0x02); err == nil { // batch fsync fails, rewinds
		t.Fatalf("SealTx succeeded despite fsync failure")
	}
	// The rewind fsync made everything durable; the counter must be back
	// at zero, so this commit is the first of a fresh batch: no fsync.
	syncedBefore := log.syncedBytes()
	if err := seal(0x03); err != nil {
		t.Fatal(err)
	}
	if got := log.syncedBytes(); got != syncedBefore {
		t.Fatalf("commit after rewind fsynced (synced %d -> %d): rewound commit still counted toward FsyncEvery", syncedBefore, got)
	}
	if log.Size() == int64(syncedBefore) {
		t.Fatalf("commit after rewind appended nothing")
	}
}

// TestFileLogShortReadDetected: a log file shorter than the tracked size
// (external truncation, a lost append) must surface as an error from
// Contents, not as a silently zero-padded buffer handed to recovery.
func TestFileLogShortReadDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	data := bytes.Repeat([]byte{0x5A}, 1024)
	if err := log.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Contents(); err == nil {
		t.Fatalf("Contents returned zero-padded buffer for a short log")
	}
}

// TestCommitWritesBack: with healthy storage every commit leaves the
// overlay empty. Each committed image is in the inner file, and each page
// write is counted once, when it reaches the inner file. Auto-committed
// writes wait for the next commit's log fsync and are written back then.
func TestCommitWritesBack(t *testing.T) {
	f, inner, _ := newStack(t, Options{})
	ids := []pagefile.PageID{mustAlloc(t, f), mustAlloc(t, f), mustAlloc(t, f)}
	want := map[pagefile.PageID]byte{}
	check := func(when string) {
		t.Helper()
		if got := f.OverlayPages(); got != 0 {
			t.Fatalf("%s: overlay holds %d pages, want 0", when, got)
		}
		for id, fill := range want {
			if got := readPage(t, inner, id); !bytes.Equal(got, page(fill)) {
				t.Fatalf("%s: inner page %d reads %x..., want %x", when, id, got[0], fill)
			}
		}
	}
	if err := f.WritePage(ids[2], page(0x01)); err != nil { // auto-commit
		t.Fatal(err)
	}
	if got := f.OverlayPages(); got != 1 {
		t.Fatalf("auto-commit: overlay holds %d pages, want 1 until the next log fsync", got)
	}
	want[ids[2]] = 0x01
	for i := 0; i < 6; i++ {
		writes := f.Stats().Writes
		f.BeginTx()
		for j, id := range ids[:2] {
			fill := byte(0x10*i + j + 2)
			if err := f.WritePage(id, page(fill)); err != nil {
				t.Fatal(err)
			}
			want[id] = fill
		}
		if got := f.Stats().Writes - writes; got != 0 {
			t.Fatalf("commit %d: %d writes counted before the seal", i, got)
		}
		if err := f.SealTx(); err != nil {
			t.Fatal(err)
		}
		wantWrites := uint64(2)
		if i == 0 {
			wantWrites = 3 // the auto-committed page rode this fsync
		}
		if got := f.Stats().Writes - writes; got != wantWrites {
			t.Fatalf("commit %d: %d writes counted, want %d", i, got, wantWrites)
		}
		check(fmt.Sprintf("commit %d", i))
	}
}

// TestFailedWriteBackStaysInOverlay: a write-back that fails, or that a
// silent short write makes read back differently, keeps the committed image
// in the overlay. The commit itself stands: reads return its image, the
// next checkpoint repairs the inner page, and a crash before that
// checkpoint recovers the image from the log.
func TestFailedWriteBackStaysInOverlay(t *testing.T) {
	faults := []struct {
		name    string
		profile pagefile.ChaosProfile
	}{
		{"write error", pagefile.ChaosProfile{WriteErr: 1}},
		{"silent short write", pagefile.ChaosProfile{WriteShort: 1}},
	}
	for _, fault := range faults {
		for _, crash := range []bool{false, true} {
			name := fault.name + "/checkpoint"
			if crash {
				name = fault.name + "/crash"
			}
			t.Run(name, func(t *testing.T) {
				inner := pagefile.NewCrashFile(testPageSize)
				chaos := pagefile.NewChaosFile(inner, fault.profile, 3)
				chaos.SetEnabled(false)
				log := NewMemLog()
				f, _, err := Open(chaos, log, Options{})
				if err != nil {
					t.Fatal(err)
				}
				a := mustAlloc(t, f)
				if err := f.WritePage(a, page(0x11)); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}

				chaos.SetEnabled(true)
				f.BeginTx()
				if err := f.WritePage(a, page(0x22)); err != nil {
					t.Fatal(err)
				}
				if err := f.SealTx(); err != nil {
					t.Fatalf("a failed write-back failed the commit: %v", err)
				}
				chaos.SetEnabled(false)
				if c := chaos.Counts(); c.Total() != 1 {
					t.Fatalf("chaos injected %+v, want exactly one fault", c)
				}
				if got := f.OverlayPages(); got != 1 {
					t.Fatalf("overlay holds %d pages, want the failed one", got)
				}
				if got := readPage(t, inner, a); bytes.Equal(got, page(0x22)) {
					t.Fatal("the inner page holds the image the fault was meant to stop")
				}
				if got := readPage(t, f, a); !bytes.Equal(got, page(0x22)) {
					t.Fatalf("page reads %x..., want the committed 22", got[0])
				}

				if crash {
					inner.Crash(50)
					log.Crash(51)
					f2, rec := reopen(t, inner, log, Options{})
					if rec.Txs != 1 {
						t.Fatalf("recovery %+v, want the one commit", rec)
					}
					if got := readPage(t, f2, a); !bytes.Equal(got, page(0x22)) {
						t.Fatalf("after the crash page reads %x..., want the committed 22", got[0])
					}
					return
				}
				if err := f.Sync(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				if got := f.OverlayPages(); got != 0 {
					t.Fatalf("overlay holds %d pages after the checkpoint, want 0", got)
				}
				if got := readPage(t, inner, a); !bytes.Equal(got, page(0x22)) {
					t.Fatalf("checkpoint left the inner page at %x..., want 22", got[0])
				}
			})
		}
	}
}

// logWatchFile is an inner file that counts page writes and those made
// while the log still held bytes no fsync had covered.
type logWatchFile struct {
	pagefile.File
	log           *MemLog
	writes, early int
}

func (w *logWatchFile) WritePage(id pagefile.PageID, data []byte) error {
	w.writes++
	if int64(w.log.syncedBytes()) != w.log.Size() {
		w.early++
	}
	return w.File.WritePage(id, data)
}

// TestWriteBackWaitsForLogFsync: log before data. With FsyncEvery 3 the
// first commits, and an auto-committed write, wait in the overlay; the
// commit whose fsync covers them writes them all back, and no page reaches
// the inner file while the log holds an unsynced byte. A commit whose fsync
// fails writes nothing back.
func TestWriteBackWaitsForLogFsync(t *testing.T) {
	log := NewMemLog()
	inner := &logWatchFile{File: pagefile.NewCrashFile(testPageSize), log: log}
	f, _, err := Open(inner, log, Options{FsyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := mustAlloc(t, f), mustAlloc(t, f), mustAlloc(t, f)
	seal := func(id pagefile.PageID, fill byte) error {
		f.BeginTx()
		if err := f.WritePage(id, page(fill)); err != nil {
			t.Fatal(err)
		}
		return f.SealTx()
	}
	for i, step := range []func() error{
		func() error { return seal(a, 0xA1) },
		func() error { return seal(b, 0xB1) },
		func() error { return f.WritePage(c, page(0xC1)) }, // auto-commit
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if inner.writes != 0 || f.OverlayPages() != i+1 {
			t.Fatalf("step %d: %d inner writes, %d overlay pages; want 0 and %d",
				i, inner.writes, f.OverlayPages(), i+1)
		}
	}
	if err := seal(a, 0xA2); err != nil { // the fsync covering all four
		t.Fatal(err)
	}
	if inner.writes != 3 || inner.early != 0 || f.OverlayPages() != 0 {
		t.Fatalf("covering commit: %d inner writes (%d before the fsync), %d overlay pages; want 3, 0, 0",
			inner.writes, inner.early, f.OverlayPages())
	}
	for id, fill := range map[pagefile.PageID]byte{a: 0xA2, b: 0xB1, c: 0xC1} {
		if got := readPage(t, inner, id); !bytes.Equal(got, page(fill)) {
			t.Fatalf("inner page %d reads %x..., want %x", id, got[0], fill)
		}
	}

	for i := 0; i < 2; i++ { // unsynced commits 1 and 2 of the next batch
		if err := seal(b, byte(0xB2+i)); err != nil {
			t.Fatal(err)
		}
	}
	log.FailNextSyncs(1)
	if err := seal(c, 0xC2); err == nil {
		t.Fatal("SealTx succeeded despite the failed fsync")
	}
	if inner.writes != 3 {
		t.Fatalf("a failed commit wrote %d pages back", inner.writes-3)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if inner.early != 0 || f.OverlayPages() != 0 {
		t.Fatalf("checkpoint: %d writes before the fsync, %d overlay pages", inner.early, f.OverlayPages())
	}
	if got := readPage(t, inner, b); !bytes.Equal(got, page(0xB3)) {
		t.Fatalf("inner page b reads %x..., want b3", got[0])
	}
	if got := readPage(t, inner, c); !bytes.Equal(got, page(0xC1)) {
		t.Fatalf("inner page c reads %x..., want the committed c1", got[0])
	}
}

// syncedBytes returns the durable watermark in bytes.
func (l *MemLog) syncedBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}
