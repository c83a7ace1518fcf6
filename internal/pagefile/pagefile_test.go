package pagefile

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
)

// fileImpls returns constructors for every read-write File implementation
// so the same conformance suite runs against each. MmapFile, read-only,
// gets the read-side rules (checkReads) in TestMmapMatchesDiskFile.
func fileImpls(t *testing.T) map[string]func() File {
	t.Helper()
	return map[string]func() File{
		"mem":   func() File { return NewMemFile(256) },
		"crash": func() File { return NewCrashFile(256) },
		"disk": func() File {
			f, err := CreateDiskFile(filepath.Join(t.TempDir(), "pages.db"), 256)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
}

func TestFileConformance(t *testing.T) {
	for name, mk := range fileImpls(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("roundtrip", func(t *testing.T) { testRoundTrip(t, mk()) })
			t.Run("errors", func(t *testing.T) { testErrors(t, mk()) })
			t.Run("reads", func(t *testing.T) {
				f := mk()
				for i := 0; i < 3; i++ {
					id, err := f.Allocate()
					if err != nil {
						t.Fatal(err)
					}
					if err := f.WritePage(id, []byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
				}
				if s := f.Stats(); s.Allocs != 3 || s.Writes != 3 {
					t.Fatalf("stats = %+v, want 3 allocs and 3 writes", *s)
				}
				checkReads(t, f, 3)
			})
		})
	}
}

func testRoundTrip(t *testing.T, f File) {
	defer f.Close()
	if f.PageSize() != 256 {
		t.Fatalf("page size = %d", f.PageSize())
	}

	id1, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("Allocate returned duplicate ids")
	}

	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	if err := f.WritePage(id1, data); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(id2, []byte("short")); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 256)
	if err := f.ReadPage(id1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("page 1 round-trip mismatch")
	}
	if err := f.ReadPageSeq(id2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:5], []byte("short")) {
		t.Fatal("page 2 round-trip mismatch")
	}
	// Short writes zero-fill the remainder.
	for i := 5; i < 256; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d = %d, want 0 (zero fill)", i, buf[i])
		}
	}

	// Oversized write rejected.
	if err := f.WritePage(id1, make([]byte, 257)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize write err = %v, want ErrTooLarge", err)
	}

	// Free/reallocate reuses the id.
	if err := f.Free(id1); err != nil {
		t.Fatal(err)
	}
	id3, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Fatalf("freed id not reused: got %d want %d", id3, id1)
	}
}

// testErrors drives every failing path: none of them is charged as a read,
// and a closed file reports no live pages, freed ones notwithstanding.
func testErrors(t *testing.T, f File) {
	buf := make([]byte, f.PageSize())
	if err := f.ReadPage(0, buf); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("out-of-bounds read err = %v", err)
	}
	keep, _ := f.Allocate()
	id, _ := f.Allocate()
	if err := f.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(id, buf); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("freed read err = %v", err)
	}
	if err := f.ReadPageSeq(id, buf); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("freed seq read err = %v", err)
	}
	if err := f.WritePage(id, []byte("x")); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("freed write err = %v", err)
	}
	if err := f.Free(id); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("double free err = %v", err)
	}
	if s := f.Stats().Snapshot(); s.Reads() != 0 || s.Writes != 0 || s.Frees != 1 {
		t.Fatalf("failed operations were charged: %+v", s)
	}
	if n := f.NumPages(); n != 1 {
		t.Fatalf("NumPages = %d, want 1", n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := f.NumPages(); n != 0 {
		t.Fatalf("NumPages after Close = %d, want 0", n)
	}
	if _, err := f.Allocate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed alloc err = %v", err)
	}
	if err := f.WritePage(keep, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed write err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed sync err = %v", err)
	}
}

// checkReads asserts the read-side contract on f, which holds n live pages
// 0..n-1, and closes it: a read allocates nothing, each is charged by kind, a read that fails
// the bounds or closed check is not charged at all, and a closed file has
// no live pages.
func checkReads(t *testing.T, f File, n int) {
	t.Helper()
	buf := make([]byte, f.PageSize())
	if a := testing.AllocsPerRun(10, func() { _ = f.ReadPage(0, buf) }); a != 0 {
		t.Fatalf("ReadPage allocates %.1f times per call", a)
	}
	s := f.Stats()
	s.Reset()
	if s.Snapshot() != (Stats{}) {
		t.Fatalf("Reset left %+v", s.Snapshot())
	}
	if got := f.NumPages(); got != n {
		t.Fatalf("NumPages = %d, want %d", got, n)
	}
	for _, err := range []error{f.ReadPage(0, buf), f.ReadPage(PageID(n-1), buf), f.ReadPageSeq(0, buf)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{f.ReadPage(PageID(n), buf), f.ReadPageSeq(PageID(n), buf)} {
		if !errors.Is(err, ErrPageBounds) {
			t.Fatalf("out-of-bounds read err = %v, want ErrPageBounds", err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{f.ReadPage(0, buf), f.ReadPageSeq(0, buf)} {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("closed read err = %v, want ErrClosed", err)
		}
	}
	if got := s.Snapshot(); got.RandomReads != 2 || got.SeqReads != 1 || got.Reads() != 3 {
		t.Fatalf("reads charged = %d random / %d seq, want 2 / 1", got.RandomReads, got.SeqReads)
	}
	if got := f.NumPages(); got != 0 {
		t.Fatalf("NumPages after Close = %d, want 0", got)
	}
}

func TestNormalizedIO(t *testing.T) {
	var s Stats
	s.RandomReads = 10
	// 10 random reads over a 100-page file: cost 0.1.
	if got := s.NormalizedIO(100); got != 0.1 {
		t.Fatalf("normalized = %g, want 0.1", got)
	}
	s = Stats{SeqReads: 100}
	// A pure sequential scan of the whole file scores exactly 0.1 — the
	// paper's convention for linear scan.
	if got := s.NormalizedIO(100); got != 0.1 {
		t.Fatalf("seq normalized = %g, want 0.1", got)
	}
	if got := s.NormalizedIO(0); got != 0 {
		t.Fatalf("empty file normalized = %g, want 0", got)
	}
}

func TestDiskFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	want := make(map[PageID][]byte)
	for i := 0; i < 20; i++ {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 128)
		rng.Read(data)
		if err := f.WritePage(id, data); err != nil {
			t.Fatal(err)
		}
		want[id] = data
	}
	buf := make([]byte, 128)
	for id, data := range want {
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("page %d mismatch", id)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

// TestFaultFile burns the ChaosFile fuse: after its budget every kind of
// operation fails with ErrInjected.
func TestFaultFile(t *testing.T) {
	inner := NewMemFile(64)
	f := NewChaosFile(inner, ChaosProfile{}, 1)
	f.SetRemaining(2)
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Fuse burned: everything fails now.
	buf := make([]byte, 64)
	if err := f.ReadPage(0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if _, err := f.Allocate(); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := f.Free(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := f.ReadPageSeq(0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := f.WritePage(0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}
