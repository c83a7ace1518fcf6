package pagefile

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
)

// fileImpls returns constructors for every File implementation so the same
// conformance suite runs against each.
func fileImpls(t *testing.T) map[string]func() File {
	t.Helper()
	return map[string]func() File{
		"mem": func() File { return NewMemFile(256) },
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
			f := mk()
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
		})
	}
}

func TestMemFileErrors(t *testing.T) {
	f := NewMemFile(128)
	buf := make([]byte, 128)
	if err := f.ReadPage(0, buf); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("out-of-bounds read err = %v", err)
	}
	id, _ := f.Allocate()
	if err := f.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(id, buf); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("freed read err = %v", err)
	}
	if err := f.Free(id); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("double free err = %v", err)
	}
	f.Close()
	if _, err := f.Allocate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed alloc err = %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	f := NewMemFile(64)
	id, _ := f.Allocate()
	buf := make([]byte, 64)
	_ = f.WritePage(id, []byte("x"))
	_ = f.ReadPage(id, buf)
	_ = f.ReadPage(id, buf)
	_ = f.ReadPageSeq(id, buf)
	s := f.Stats()
	if s.RandomReads != 2 || s.SeqReads != 1 || s.Writes != 1 || s.Allocs != 1 {
		t.Fatalf("stats = %+v", *s)
	}
	if s.Reads() != 3 {
		t.Fatalf("Reads() = %d", s.Reads())
	}
	s.Reset()
	if s.Reads() != 0 || s.Writes != 0 {
		t.Fatal("Reset did not zero stats")
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

func TestFaultFile(t *testing.T) {
	inner := NewMemFile(64)
	f := NewFaultFile(inner, 2)
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
}
