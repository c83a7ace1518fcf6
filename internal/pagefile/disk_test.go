package pagefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenDiskFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.db")
	f, err := CreateDiskFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := f.WritePage(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDiskFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != 5 {
		t.Fatalf("reopened pages = %d, want 5", re.NumPages())
	}
	buf := make([]byte, 256)
	for i, id := range ids {
		if err := re.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d content = %d", id, buf[0])
		}
	}
	// Allocation resumes past the end.
	id, err := re.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Fatalf("new allocation = %d, want 5", id)
	}
}

func TestOpenDiskFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDiskFile(filepath.Join(dir, "missing.db"), 256); err == nil {
		t.Fatal("missing file opened")
	}
	// Size not a multiple of the page size.
	ragged := filepath.Join(dir, "ragged.db")
	if err := os.WriteFile(ragged, make([]byte, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskFile(ragged, 256); err == nil {
		t.Fatal("ragged file accepted")
	}
}

func TestDiskFileErrorPaths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "err.db")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := f.ReadPage(0, buf); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("oob read err = %v", err)
	}
	id, _ := f.Allocate()
	if err := f.WritePage(id, make([]byte, 129)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize err = %v", err)
	}
	if err := f.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPageSeq(id, buf); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("freed read err = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed alloc err = %v", err)
	}
	if err := f.ReadPage(id, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed read err = %v", err)
	}
}

// TestDiskFileWritePage checks that a full-page write goes to the OS file
// without a copy, and that short writes, which share one padding buffer,
// are each zero-padded to the page.
func TestDiskFileWritePage(t *testing.T) {
	f, err := CreateDiskFile(filepath.Join(t.TempDir(), "write.db"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	full := bytes.Repeat([]byte{0xff}, 256)
	if a := testing.AllocsPerRun(10, func() { _ = f.WritePage(id, full) }); a != 0 {
		t.Fatalf("full-page WritePage allocates %.1f times per call", a)
	}
	buf := make([]byte, 256)
	for _, data := range [][]byte{full, []byte("short write"), []byte("x")} {
		if err := f.WritePage(id, data); err != nil {
			t.Fatal(err)
		}
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 256)
		copy(want, data)
		if !bytes.Equal(buf, want) {
			t.Fatalf("after writing %d bytes the page reads %q", len(data), buf)
		}
	}
}
