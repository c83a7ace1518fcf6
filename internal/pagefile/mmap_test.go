package pagefile

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// writeTestFile builds an on-disk page file with n deterministic pages and
// returns its path.
func writeTestFile(t *testing.T, pageSize, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.pag")
	df, err := CreateDiskFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id, err := df.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, pageSize)
		for j := range page {
			page[j] = byte(i*31 + j)
		}
		if err := df.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMmapRoundTrip writes pages through a DiskFile, reopens the file with
// MmapFile, and checks every page reads back byte-identical through both the
// random and sequential read paths, with the access counters tracking each.
func TestMmapRoundTrip(t *testing.T) {
	const pageSize, n = 512, 9
	path := writeTestFile(t, pageSize, n)

	mf, err := OpenMmapFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	t.Logf("mapped=%v", mf.Mapped())

	if mf.PageSize() != pageSize {
		t.Fatalf("PageSize = %d, want %d", mf.PageSize(), pageSize)
	}
	if mf.NumPages() != n {
		t.Fatalf("NumPages = %d, want %d", mf.NumPages(), n)
	}

	want := make([]byte, pageSize)
	got := make([]byte, pageSize)
	for i := 0; i < n; i++ {
		for j := range want {
			want[j] = byte(i*31 + j)
		}
		if err := mf.ReadPage(PageID(i), got); err != nil {
			t.Fatalf("ReadPage %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d: random read mismatch", i)
		}
		if err := mf.ReadPageSeq(PageID(i), got); err != nil {
			t.Fatalf("ReadPageSeq %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d: sequential read mismatch", i)
		}
	}
	st := mf.Stats().Snapshot()
	if st.RandomReads != n || st.SeqReads != n {
		t.Fatalf("stats = %d random / %d seq, want %d / %d", st.RandomReads, st.SeqReads, n, n)
	}
}

// TestMmapMatchesDiskFile reads the same file through DiskFile and MmapFile
// and demands identical bytes page for page — the property the read-only
// serving path relies on — then holds both to the conformance suite's
// read-side rules over that image.
func TestMmapMatchesDiskFile(t *testing.T) {
	const pageSize, n = 256, 17
	path := writeTestFile(t, pageSize, n)

	df, err := OpenDiskFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	mf, err := OpenMmapFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()

	a := make([]byte, pageSize)
	b := make([]byte, pageSize)
	for i := 0; i < n; i++ {
		if err := df.ReadPage(PageID(i), a); err != nil {
			t.Fatal(err)
		}
		if err := mf.ReadPage(PageID(i), b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d: DiskFile and MmapFile disagree", i)
		}
	}
	checkReads(t, df, n)
	checkReads(t, mf, n)
}

// TestMmapReadOnly verifies every mutating call fails with ErrReadOnly and
// leaves the file readable.
func TestMmapReadOnly(t *testing.T) {
	const pageSize = 128
	path := writeTestFile(t, pageSize, 2)
	mf, err := OpenMmapFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()

	if err := mf.WritePage(0, make([]byte, pageSize)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WritePage err = %v, want ErrReadOnly", err)
	}
	if _, err := mf.Allocate(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Allocate err = %v, want ErrReadOnly", err)
	}
	if err := mf.Free(0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Free err = %v, want ErrReadOnly", err)
	}
	buf := make([]byte, pageSize)
	if err := mf.ReadPage(1, buf); err != nil {
		t.Fatalf("read after rejected writes: %v", err)
	}
}

// TestMmapBoundsAndClose covers out-of-range reads, the empty file, and
// reads after Close.
func TestMmapBoundsAndClose(t *testing.T) {
	const pageSize = 128
	path := writeTestFile(t, pageSize, 3)
	mf, err := OpenMmapFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	if err := mf.ReadPage(3, buf); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("out-of-range read err = %v, want ErrPageBounds", err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := mf.ReadPage(0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v, want ErrClosed", err)
	}

	empty := writeTestFile(t, pageSize, 0)
	me, err := OpenMmapFile(empty, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if me.NumPages() != 0 {
		t.Fatalf("empty file NumPages = %d", me.NumPages())
	}
	if err := me.Close(); err != nil {
		t.Fatal(err)
	}
}
