package nodestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"hybridtree/internal/pagefile"
)

// intCodec stores a single int per page, for exercising the store.
type intCodec struct{}

func (intCodec) Encode(n int, buf []byte) (int, error) {
	if n < 0 {
		return 0, errors.New("negative")
	}
	binary.LittleEndian.PutUint64(buf, uint64(n))
	return 8, nil
}

func (intCodec) Decode(id pagefile.PageID, buf []byte) (int, error) {
	v := int(binary.LittleEndian.Uint64(buf))
	if v == 424242 {
		return 0, fmt.Errorf("poisoned page %d", id)
	}
	return v, nil
}

func TestStoreRoundTrip(t *testing.T) {
	file := pagefile.NewMemFile(64)
	s := New[int](file, intCodec{})
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id, 77); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("got %d", got)
	}
	// Decode path after cache drop.
	s.DropCache()
	got, err = s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("decoded %d", got)
	}
}

func TestStoreCountsLogicalReads(t *testing.T) {
	file := pagefile.NewMemFile(64)
	s := New[int](file, intCodec{})
	id, _ := s.Alloc()
	_ = s.Put(id, 5)
	file.Stats().Reset()
	for i := 0; i < 7; i++ {
		if _, err := s.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	// Cache hits still count as logical accesses: the cold-query metric.
	if got := file.Stats().Reads(); got != 7 {
		t.Fatalf("reads = %d, want 7", got)
	}
}

func TestStoreErrors(t *testing.T) {
	file := pagefile.NewMemFile(64)
	s := New[int](file, intCodec{})
	id, _ := s.Alloc()
	if err := s.Put(id, -1); err == nil {
		t.Fatal("encode error swallowed")
	}
	// Poisoned page: decode error must surface.
	buf := make([]byte, 64)
	binary.LittleEndian.PutUint64(buf, 424242)
	_ = file.WritePage(id, buf)
	if _, err := s.Get(id); err == nil {
		t.Fatal("decode error swallowed")
	}
}
