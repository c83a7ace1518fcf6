package pagefile

import (
	"encoding/binary"
	"sync"
	"testing"
)

// TestMemFileConcurrentReads validates the File contract's reader side:
// any number of concurrent ReadPage/ReadPageSeq calls, with exact atomic
// accounting. Run with -race.
func TestMemFileConcurrentReads(t *testing.T) {
	f := NewMemFile(64)
	const pages = 32
	ids := make([]PageID, pages)
	buf := make([]byte, 64)
	for i := range ids {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(buf, uint64(i))
		if err := f.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	f.Stats().Reset()

	const goroutines = 8
	const rounds = 100
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				for i, id := range ids {
					var err error
					if (r+g)%2 == 0 {
						err = f.ReadPage(id, local)
					} else {
						err = f.ReadPageSeq(id, local)
					}
					if err != nil {
						errs <- err
						return
					}
					if got := binary.LittleEndian.Uint64(local); got != uint64(i) {
						t.Errorf("page %d read back %d", id, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := f.Stats().Reads(); got != uint64(goroutines*rounds*pages) {
		t.Fatalf("reads = %d, want %d", got, goroutines*rounds*pages)
	}
}
