package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRingConcurrentPushSnapshot stress-tests concurrent trace delivery
// against snapshotting — run under -race in CI, where the interesting
// assertions are the detector's.
func TestRingConcurrentPushSnapshot(t *testing.T) {
	const capacity = 32
	r := NewRing(capacity)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				tr := r.StartTrace("op")
				tr.Visit(-1, uint32(i), true, true)
				tr.FinishSince(time.Now())
			}
		}()
	}

	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			if len(snap) > capacity {
				t.Errorf("snapshot len %d > cap %d", len(snap), capacity)
				return
			}
			for _, tr := range snap {
				if tr == nil {
					t.Error("nil trace in snapshot")
					return
				}
				_ = tr.Op
			}
		}
	}()

	writers.Wait()
	close(stop)
	select {
	case <-snapDone:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshotter did not stop")
	}
	if r.Total() != 8000 {
		t.Fatalf("total = %d, want 8000", r.Total())
	}
}
