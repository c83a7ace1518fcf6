package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// finish stamps a trace with a synthetic elapsed time and delivers it to
// its sink, bypassing the wall clock so admission tests are deterministic.
func finish(tr *Trace, elapsed time.Duration) {
	tr.Elapsed = elapsed
	if tr.sink != nil {
		tr.sink(tr)
	}
}

func TestSlowRecorderThresholdAndTopK(t *testing.T) {
	r := NewSlowRecorder(3, 10*time.Millisecond)
	// Below threshold: observed but never admitted.
	finish(r.StartTrace("fast"), 1*time.Millisecond)
	if r.retained() != 0 {
		t.Fatalf("sub-threshold trace retained")
	}
	// Fill to K.
	for _, d := range []time.Duration{20, 30, 40} {
		finish(r.StartTrace("slow"), d*time.Millisecond)
	}
	if r.retained() != 3 {
		t.Fatalf("retained = %d, want 3", r.retained())
	}
	// A trace slower than the floor evicts the 20ms one...
	finish(r.StartTrace("slower"), 50*time.Millisecond)
	// ...and one at/below the floor is rejected.
	finish(r.StartTrace("floor"), 25*time.Millisecond)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	want := []time.Duration{50, 40, 30}
	for i, tr := range snap {
		if tr.Elapsed != want[i]*time.Millisecond {
			t.Fatalf("snapshot[%d].Elapsed = %v, want %v (order: slowest first)", i, tr.Elapsed, want[i]*time.Millisecond)
		}
	}
	if r.Observed() != 6 {
		t.Fatalf("observed = %d, want 6", r.Observed())
	}
	if r.admitted.Load() != 4 {
		t.Fatalf("admitted = %d, want 4 (3 fills + 1 eviction)", r.admitted.Load())
	}
}

func TestSlowRecorderSetThreshold(t *testing.T) {
	r := NewSlowRecorder(8, 0)
	if r.threshold() != 0 {
		t.Fatalf("threshold = %v", r.threshold())
	}
	finish(r.StartTrace("any"), 1)
	if r.retained() != 1 {
		t.Fatal("zero threshold must admit everything")
	}
	r.setThreshold(time.Second)
	finish(r.StartTrace("fast"), time.Millisecond)
	if r.retained() != 1 {
		t.Fatal("raised threshold admitted a fast trace")
	}
}

func TestSlowRecorderConcurrentCollect(t *testing.T) {
	r := NewSlowRecorder(16, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				finish(r.StartTrace("op"), time.Duration(w*1000+i))
			}
		}(w)
	}
	wg.Wait()
	if r.Observed() != 4000 {
		t.Fatalf("observed = %d", r.Observed())
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("retained = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Elapsed > snap[i-1].Elapsed {
			t.Fatalf("snapshot not sorted at %d: %v > %v", i, snap[i].Elapsed, snap[i-1].Elapsed)
		}
	}
	// Values are w*1000+i, w<8, i<500; the 16 slowest are 7484..7499.
	if snap[0].Elapsed != 7499 || snap[15].Elapsed != 7484 {
		t.Fatalf("top-K wrong: [%v .. %v]", snap[0].Elapsed, snap[15].Elapsed)
	}
}

func TestTeeFansOut(t *testing.T) {
	ring := NewRing(4)
	slow := NewSlowRecorder(4, 0)
	tr := Tee(ring, slow).StartTrace("box")
	if tr == nil {
		t.Fatal("tee returned nil trace")
	}
	finish(tr, time.Millisecond)
	if ring.Total() != 1 {
		t.Fatalf("ring missed the trace: total=%d", ring.Total())
	}
	if slow.Observed() != 1 || slow.retained() != 1 {
		t.Fatalf("recorder missed the trace: observed=%d", slow.Observed())
	}
}

func TestTeeSkipsNils(t *testing.T) {
	var nilRing *Ring
	var nilSlow *SlowRecorder
	if tr := Tee(nil, nilRing, nilSlow).StartTrace("x"); tr != nil {
		t.Fatal("all-nil tee must be the nop tracer")
	}
	ring := NewRing(2)
	tr := Tee(nilSlow, ring).StartTrace("x")
	finish(tr, 1)
	if ring.Total() != 1 {
		t.Fatal("tee with one live collector dropped the trace")
	}
}

func TestStageSetJSONAndString(t *testing.T) {
	tr := NewTrace("knn")
	tr.AddQueueWait(1000)
	tr.AddQueueWait(-5) // ignored
	tr.AddPageRead(2000)
	tr.AddPageRead(3000)
	tr.AddWALFsync(4000)
	tr.AddCompute(500)
	tr.Elapsed = 12000
	s := tr.Stages
	if s == nil || s.QueueWaitNs != 1000 || s.PageReads != 2 || s.PageReadNs != 5000 ||
		s.WALFsyncs != 1 || s.ComputeOps != 1 {
		t.Fatalf("stage set = %+v", s)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"queue_wait_ns":1000`) || !strings.Contains(string(data), `"page_reads":2`) {
		t.Fatalf("stage JSON missing fields: %s", data)
	}
	out := tr.String()
	if !strings.Contains(out, "stages:") || !strings.Contains(out, "queue_wait=") || !strings.Contains(out, "other=") {
		t.Fatalf("String() missing stage line:\n%s", out)
	}

	// Stage-free traces stay lean: no Stages allocation, no JSON noise.
	plain := NewTrace("box")
	if data, _ := json.Marshal(plain); strings.Contains(string(data), "stages") {
		t.Fatalf("stage-free trace leaked stages into JSON: %s", data)
	}

	// Nil traces swallow stage calls like every other Trace method.
	var nilTr *Trace
	nilTr.AddQueueWait(1)
	nilTr.AddPageRead(1)
	nilTr.AddWALFsync(1)
	nilTr.AddCompute(1)
}

// setThreshold replaces the admission threshold; already-retained faster
// traces stay until evicted by slower ones.
func (r *SlowRecorder) setThreshold(d time.Duration) { r.thresholdNs.Store(int64(d)) }

// threshold returns the current admission threshold.
func (r *SlowRecorder) threshold() time.Duration { return time.Duration(r.thresholdNs.Load()) }

// retained returns how many traces are currently held.
func (r *SlowRecorder) retained() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.heap)
}
