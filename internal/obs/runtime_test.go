package obs

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRuntimeSamplerSample(t *testing.T) {
	reg := NewRegistry()
	s := newRuntimeSampler(reg)
	runtime.GC() // guarantee at least one GC cycle and pause to fold in
	s.Sample()

	if got := reg.Gauge("go_goroutines").Value(); got < 1 {
		t.Fatalf("go_goroutines = %d", got)
	}
	if got := reg.Gauge("go_gomaxprocs").Value(); got < 1 {
		t.Fatalf("go_gomaxprocs = %d", got)
	}
	if got := reg.Gauge("go_memory_total_bytes").Value(); got <= 0 {
		t.Fatalf("go_memory_total_bytes = %d", got)
	}
	if got := reg.Gauge("go_gc_cycles_total").Value(); got < 1 {
		t.Fatalf("go_gc_cycles_total = %d after explicit GC", got)
	}
	if got := reg.Histogram("go_gc_pause_ns").Count(); got < 1 {
		t.Fatalf("go_gc_pause_ns count = %d after explicit GC", got)
	}

	// A second sample folds only the delta: pause count must not double.
	before := reg.Histogram("go_gc_pause_ns").Count()
	s.Sample()
	after := reg.Histogram("go_gc_pause_ns").Count()
	if after < before {
		t.Fatalf("pause count went backwards: %d -> %d", before, after)
	}
	runtime.GC()
	s.Sample()
	if got := reg.Histogram("go_gc_pause_ns").Count(); got <= after {
		t.Fatalf("new GC cycle added no pause delta: %d -> %d", after, got)
	}
}

func TestRuntimeSamplerStartStop(t *testing.T) {
	reg := NewRegistry()
	s := StartRuntimeSampler(reg, 100*time.Millisecond)
	if got := reg.Gauge("go_goroutines").Value(); got < 1 {
		t.Fatalf("initial sample missing: go_goroutines = %d", got)
	}
	s.Stop()
	s.Stop() // idempotent

	// A never-started sampler's Stop must not hang.
	done := make(chan struct{})
	go func() {
		newRuntimeSampler(NewRegistry()).Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop on a never-started sampler hung")
	}
}

func TestRuntimeMetricsInPrometheusOutput(t *testing.T) {
	reg := NewRegistry()
	newRuntimeSampler(reg).Sample()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, name := range []string{"go_goroutines", "go_heap_objects_bytes", "go_gc_pause_ns", "go_sched_latency_ns"} {
		if !strings.Contains(out, name) {
			t.Errorf("/metrics missing %s:\n%s", name, out)
		}
	}
}

func TestBucketMidNs(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		lo, hi float64
		want   int64
	}{
		{0, 2e-6, 1000},      // mid of [0, 2us] = 1us
		{-inf, 1e-6, 1000},   // open low edge: the finite bound
		{1e-3, inf, 1000000}, // open high edge: the finite bound
		{-inf, inf, 0},       // degenerate
		{1e-6, 3e-6, 2000},   // plain midpoint
	}
	for _, c := range cases {
		if got := bucketMidNs(c.lo, c.hi); got != c.want {
			t.Errorf("bucketMidNs(%v, %v) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestBuildVersion(t *testing.T) {
	commit, goVersion := BuildVersion()
	if commit == "" || goVersion == "" {
		t.Fatalf("BuildVersion() = %q, %q", commit, goVersion)
	}
	if !strings.HasPrefix(goVersion, "go") {
		t.Fatalf("go version %q", goVersion)
	}
	reg := NewRegistry()
	c2, g2 := RegisterBuildInfo(reg)
	if c2 != commit || g2 != goVersion {
		t.Fatalf("RegisterBuildInfo returned %q/%q, BuildVersion %q/%q", c2, g2, commit, goVersion)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "build_info{commit=") {
		t.Fatalf("registry missing build_info gauge:\n%s", sb.String())
	}
}
