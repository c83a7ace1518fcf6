package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime self-telemetry: a lightweight poller sampling the Go runtime's
// own metrics (runtime/metrics) into the registry, so /metrics exposes
// process health — GC pauses, heap size, goroutine count, scheduler
// latency — alongside the index counters. The runtime keeps these as
// cumulative values/histograms; the sampler publishes instantaneous values
// as gauges and folds histogram *deltas* between polls into obs.Histograms,
// so quantiles computed from the registry reflect the process lifetime.

// Names of the runtime/metrics samples the poller reads, paired with the
// registry names they publish under.
const (
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
	rmHeapFree    = "/memory/classes/heap/free:bytes"
	rmTotalMem    = "/memory/classes/total:bytes"
	rmGCCycles    = "/gc/cycles/total:gc-cycles"
	rmGCPauses    = "/gc/pauses:seconds"
	rmSchedLat    = "/sched/latencies:seconds"
)

// RuntimeSampler polls runtime/metrics into a Registry. One sampler per
// process is the intended shape (StartRuntimeSampler); Sample may also be
// called manually for deterministic tests or one-shot scrapes.
type RuntimeSampler struct {
	goroutines *Gauge
	gomaxprocs *Gauge
	heapBytes  *Gauge
	heapFree   *Gauge
	totalBytes *Gauge
	gcCycles   *Gauge
	gcPauseNs  *Histogram
	schedLatNs *Histogram

	mu      sync.Mutex
	samples []metrics.Sample
	prev    map[string][]uint64 // previous cumulative histogram counts

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// newRuntimeSampler resolves the runtime gauges and histograms in r and
// returns an unstarted sampler.
func newRuntimeSampler(r *Registry) *RuntimeSampler {
	s := &RuntimeSampler{
		goroutines: r.Gauge("go_goroutines"),
		gomaxprocs: r.Gauge("go_gomaxprocs"),
		heapBytes:  r.Gauge("go_heap_objects_bytes"),
		heapFree:   r.Gauge("go_heap_free_bytes"),
		totalBytes: r.Gauge("go_memory_total_bytes"),
		gcCycles:   r.Gauge("go_gc_cycles_total"),
		gcPauseNs:  r.Histogram("go_gc_pause_ns"),
		schedLatNs: r.Histogram("go_sched_latency_ns"),
		prev:       make(map[string][]uint64),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, name := range []string{rmHeapObjects, rmHeapFree, rmTotalMem, rmGCCycles, rmGCPauses, rmSchedLat} {
		s.samples = append(s.samples, metrics.Sample{Name: name})
	}
	return s
}

// StartRuntimeSampler starts a background poller updating r every interval
// (minimum 100ms; a zero interval defaults to 5s). Stop the returned
// sampler to shut the goroutine down.
func StartRuntimeSampler(r *Registry, interval time.Duration) *RuntimeSampler {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	s := newRuntimeSampler(r)
	s.started = true
	s.Sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Sample()
			}
		}
	}()
	return s
}

// Stop shuts the background poller down and waits for it to exit. Safe to
// call more than once, and a no-op for a sampler that was never started.
func (s *RuntimeSampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started {
		<-s.done
	}
}

// Sample reads the runtime metrics once and publishes them. It is safe for
// concurrent use (a mutex serializes the shared sample buffer).
func (s *RuntimeSampler) Sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.goroutines.Set(int64(runtime.NumGoroutine()))
	s.gomaxprocs.Set(int64(runtime.GOMAXPROCS(0)))
	metrics.Read(s.samples)
	for i := range s.samples {
		sm := &s.samples[i]
		switch sm.Name {
		case rmHeapObjects:
			setUint(s.heapBytes, sm.Value)
		case rmHeapFree:
			setUint(s.heapFree, sm.Value)
		case rmTotalMem:
			setUint(s.totalBytes, sm.Value)
		case rmGCCycles:
			setUint(s.gcCycles, sm.Value)
		case rmGCPauses:
			s.foldHistogram(sm, s.gcPauseNs)
		case rmSchedLat:
			s.foldHistogram(sm, s.schedLatNs)
		}
	}
}

// setUint publishes a KindUint64 sample into a gauge, skipping samples the
// running runtime does not support (KindBad).
func setUint(g *Gauge, v metrics.Value) {
	if v.Kind() == metrics.KindUint64 {
		g.Set(int64(v.Uint64()))
	}
}

// foldHistogram observes the delta between this poll's cumulative
// runtime/metrics histogram and the previous poll's into dst, converting
// seconds to nanoseconds at each bucket's midpoint. The first poll folds
// the whole process lifetime in, which is exactly what a fresh registry
// should show.
func (s *RuntimeSampler) foldHistogram(sm *metrics.Sample, dst *Histogram) {
	if sm.Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := sm.Value.Float64Histogram()
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return
	}
	prev := s.prev[sm.Name]
	if len(prev) != len(h.Counts) {
		prev = make([]uint64, len(h.Counts))
	}
	for i, c := range h.Counts {
		d := c - prev[i] // cumulative counts never decrease per bucket
		prev[i] = c
		if d == 0 {
			continue
		}
		dst.ObserveN(bucketMidNs(h.Buckets[i], h.Buckets[i+1]), d)
	}
	s.prev[sm.Name] = prev
}

// bucketMidNs converts a [lo, hi) seconds bucket to a representative
// nanosecond value: the midpoint, falling back to the finite edge when the
// other is infinite.
func bucketMidNs(lo, hi float64) int64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return int64(hi * 1e9)
	case math.IsInf(hi, 1):
		return int64(lo * 1e9)
	default:
		return int64((lo + hi) / 2 * 1e9)
	}
}
