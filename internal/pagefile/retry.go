package pagefile

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hybridtree/internal/obs"
)

// ErrCircuitOpen is returned without touching the underlying file while the
// circuit breaker is open: the file has failed enough consecutive reads that
// hammering it buys nothing, so callers shed fast until a probe succeeds. It
// wraps ErrTransient — the condition clears once the device recovers.
var ErrCircuitOpen = fmt.Errorf("pagefile: circuit open, shedding reads (%w)", ErrTransient)

// RetryPolicy configures a RetryFile.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per read, first included
	// (default 3).
	MaxAttempts int
	// Backoff is the sleep before the first retry (0 retries immediately);
	// each further retry doubles it, capped at MaxBackoff (default 100ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// RetryCorrupt spends attempts on checksum failures too: in-flight
	// corruption (a bus flip between platter and buffer) heals on reread,
	// at-rest corruption does not. Off by default — rereading a torn page
	// is usually wasted work; turn it on when the stack below injects
	// in-flight corruption (ChaosFile.ReadCorrupt under a ChecksumFile).
	RetryCorrupt bool
	// Jitter decorrelates the backoff ladder across a fleet. Plain
	// exponential backoff synchronizes: every client that failed together
	// retries together, hammering the recovering device in lockstep waves.
	// With Jitter on, each retry sleeps uniform(Backoff, 3×previous-sleep)
	// capped at MaxBackoff — the "decorrelated jitter" scheme — so retry
	// times spread out while still backing off on average. The random
	// source is injectable and the scheme is deterministic given the
	// source, so tests pin exact sleep schedules.
	Jitter bool
	// TripAfter is the number of consecutive exhausted reads that opens the
	// circuit breaker (0 disables the breaker entirely).
	TripAfter int
	// ProbeAfter is how long the breaker stays open before half-opening to
	// admit one probe read. 0 half-opens immediately, which turns the
	// breaker into pure consecutive-failure accounting that never sheds —
	// the right setting for a deterministic driver like the simulator,
	// where wall-clock shedding would make outcomes timing-dependent.
	ProbeAfter time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	return p
}

// retryMetrics is the retry layer's shared obs bundle. The state gauge
// reports the most recent breaker transition of any RetryFile in the
// process (0 closed, 1 open, 2 half-open) — fleet deployments run one
// data file per process, which is the case the gauge is for.
type retryMetrics struct {
	retries   *obs.Counter   // individual re-attempts issued
	recovered *obs.Counter   // reads that failed at least once, then succeeded
	exhausted *obs.Counter   // reads that failed after every attempt
	trips     *obs.Counter   // breaker closed->open transitions
	fastFails *obs.Counter   // reads shed by an open breaker
	backoff   *obs.Histogram // per-retry backoff sleeps, nanoseconds
	state     *obs.Gauge
}

var (
	retryMetricsOnce sync.Once
	retryMetricsVal  *retryMetrics
)

func retryObs() *retryMetrics {
	retryMetricsOnce.Do(func() {
		r := obs.Default()
		retryMetricsVal = &retryMetrics{
			retries:   r.Counter("pagefile_read_retries_total"),
			recovered: r.Counter("pagefile_read_retry_recovered_total"),
			exhausted: r.Counter("pagefile_read_retry_exhausted_total"),
			trips:     r.Counter("pagefile_breaker_trips_total"),
			fastFails: r.Counter("pagefile_breaker_fast_fails_total"),
			backoff:   r.Histogram("pagefile_read_backoff_ns"),
			state:     r.Gauge("pagefile_breaker_state"),
		}
	})
	return retryMetricsVal
}

// RetryFile wraps a File with a retry/backoff policy and a per-file circuit
// breaker on the read path. A read failing with a transient error is retried
// up to MaxAttempts times with exponential backoff; a read that exhausts its
// attempts counts toward the breaker, which — after TripAfter consecutive
// exhausted reads — fails subsequent reads instantly with ErrCircuitOpen
// until a half-open probe succeeds. Writes, Allocate and Free pass through
// untouched: mutations sit above an undo log that already makes their
// failures atomic, and blindly retrying a torn write would spend attempts
// without that safety net.
//
// Layer it above a ChecksumFile so a retried read re-verifies its CRC, and
// set RetryCorrupt when in-flight corruption is among the expected faults.
// The file is safe for concurrent use if the inner file is; the breaker is
// mutex-guarded and admits one probe at a time.
type RetryFile struct {
	File
	policy RetryPolicy
	// sleep and now are injectable so tests (and deterministic drivers)
	// never wait on a real clock.
	sleep func(time.Duration)
	now   func() time.Time
	// rand draws the jitter fraction in [0, 1); mutex-guarded because reads
	// run concurrently. Tests replace it so jitter schedules are
	// deterministic.
	randMu sync.Mutex
	rand   func() float64
	br     breaker
	m      *retryMetrics
}

// NewRetryFile wraps inner with the given policy.
func NewRetryFile(inner File, p RetryPolicy) *RetryFile {
	p = p.withDefaults()
	f := &RetryFile{File: inner, policy: p, sleep: time.Sleep, now: time.Now, rand: rand.Float64, m: retryObs()}
	f.br.tripAfter = p.TripAfter
	f.br.probeAfter = p.ProbeAfter
	return f
}

func (f *RetryFile) jitterFrac() float64 {
	f.randMu.Lock()
	defer f.randMu.Unlock()
	return f.rand()
}

// ReadPage implements File with retry, backoff and circuit breaking.
func (f *RetryFile) ReadPage(id PageID, buf []byte) error { return f.read(id, buf, false) }

// ReadPageSeq implements File with retry, backoff and circuit breaking.
func (f *RetryFile) ReadPageSeq(id PageID, buf []byte) error { return f.read(id, buf, true) }

func (f *RetryFile) read(id PageID, buf []byte, seq bool) error {
	if !f.br.allow(f.now()) {
		f.m.fastFails.Inc()
		return ErrCircuitOpen
	}
	backoff := f.policy.Backoff
	var err error
	for attempt := 1; ; attempt++ {
		err = readVia(f.File, id, buf, seq)
		if err == nil {
			if attempt > 1 {
				f.m.recovered.Inc()
			}
			f.br.succeed(f.m)
			return nil
		}
		if attempt >= f.policy.MaxAttempts || !f.retryable(err) {
			break
		}
		f.m.retries.Inc()
		if backoff > 0 {
			f.m.backoff.Observe(int64(backoff))
			f.sleep(backoff)
			backoff = f.nextBackoff(backoff)
		}
	}
	f.m.exhausted.Inc()
	f.br.fail(f.now(), f.m)
	return err
}

// nextBackoff advances the ladder after a sleep of prev. Without jitter it
// is the classic doubling capped at MaxBackoff. With jitter it draws the
// next sleep from uniform(Backoff, 3×prev) — decorrelated jitter: the upper
// bound still grows geometrically from the realized sleeps, but two files
// that failed in the same instant immediately diverge, so fleet-wide
// retries cannot synchronize into waves.
func (f *RetryFile) nextBackoff(prev time.Duration) time.Duration {
	next := prev * 2
	if f.policy.Jitter {
		base := f.policy.Backoff
		span := 3*prev - base
		if span <= 0 {
			span = base
		}
		next = base + time.Duration(f.jitterFrac()*float64(span))
	}
	if next > f.policy.MaxBackoff {
		next = f.policy.MaxBackoff
	}
	return next
}

// retryable classifies one failed attempt: transient faults are worth
// another try, corruption only when the policy says in-flight damage is
// among the expected faults, and a nested layer's open breaker never is.
func (f *RetryFile) retryable(err error) bool {
	if errors.Is(err, ErrCircuitOpen) {
		return false
	}
	if IsCorrupt(err) {
		return f.policy.RetryCorrupt
	}
	return IsTransient(err)
}

// breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// breaker is a consecutive-failure circuit breaker. Closed: reads flow,
// counting consecutive exhausted failures; TripAfter of them opens it.
// Open: reads shed instantly until ProbeAfter has elapsed, then it
// half-opens. Half-open: exactly one probe read is admitted at a time — a
// success closes the breaker, a failure re-opens it for another interval.
type breaker struct {
	mu         sync.Mutex
	state      int
	fails      int // consecutive exhausted reads while closed
	openedAt   time.Time
	probing    bool
	tripAfter  int
	probeAfter time.Duration
}

func (b *breaker) allow(now time.Time) bool {
	if b.tripAfter <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		return true
	case brOpen:
		if now.Sub(b.openedAt) < b.probeAfter {
			return false
		}
		b.state = brHalfOpen
		b.probing = true
		return true
	default:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

func (b *breaker) succeed(m *retryMetrics) {
	if b.tripAfter <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != brClosed && m != nil {
		m.state.Set(brClosed)
	}
	b.state, b.fails, b.probing = brClosed, 0, false
}

func (b *breaker) fail(now time.Time, m *retryMetrics) {
	if b.tripAfter <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if b.state == brHalfOpen {
		// Failed probe: back to open for another interval, no new trip.
		b.state = brOpen
		b.openedAt = now
		if m != nil {
			m.state.Set(brOpen)
		}
		return
	}
	b.fails++
	if b.state == brClosed && b.fails >= b.tripAfter {
		b.state = brOpen
		b.openedAt = now
		if m != nil {
			m.trips.Inc()
			m.state.Set(brOpen)
		}
	}
}

func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	}
	return "closed"
}
