package pagefile

import (
	"errors"
	"testing"
	"time"
)

// retryFixture builds mem <- fault <- retry with a fake clock: now is a
// settable instant and backoff sleeps advance it instead of waiting. fault
// is a zero-profile ChaosFile, so only the fuse the tests arm injects.
type retryFixture struct {
	mem   *MemFile
	fault *ChaosFile
	rf    *RetryFile
	now   time.Time
	slept time.Duration
	buf   []byte
	id    PageID
}

func newRetryFixture(t *testing.T, p RetryPolicy) *retryFixture {
	t.Helper()
	fx := &retryFixture{mem: NewMemFile(64), now: time.Unix(0, 0)}
	id, err := fx.mem.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	fx.id = id
	fx.buf = make([]byte, 64)
	if err := fx.mem.WritePage(id, []byte("hello")); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	fx.fault = NewChaosFile(fx.mem, ChaosProfile{}, 1)
	fx.rf = NewRetryFile(fx.fault, p)
	fx.rf.setClock(func() time.Time { return fx.now },
		func(d time.Duration) { fx.slept += d; fx.now = fx.now.Add(d) })
	return fx
}

func TestRetryRecoversTransientFault(t *testing.T) {
	fx := newRetryFixture(t, RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond})
	// One injected failure, then healed: the first attempt fails, the retry
	// succeeds.
	fx.fault.setHealAfter(1)
	fx.fault.SetRemaining(0)
	if err := fx.rf.ReadPage(fx.id, fx.buf); err != nil {
		t.Fatalf("read after transient fault: %v", err)
	}
	if string(fx.buf[:5]) != "hello" {
		t.Fatalf("payload = %q, want hello", fx.buf[:5])
	}
	if fx.slept != time.Millisecond {
		t.Fatalf("slept %v, want 1ms (one backoff)", fx.slept)
	}
}

func TestRetryExhaustsOnPersistentFault(t *testing.T) {
	fx := newRetryFixture(t, RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond})
	fx.fault.SetRemaining(0) // fail forever
	err := fx.rf.ReadPage(fx.id, fx.buf)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !IsTransient(err) {
		t.Fatalf("exhausted error should still classify transient: %v", err)
	}
	// 3 attempts => 2 backoffs: 1ms + 2ms.
	if fx.slept != 3*time.Millisecond {
		t.Fatalf("slept %v, want 3ms", fx.slept)
	}
}

func TestRetryCorruptOnlyWhenEnabled(t *testing.T) {
	mem := NewMemFile(64)
	ck := NewChecksumFile(mem)
	id, _ := ck.Allocate()
	if err := ck.WritePage(id, []byte("payload")); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	// Flip one payload byte at rest: every reread fails the CRC identically.
	raw := make([]byte, 64)
	_ = mem.ReadPage(id, raw)
	raw[0] ^= 0xFF
	_ = mem.WritePage(id, raw)

	buf := make([]byte, ck.PageSize())
	attempts := 0
	counting := &countingFile{File: ck, onRead: func() { attempts++ }}

	rf := NewRetryFile(counting, RetryPolicy{MaxAttempts: 3})
	if err := rf.ReadPage(id, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if attempts != 1 {
		t.Fatalf("corrupt read attempted %d times with RetryCorrupt off, want 1", attempts)
	}

	attempts = 0
	rf = NewRetryFile(counting, RetryPolicy{MaxAttempts: 3, RetryCorrupt: true})
	if err := rf.ReadPage(id, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if attempts != 3 {
		t.Fatalf("corrupt read attempted %d times with RetryCorrupt on, want 3", attempts)
	}
}

// countingFile counts read calls that reach the wrapped file.
type countingFile struct {
	File
	onRead func()
}

func (f *countingFile) ReadPage(id PageID, buf []byte) error {
	f.onRead()
	return f.File.ReadPage(id, buf)
}

func (f *countingFile) ReadPageSeq(id PageID, buf []byte) error {
	f.onRead()
	return f.File.ReadPageSeq(id, buf)
}

// TestBreakerTripShedRecover drives the satellite scenario end to end: the
// breaker trips after N consecutive ChaosFile read faults, sheds without
// touching storage while open, and recovers once the storage heals.
func TestBreakerTripShedRecover(t *testing.T) {
	const trip = 3
	mem := NewMemFile(64)
	id, _ := mem.Allocate()
	_ = mem.WritePage(id, []byte("hello"))
	chaos := NewChaosFile(mem, ChaosProfile{ReadErr: 1}, 42) // every read fails
	rf := NewRetryFile(chaos, RetryPolicy{
		MaxAttempts: 2,
		TripAfter:   trip,
		ProbeAfter:  time.Minute,
	})
	now := time.Unix(0, 0)
	rf.setClock(func() time.Time { return now }, func(time.Duration) {})

	buf := make([]byte, 64)
	for i := 0; i < trip; i++ {
		if rf.breakerState() != "closed" {
			t.Fatalf("breaker %s before trip threshold (fail %d)", rf.breakerState(), i)
		}
		if err := rf.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("fail %d: err = %v, want ErrInjected", i, err)
		}
	}
	if rf.breakerState() != "open" {
		t.Fatalf("breaker %s after %d consecutive failures, want open", rf.breakerState(), trip)
	}

	// Open state sheds fast: ErrCircuitOpen before any attempt reaches the
	// chaos layer, well inside the probe interval.
	injectedSoFar := chaos.Counts().ReadErrs
	now = now.Add(time.Second) // < ProbeAfter
	for i := 0; i < 5; i++ {
		if err := rf.ReadPage(id, buf); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("shed %d: err = %v, want ErrCircuitOpen", i, err)
		}
	}
	if got := chaos.Counts().ReadErrs; got != injectedSoFar {
		t.Fatalf("open breaker let %d reads reach storage", got-injectedSoFar)
	}
	if !IsTransient(ErrCircuitOpen) {
		t.Fatal("ErrCircuitOpen should classify as transient")
	}

	// Past the probe interval while still broken: the half-open probe fails
	// and the breaker re-opens for another interval.
	now = now.Add(time.Minute)
	if err := rf.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed probe: err = %v, want ErrInjected", err)
	}
	if rf.breakerState() != "open" {
		t.Fatalf("breaker %s after failed probe, want open", rf.breakerState())
	}

	// Heal the storage, advance past the interval: the probe succeeds and
	// the breaker closes.
	chaos.SetEnabled(false)
	now = now.Add(2 * time.Minute)
	if err := rf.ReadPage(id, buf); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if rf.breakerState() != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", rf.breakerState())
	}
	if string(buf[:5]) != "hello" {
		t.Fatalf("payload = %q, want hello", buf[:5])
	}
}

// TestBreakerRecoversAfterFaultFileHeal exercises the ChaosFile fuse's
// heal-after-N path: burn the fuse, let the breaker trip, arm healing,
// and verify reads flow again.
func TestBreakerRecoversAfterFaultFileHeal(t *testing.T) {
	mem := NewMemFile(64)
	id, _ := mem.Allocate()
	_ = mem.WritePage(id, []byte("hello"))
	fault := NewChaosFile(mem, ChaosProfile{}, 1)
	fault.SetRemaining(0) // burnt from the start
	rf := NewRetryFile(fault, RetryPolicy{MaxAttempts: 1, TripAfter: 2, ProbeAfter: time.Minute})
	now := time.Unix(0, 0)
	rf.setClock(func() time.Time { return now }, func(time.Duration) {})

	buf := make([]byte, 64)
	for i := 0; i < 2; i++ {
		if err := rf.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("fail %d: %v", i, err)
		}
	}
	if rf.breakerState() != "open" {
		t.Fatalf("breaker %s, want open", rf.breakerState())
	}
	fault.setHealAfter(1) // next op fails, then the file is healthy forever
	now = now.Add(time.Minute)
	if err := rf.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("probe during heal burst: %v", err)
	}
	now = now.Add(time.Minute)
	if err := rf.ReadPage(id, buf); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if rf.breakerState() != "closed" {
		t.Fatalf("breaker %s after recovery, want closed", rf.breakerState())
	}
}

// TestBreakerZeroProbeNeverSheds pins the simulator-facing contract: with
// ProbeAfter == 0 an open breaker half-opens on the very next read, so a
// single-threaded caller is never fast-failed and results stay deterministic.
func TestBreakerZeroProbeNeverSheds(t *testing.T) {
	mem := NewMemFile(64)
	id, _ := mem.Allocate()
	_ = mem.WritePage(id, []byte("hello"))
	fault := NewChaosFile(mem, ChaosProfile{}, 1)
	fault.SetRemaining(0)
	rf := NewRetryFile(fault, RetryPolicy{MaxAttempts: 1, TripAfter: 1, ProbeAfter: 0})

	buf := make([]byte, 64)
	for i := 0; i < 4; i++ {
		if err := rf.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: err = %v, want ErrInjected (never ErrCircuitOpen)", i, err)
		}
	}
	fault.SetRemaining(1 << 30)
	if err := rf.ReadPage(id, buf); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if rf.breakerState() != "closed" {
		t.Fatalf("breaker %s, want closed", rf.breakerState())
	}
}

func TestRetryPassesWritesThrough(t *testing.T) {
	fx := newRetryFixture(t, RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond})
	fx.fault.SetRemaining(0)
	if err := fx.rf.WritePage(fx.id, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write err = %v, want ErrInjected without retries", err)
	}
	if fx.slept != 0 {
		t.Fatalf("write path slept %v, want 0 (no retry on writes)", fx.slept)
	}
}

// TestRetryJitterDecorrelatesBackoff pins the decorrelated-jitter schedule:
// with an injected rand source, each retry sleeps Backoff + frac×span where
// span = 3×previous-sleep − Backoff, capped at MaxBackoff — and the same
// source yields the same schedule, so jitter stays deterministic under test.
func TestRetryJitterDecorrelatesBackoff(t *testing.T) {
	run := func(fracs []float64) []time.Duration {
		fx := newRetryFixture(t, RetryPolicy{
			MaxAttempts: 5, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, Jitter: true})
		var sleeps []time.Duration
		fx.rf.setClock(nil, func(d time.Duration) { sleeps = append(sleeps, d); fx.now = fx.now.Add(d) })
		i := 0
		fx.rf.setRand(func() float64 { v := fracs[i%len(fracs)]; i++; return v })
		fx.fault.SetRemaining(0) // every attempt fails
		if err := fx.rf.ReadPage(fx.id, fx.buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("read: err = %v, want ErrInjected", err)
		}
		return sleeps
	}

	// frac = 0.5 exactly: sleep_1 = 1ms (the base), then
	// sleep_{n+1} = 1ms + 0.5×(3×sleep_n − 1ms).
	got := run([]float64{0.5})
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,    // 1 + 0.5*(3-1)
		3500 * time.Microsecond, // 1 + 0.5*(6-1)
		5750 * time.Microsecond, // 1 + 0.5*(10.5-1)
	}
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %d entries", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (schedule %v)", i, got[i], want[i], got)
		}
	}

	// Determinism: the same source gives bit-identical schedules.
	a, b := run([]float64{0.17, 0.93, 0.41}), run([]float64{0.17, 0.93, 0.41})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a, b)
		}
	}
	// frac → 1 must stay within the cap.
	for i, d := range run([]float64{0.999999}) {
		if d > 10*time.Millisecond {
			t.Fatalf("sleep %d = %v exceeds MaxBackoff", i, d)
		}
	}
}

// TestRetryJitterOffKeepsDoublingLadder: the zero-value policy keeps the
// exact pre-jitter behavior, so existing deterministic drivers (the
// simulator's pinned digests) are unaffected.
func TestRetryJitterOffKeepsDoublingLadder(t *testing.T) {
	fx := newRetryFixture(t, RetryPolicy{
		MaxAttempts: 4, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	var sleeps []time.Duration
	fx.rf.setClock(nil, func(d time.Duration) { sleeps = append(sleeps, d); fx.now = fx.now.Add(d) })
	fx.rf.setRand(func() float64 { t.Fatal("jitter source consulted with Jitter off"); return 0 })
	fx.fault.SetRemaining(0)
	if err := fx.rf.ReadPage(fx.id, fx.buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read: err = %v, want ErrInjected", err)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("sleeps = %v, want %v", sleeps, want)
		}
	}
}

// setClock overrides the wall clock and backoff sleep (tests; pass nil to
// keep the current function).
func (f *RetryFile) setClock(now func() time.Time, sleep func(time.Duration)) {
	if now != nil {
		f.now = now
	}
	if sleep != nil {
		f.sleep = sleep
	}
}

// setRand overrides the jitter source with fn (which must return values in
// [0, 1)); pass a seeded generator's Float64 for a deterministic schedule.
func (f *RetryFile) setRand(fn func() float64) {
	if fn != nil {
		f.rand = fn
	}
}

// breakerState reports "closed", "open" or "half-open".
func (f *RetryFile) breakerState() string { return f.br.stateName() }
