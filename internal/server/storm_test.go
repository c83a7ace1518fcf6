package server

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/loadgen"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/wal"
)

// stormProfile is the heavy chaos profile scrubbed of its silent fault
// modes (short writes reported as success, lying fsyncs): those need
// crash-recovery machinery to survive — which the WAL suite covers — and
// would otherwise plant persistent corruption the post-storm differential
// audit could not distinguish from a server bug. Every fault the storm
// injects is announced, so the server's job is to absorb errors, not to
// divine silent corruption. ReadCorrupt stays: the checksum layer above
// chaos detects it and the retry layer rereads.
func stormProfile() pagefile.ChaosProfile {
	p := pagefile.ChaosProfiles["heavy"]
	p.WriteShort = 0
	p.WriteTorn = 0
	p.SyncLost = 0
	p.SyncErr = 0.02
	return p
}

// stormStack is the full production-shaped storage stack of htreed plus a
// checksum layer: mem → chaos → checksum → retry(jitter) → WAL.
type stormStack struct {
	chaos *pagefile.ChaosFile
	sum   *pagefile.ChecksumFile
	retry *pagefile.RetryFile
	log   *wal.MemLog
	tree  *concurrent.Tree
}

func newStormStack(t *testing.T, dim, n int, seed int64) *stormStack {
	t.Helper()
	st := &stormStack{log: wal.NewMemLog()}
	st.chaos = pagefile.NewChaosFile(pagefile.NewMemFile(512), stormProfile(), seed)
	st.chaos.SetEnabled(false) // quiet while seeding
	st.sum = pagefile.NewChecksumFile(st.chaos)
	st.retry = pagefile.NewRetryFile(st.sum, pagefile.RetryPolicy{
		MaxAttempts: 4,
		Backoff:     500 * time.Microsecond,
		MaxBackoff:  4 * time.Millisecond,
		Jitter:      true,
		TripAfter:   64,
		ProbeAfter:  5 * time.Millisecond,
	})
	wf, _, err := wal.Open(st.retry, st.log, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.tree, err = concurrent.New(wf, core.Config{Dim: dim, PageSize: st.sum.PageSize()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = float32(rng.Float64())
		}
		if err := st.tree.Insert(p, core.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.tree.Flush(); err != nil {
		t.Fatal(err)
	}
	st.chaos.SetEnabled(true)
	return st
}

// drainAndAudit is the post-storm half of the acceptance gate: chaos off,
// final checkpoint, zero leaked pages, invariants clean — then a cold
// reopen over the same file and log must replay to the identical tree.
func drainAndAudit(t *testing.T, st *stormStack, dim int) {
	t.Helper()
	st.chaos.SetEnabled(false)
	if err := st.tree.Flush(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if leaked := st.tree.LeakedPages(); leaked != 0 {
		t.Fatalf("leaked %d pages after the storm", leaked)
	}
	if err := st.tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants after the storm: %v", err)
	}
	size := st.tree.Size()
	if err := st.tree.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wf, _, err := wal.Open(st.retry, st.log, wal.Options{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	cold, err := concurrent.Open(wf, core.Config{Dim: dim, PageSize: st.sum.PageSize()})
	if err != nil {
		t.Fatalf("reopen tree: %v", err)
	}
	if got := cold.Size(); got != size {
		t.Fatalf("reopened size %d, want %d", got, size)
	}
	if err := cold.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reopen: %v", err)
	}
}

// tallyInvariant asserts the server-side half of the storm contract: the
// per-outcome counters sum exactly to the requests the server received.
func tallyInvariant(t *testing.T, reg *obs.Registry) {
	t.Helper()
	requests := reg.Counter("server_requests_total").Value()
	var sum uint64
	for _, k := range []obs.OutcomeKind{obs.OutcomeOK, obs.OutcomeCancelled,
		obs.OutcomeTimeout, obs.OutcomeShed, obs.OutcomeDegraded, obs.OutcomeError} {
		sum += reg.Counter(`server_request_outcomes_total{outcome="` + k.String() + `"}`).Value()
	}
	if sum != requests {
		t.Fatalf("outcome counters sum to %d but server counted %d requests", sum, requests)
	}
}

func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: before %d, after %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
		runtime.GC()
	}
}

// TestStormShedNotCrash is the load-storm acceptance gate: an open-loop
// storm at far past capacity, with heavy announced storage faults live
// under the tree, must resolve every request to a mapped status (some
// shed, some served), leak no goroutines, and leave an index that passes
// a cold differential audit.
func TestStormShedNotCrash(t *testing.T) {
	const dim = 4
	before := runtime.NumGoroutine()
	st := newStormStack(t, dim, 3000, 21)

	reg := obs.NewRegistry()
	srv := New(st.tree, Config{
		Dim:          dim,
		EnableWrites: true,
		Workers:      1,
		QueueDepth:   2,
		WriteSlots:   4,
		Registry:     reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  "http://" + ln.Addr().String(),
		Seed:     42,
		Dim:      dim,
		Requests: 1000,
		Rate:     6000,
		Mix:      loadgen.Mix{KNN: 0.4, Box: 0.2, Range: 0.2, Insert: 0.1, Delete: 0.1},
		K:        20,

		DeadlineMs:  1000,
		BudgetPages: 24,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("storm report:\n%s", rep)
	if err := rep.Check(true); err != nil {
		t.Fatalf("storm invariant: %v", err)
	}

	// Server-side tallies, scraped over the wire like an operator would.
	requests, outcomes, err := loadgen.ScrapeServerTally("http://" + ln.Addr().String())
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	var sum uint64
	for _, v := range outcomes {
		sum += v
	}
	// The scrape itself is not a /v1 request; tallies are quiescent now.
	if sum != requests {
		t.Fatalf("scraped outcomes sum to %d but server counted %d requests", sum, requests)
	}
	// The server may legitimately count more requests than the client saw
	// responses — a request whose client gave up mid-flight still resolves
	// server-side (to cancelled, usually) — but never fewer.
	if requests < uint64(rep.Responses()) {
		t.Fatalf("server counted %d requests but client got %d responses", requests, rep.Responses())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve: %v", err)
	}
	tallyInvariant(t, reg)
	drainAndAudit(t, st, dim)
	checkNoGoroutineLeak(t, before)
}

// TestStormDrainMidStorm sends SIGTERM's in-process equivalent — a
// graceful Shutdown — while the storm is still arriving: in-flight
// requests resolve, late arrivals fail in the client transport (the
// listener is gone), nothing crashes, and the index still passes the cold
// audit afterwards.
func TestStormDrainMidStorm(t *testing.T) {
	const dim = 4
	before := runtime.NumGoroutine()
	st := newStormStack(t, dim, 2000, 33)

	reg := obs.NewRegistry()
	srv := New(st.tree, Config{
		Dim:          dim,
		EnableWrites: true,
		Workers:      2,
		QueueDepth:   4,
		Registry:     reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	repCh := make(chan *loadgen.Report, 1)
	go func() {
		rep, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  "http://" + ln.Addr().String(),
			Seed:     7,
			Dim:      dim,
			Requests: 1200,
			Rate:     3000,
			Mix:      loadgen.Mix{KNN: 0.5, Box: 0.2, Range: 0.2, Insert: 0.1},
			K:        8,

			DeadlineMs:  500,
			BudgetPages: 128,
			Timeout:     3 * time.Second,
		})
		if err != nil {
			t.Error(err)
		}
		repCh <- rep
	}()

	time.Sleep(100 * time.Millisecond) // let the storm build
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("mid-storm shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve: %v", err)
	}

	rep := <-repCh
	if rep == nil {
		t.Fatal("no report")
	}
	t.Logf("mid-storm drain report:\n%s", rep)
	if err := rep.Check(false); err != nil {
		t.Fatalf("storm invariant: %v", err)
	}
	if rep.TransportErrors == 0 {
		t.Fatal("drain began mid-storm but every request still reached the server")
	}
	if rep.Responses() == 0 {
		t.Fatal("no request resolved before the drain")
	}

	tallyInvariant(t, reg)
	drainAndAudit(t, st, dim)
	checkNoGoroutineLeak(t, before)
}
