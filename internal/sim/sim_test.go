package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hybridtree/internal/geom"
	"hybridtree/internal/index"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/seqscan"
)

func TestTraceDeterminism(t *testing.T) {
	cfg := TraceConfig{Seed: 7, Ops: 3000}
	a := GenTrace(cfg)
	b := GenTrace(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := GenTrace(TraceConfig{Seed: 8, Ops: 3000})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceShape(t *testing.T) {
	ops := GenTrace(TraceConfig{Seed: 1, Ops: 5000})
	if len(ops) != 5000 {
		t.Fatalf("got %d ops, want 5000", len(ops))
	}
	var counts [5]int
	for _, op := range ops {
		counts[op.Kind]++
		for _, v := range op.Point {
			if v < 0 || v > 1 {
				t.Fatalf("point coordinate %v outside unit cube", v)
			}
		}
	}
	for k, n := range counts {
		if n == 0 {
			t.Fatalf("trace has no %s ops", OpKind(k))
		}
	}
}

// TestCleanRunAllIndexes is the fault-free differential run: every access
// method must agree with the oracle on every operation.
func TestCleanRunAllIndexes(t *testing.T) {
	rep, err := Run(Config{Trace: TraceConfig{Seed: 11, Ops: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Indexes) != len(AllIndexes) {
		t.Fatalf("got %d index reports, want %d", len(rep.Indexes), len(AllIndexes))
	}
	for _, ir := range rep.Indexes {
		if ir.MutationErrors != 0 {
			t.Errorf("%s: %d mutation errors without fault injection", ir.Name, ir.MutationErrors)
		}
		if ir.Name == "hb" && ir.Unsupported == 0 {
			t.Error("hb reported no unsupported ops; deletes/range/knn should be skipped")
		}
		if ir.Name != "hb" && ir.Unsupported != 0 {
			t.Errorf("%s: %d unsupported ops", ir.Name, ir.Unsupported)
		}
	}
}

// TestHybridSurvivesHeavyFaults drives the hybrid tree under the heavy
// chaos profile: faults must actually fire, every failed mutation must
// roll back cleanly, and no pages may leak.
func TestHybridSurvivesHeavyFaults(t *testing.T) {
	rep, err := Run(Config{
		Trace:      TraceConfig{Seed: 5, Ops: 4000},
		Indexes:    []string{"hybrid"},
		Faults:     pagefile.ChaosProfiles["heavy"],
		CheckEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	ir := rep.Indexes[0]
	if ir.ChaosCounts.Total() == 0 {
		t.Fatal("heavy profile injected no faults")
	}
	if ir.MutationErrors == 0 {
		t.Fatal("no mutation errors despite injected faults")
	}
	if ir.LeakedPages != 0 {
		t.Fatalf("%d pages leaked", ir.LeakedPages)
	}
	t.Logf("survived %d faults, %d rolled-back mutations", ir.ChaosCounts.Total(), ir.MutationErrors)
}

// TestDigestReproducible is the bit-reproducibility contract: identical
// configs yield identical digests, different seeds different ones.
func TestDigestReproducible(t *testing.T) {
	cfg := Config{Trace: TraceConfig{Seed: 3, Ops: 2000}, Faults: pagefile.ChaosProfiles["light"]}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same config, digests %016x != %016x", a.Digest, b.Digest)
	}
	cfg.Trace.Seed = 4
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("different seeds produced identical digests")
	}
}

// TestLifecycleHeavyFaultsWithDeadlines is the acceptance run for the
// request-lifecycle layer: heavy chaos, the retry read path, a per-query
// page budget and per-op deadlines, all at once. It must finish with zero
// divergences, zero leaked pages, every op resolved to exactly one outcome
// bucket, and no goroutines left behind.
func TestLifecycleHeavyFaultsWithDeadlines(t *testing.T) {
	before := runtime.NumGoroutine()
	rep, err := Run(Config{
		Trace:      TraceConfig{Seed: 5, Ops: 4000},
		Indexes:    []string{"hybrid"},
		Faults:     pagefile.ChaosProfiles["heavy"],
		CheckEvery: 500,
		Lifecycle:  LifecycleConfig{Deadline: 2 * time.Second, BudgetPages: 16, Retry: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ir := rep.Indexes[0]
	if ir.ChaosCounts.Total() == 0 {
		t.Fatal("heavy profile injected no faults")
	}
	if ir.LeakedPages != 0 {
		t.Fatalf("%d pages leaked", ir.LeakedPages)
	}
	sum := 0
	for _, n := range ir.Outcomes {
		sum += n
	}
	if sum != ir.Ops {
		t.Fatalf("outcomes sum to %d, want %d ops: %v", sum, ir.Ops, ir.Outcomes)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("outcomes ok/cancelled/timeout/shed/degraded/error = %v", ir.Outcomes)
}

// TestLifecycleRetryKeepsOracleAgreement pins the core retry guarantee:
// with the retry read path configured and caches dropped periodically,
// queries run cold through the chaotic file, transient faults are retried
// inside the read path, and every recovered query still agrees with the
// oracle — a clean (divergence-free) run proves retries never alter
// results. Without a deadline the whole run is deterministic, so two runs
// must also produce identical digests and outcome tallies.
func TestLifecycleRetryKeepsOracleAgreement(t *testing.T) {
	cfg := Config{
		Trace:      TraceConfig{Seed: 13, Ops: 3000},
		Indexes:    []string{"hybrid"},
		Faults:     pagefile.ChaosProfiles["heavy"],
		CheckEvery: 300,
		Lifecycle:  LifecycleConfig{Retry: true},
	}
	retries := obs.Default().Counter("pagefile_read_retries_total")
	base := retries.Value()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := retries.Value() - base; got == 0 {
		t.Fatal("no read retries fired; the retry path went unexercised")
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("retry run not deterministic: %016x != %016x", a.Digest, b.Digest)
	}
	if a.Indexes[0].Outcomes != b.Indexes[0].Outcomes {
		t.Fatalf("outcome tallies differ: %v != %v", a.Indexes[0].Outcomes, b.Indexes[0].Outcomes)
	}
	if a.Indexes[0].LeakedPages != 0 {
		t.Fatalf("%d pages leaked", a.Indexes[0].LeakedPages)
	}
}

// TestLifecycleBudgetDegrades drives a page budget small enough that some
// queries must degrade, and checks the degraded answers were verified (the
// run is divergence-free) and actually occurred.
func TestLifecycleBudgetDegrades(t *testing.T) {
	rep, err := Run(Config{
		Trace:     TraceConfig{Seed: 21, Ops: 3000},
		Indexes:   []string{"hybrid"},
		Lifecycle: LifecycleConfig{BudgetPages: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ir := rep.Indexes[0]
	if ir.Outcomes[obs.OutcomeDegraded] == 0 {
		t.Fatal("page budget of 4 never degraded a query")
	}
	if ir.Outcomes[obs.OutcomeOK] == 0 {
		t.Fatal("every op degraded; expected a mix")
	}
	sum := 0
	for _, n := range ir.Outcomes {
		sum += n
	}
	if sum != ir.Ops {
		t.Fatalf("outcomes sum to %d, want %d ops: %v", sum, ir.Ops, ir.Outcomes)
	}
	t.Logf("degraded %d of %d ops", ir.Outcomes[obs.OutcomeDegraded], ir.Ops)
}

// brokenIndex silently drops the insert of one record id — the kind of
// bug the differential oracle exists to catch.
type brokenIndex struct {
	index.Index
	dropRID uint64
}

func (b *brokenIndex) Insert(p geom.Point, rid uint64) error {
	if rid == b.dropRID {
		return nil // swallowed
	}
	return b.Index.Insert(p, rid)
}

// TestDivergenceDetected verifies the drive loop actually catches a lost
// record and reports a replayable (seed, op index) location.
func TestDivergenceDetected(t *testing.T) {
	cfg := Config{Trace: TraceConfig{Seed: 9, Ops: 1500}, CheckEvery: 100}
	cfg = cfg.withDefaults()
	trace := GenTrace(cfg.Trace)

	inner, err := seqscan.New(pagefile.NewMemFile(cfg.PageSize), cfg.Trace.Dim)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := seqscan.New(pagefile.NewMemFile(cfg.PageSize), cfg.Trace.Dim)
	if err != nil {
		t.Fatal(err)
	}
	sut := &brokenIndex{Index: inner, dropRID: 200}
	_, err = driveIndex(cfg, "broken", sut, nil, nil, oracle, trace)
	var d *Divergence
	if !errors.As(err, &d) {
		t.Fatalf("lost record not detected: err=%v", err)
	}
	if d.Seed != cfg.Trace.Seed || d.OpIndex < 0 || d.OpIndex >= len(trace) {
		t.Fatalf("unreplayable divergence: %+v", d)
	}
	t.Logf("caught: %v", d)
}

// TestMinimizeShrinks checks the ddmin core: given a predicate that fails
// whenever two specific ops are both present, the minimized trace should
// contain little beyond those two ops, and must still fail.
func TestMinimizeShrinks(t *testing.T) {
	trace := GenTrace(TraceConfig{Seed: 2, Ops: 400})
	var needles []int
	for i, op := range trace {
		if op.Kind == OpInsert && (op.RID == 30 || op.RID == 90) {
			needles = append(needles, i)
		}
	}
	if len(needles) != 2 {
		t.Fatalf("trace lacks needle inserts (got %d)", len(needles))
	}
	fails := func(t []Op) bool {
		have := 0
		for _, op := range t {
			if op.Kind == OpInsert && (op.RID == 30 || op.RID == 90) {
				have++
			}
		}
		return have == 2
	}
	min := minimizeWith(fails, trace, 200)
	if !fails(min) {
		t.Fatal("minimized trace no longer fails")
	}
	if len(min) >= len(trace)/4 {
		t.Fatalf("minimize barely shrank: %d of %d ops", len(min), len(trace))
	}
	t.Logf("shrunk %d -> %d ops", len(trace), len(min))
}

// TestReplayTruncatedTrace checks the reproducer path end to end: a run
// over a prefix of the generated trace behaves identically to the same
// prefix of a full run (same digest inputs, no divergence).
func TestReplayTruncatedTrace(t *testing.T) {
	cfg := Config{Trace: TraceConfig{Seed: 6, Ops: 1200}, Faults: pagefile.ChaosProfiles["light"]}
	cfg = cfg.withDefaults()
	trace := GenTrace(cfg.Trace)
	ir, err := Replay(cfg, "hybrid", trace[:600])
	if err != nil {
		t.Fatal(err)
	}
	ir2, err := Replay(cfg, "hybrid", trace[:600])
	if err != nil {
		t.Fatal(err)
	}
	if ir.Digest != ir2.Digest {
		t.Fatalf("replay not deterministic: %016x != %016x", ir.Digest, ir2.Digest)
	}
}
