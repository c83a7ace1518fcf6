package perf

import (
	"path/filepath"
	"strings"
	"testing"
)

// mkSnap builds a snapshot with the given per-benchmark metric medians and
// a fixed fingerprint, repeats defaulting to 5.
func mkSnap(metrics map[string]map[string]float64) *Snapshot {
	s := &Snapshot{
		SchemaVersion: SchemaVersion,
		Env: Env{
			Commit: "abc123", GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
			CPUModel: "testcpu", NumCPU: 8, GOMAXPROCS: 8,
		},
	}
	for name, ms := range metrics {
		b := Benchmark{Name: name, Repeats: 5, Metrics: make(map[string]Stat, len(ms))}
		for unit, v := range ms {
			b.Metrics[unit] = Stat{Median: v, P10: v * 0.95, P90: v * 1.05}
		}
		s.Benchmarks = append(s.Benchmarks, b)
	}
	return s
}

// fullMetrics is a healthy run covering every benchmark DefaultRules needs.
func fullMetrics() map[string]map[string]float64 {
	return map[string]map[string]float64{
		BenchMixedMVCC:     {"ns/op": 9e7, "read_qps": 50000},
		BenchMixedRWLock:   {"ns/op": 9e7, "read_qps": 30000},
		BenchMixedReadOnly: {"ns/op": 5e7, "read_qps": 100000},
		BenchLeafScanOld:   {"ns/op": 1000},
		BenchLeafScanSlab:  {"ns/op": 800},
		BenchLeafDecOld:    {"ns/op": 500},
		BenchLeafDecSlab:   {"ns/op": 400},
		BenchKNNTracerOff:  {"ns/op": 40000, "allocs/op": 0},
		BenchKNNTracerNop:  {"ns/op": 41000, "allocs/op": 0},
		BenchKNNCtx:        {"ns/op": 42000, "allocs/op": 0},
		BenchBoxCtx:        {"ns/op": 30000, "allocs/op": 0},
		BenchRangeCtx:      {"ns/op": 35000, "allocs/op": 0},
		BenchKNNCtxL1:      {"ns/op": 200000, "allocs/op": 0},
		BenchRangeL1:       {"ns/op": 210000, "allocs/op": 2},
		BenchScanRequest:   {"ns/op": 3300, "allocs/op": 0},
		BenchHandler:       {"ns/op": 6300, "allocs/op": 5},
	}
}

func TestCompareHealthyRunPasses(t *testing.T) {
	base := mkSnap(fullMetrics())
	cur := mkSnap(fullMetrics())
	rep := Compare(base, cur, DefaultRules())
	if rep.Failed() {
		t.Fatalf("healthy identical run gated: %+v", rep.Gates())
	}
}

// TestCompareGatesOnSyntheticSlowdown is the acceptance check for the
// unified gate: a synthetic >=25% wall-clock regression on a gated
// benchmark must fail the comparison.
func TestCompareGatesOnSyntheticSlowdown(t *testing.T) {
	base := mkSnap(fullMetrics())
	slow := fullMetrics()
	slow[BenchKNNCtx]["ns/op"] *= 1.30 // 30% slower than baseline
	cur := mkSnap(slow)
	rep := Compare(base, cur, DefaultRules())
	if !rep.Failed() {
		t.Fatalf("30%% slowdown on %s did not gate; findings: %+v", BenchKNNCtx, rep.Findings)
	}
	found := false
	for _, g := range rep.Gates() {
		if g.Bench == BenchKNNCtx && g.Metric == "ns/op" {
			found = true
		}
	}
	if !found {
		t.Fatalf("gate findings missing %s ns/op: %+v", BenchKNNCtx, rep.Gates())
	}
}

func TestCompareWarnsBelowGateThreshold(t *testing.T) {
	base := mkSnap(fullMetrics())
	mid := fullMetrics()
	mid[BenchKNNCtx]["ns/op"] *= 1.15 // between warn (10%) and gate (25%)
	rep := Compare(base, mkSnap(mid), DefaultRules())
	if rep.Failed() {
		t.Fatalf("15%% slowdown gated: %+v", rep.Gates())
	}
	warned := false
	for _, f := range rep.Findings {
		if f.Level == LevelWarn && f.Bench == BenchKNNCtx {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("15%% slowdown produced no warning: %+v", rep.Findings)
	}
}

func TestCompareDowngradesAcrossMachines(t *testing.T) {
	base := mkSnap(fullMetrics())
	slow := fullMetrics()
	slow[BenchKNNCtx]["ns/op"] *= 2
	cur := mkSnap(slow)
	cur.Env.CPUModel = "othercpu"
	rep := Compare(base, cur, DefaultRules())
	if rep.Failed() {
		t.Fatalf("cross-machine wall-clock delta gated: %+v", rep.Gates())
	}
}

func TestCompareDowngradesFewRepeats(t *testing.T) {
	base := mkSnap(fullMetrics())
	slow := fullMetrics()
	slow[BenchKNNCtx]["ns/op"] *= 2
	cur := mkSnap(slow)
	for i := range cur.Benchmarks {
		cur.Benchmarks[i].Repeats = 1
	}
	rep := Compare(base, cur, DefaultRules())
	if rep.Failed() {
		t.Fatalf("single-repeat wall-clock delta gated: %+v", rep.Gates())
	}
}

func TestRatioRulesGateSameRun(t *testing.T) {
	// Ratio gates hold even with no baseline and across machines: they
	// compare within one run.
	bad := fullMetrics()
	bad[BenchLeafScanSlab]["ns/op"] = bad[BenchLeafScanOld]["ns/op"] * 1.5
	rep := Compare(nil, mkSnap(bad), DefaultRules())
	if !rep.Failed() {
		t.Fatalf("1.5x slab/legacy ratio did not gate: %+v", rep.Findings)
	}

	// A required pair member missing is itself a gate.
	missing := fullMetrics()
	delete(missing, BenchMixedReadOnly)
	rep = Compare(nil, mkSnap(missing), DefaultRules())
	if !rep.Failed() {
		t.Fatalf("missing ratio denominator did not gate: %+v", rep.Findings)
	}

	// Tracer overhead past 8% gates.
	trc := fullMetrics()
	trc[BenchKNNTracerNop]["ns/op"] = trc[BenchKNNTracerOff]["ns/op"] * 1.2
	rep = Compare(nil, mkSnap(trc), DefaultRules())
	if !rep.Failed() {
		t.Fatalf("20%% tracer overhead did not gate: %+v", rep.Findings)
	}

	// Mixed read throughput collapsing below 20% of read-only gates.
	mix := fullMetrics()
	mix[BenchMixedMVCC]["read_qps"] = mix[BenchMixedReadOnly]["read_qps"] * 0.1
	rep = Compare(nil, mkSnap(mix), DefaultRules())
	if !rep.Failed() {
		t.Fatalf("10%% mixed read retention did not gate: %+v", rep.Findings)
	}
}

func TestAllocRuleGates(t *testing.T) {
	// Absolute ceiling: the traced-off k-NN path must stay at 0 allocs/op,
	// baseline or not.
	bad := fullMetrics()
	bad[BenchKNNTracerOff]["allocs/op"] = 2
	rep := Compare(nil, mkSnap(bad), DefaultRules())
	if !rep.Failed() {
		t.Fatalf("2 allocs/op on zero-alloc path did not gate: %+v", rep.Findings)
	}

	// Any growth vs baseline gates even under the ceiling.
	base := fullMetrics()
	base[BenchKNNTracerOff]["allocs/op"] = 0
	cur := fullMetrics()
	r := AllocRule{Bench: BenchBoxCtx, MaxAllocs: -1}
	curM := mkSnap(cur)
	curM.Lookup(BenchBoxCtx).Metrics["allocs/op"] = Stat{Median: 3}
	rep = Compare(mkSnap(base), curM, []Rule{r})
	if !rep.Failed() {
		t.Fatalf("alloc growth vs baseline did not gate: %+v", rep.Findings)
	}
}

func TestParseGoBench(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: hybridtree/internal/bench
cpu: Test CPU @ 2.00GHz
BenchmarkMixed90R10W/mvcc-8         	       1	84521633 ns/op	    118319 read_qps	   51000 read_p50_ns	       0 B/op	       0 allocs/op
BenchmarkMixed90R10W/mvcc-8         	       1	86521633 ns/op	    118500 read_qps	   52000 read_p50_ns	       0 B/op	       0 allocs/op
BenchmarkMixed90R10W/mvcc-8         	       1	85521633 ns/op	    117000 read_qps	   53000 read_p50_ns	       0 B/op	       0 allocs/op
BenchmarkLeafScanSlab-8   	 1000000	      1042 ns/op	       0 B/op	       0 allocs/op
PASS
pkg: hybridtree/internal/core
BenchmarkSearchKNNTracerOff-8   	   30000	     41024 ns/op	       0 B/op	       0 allocs/op
ok  	hybridtree/internal/core	1.318s
`
	bs, err := ParseGoBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Benchmark)
	for _, b := range bs {
		byName[b.Name] = b
	}
	mvcc, ok := byName["internal/bench.Mixed90R10W/mvcc"]
	if !ok {
		t.Fatalf("canonical name missing; got %v", keysOf(byName))
	}
	if mvcc.Repeats != 3 {
		t.Fatalf("mvcc repeats = %d, want 3", mvcc.Repeats)
	}
	if got := mvcc.Metrics["ns/op"].Median; got != 85521633 {
		t.Fatalf("mvcc ns/op median = %g", got)
	}
	if got := mvcc.Metrics["read_qps"].Median; got != 118319 {
		t.Fatalf("mvcc read_qps median = %g (custom metric lost?)", got)
	}
	if _, ok := byName["internal/core.SearchKNNTracerOff"]; !ok {
		t.Fatalf("core benchmark missing; got %v", keysOf(byName))
	}
	if got := byName["internal/bench.LeafScanSlab"].Metrics["ns/op"].Median; got != 1042 {
		t.Fatalf("slab ns/op = %g", got)
	}
}

func keysOf(m map[string]Benchmark) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestSnapshotRoundTripAndValidate(t *testing.T) {
	bs, err := ParseGoBench(strings.NewReader(`pkg: hybridtree/internal/core
BenchmarkSearchKNNCtx16d-8 	10	40000 ns/op	0 B/op	0 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapshot(bs)
	if err := s.Validate(1); err != nil {
		t.Fatalf("fresh snapshot invalid: %v", err)
	}
	if err := s.Validate(2); err == nil {
		t.Fatal("minBench=2 should fail a 1-benchmark snapshot")
	}
	if s.Env.GOOS == "" || s.Env.GoVersion == "" {
		t.Fatalf("fingerprint incomplete: %+v", s.Env)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 1 || got.Benchmarks[0].Name != "internal/core.SearchKNNCtx16d" {
		t.Fatalf("round trip mangled: %+v", got.Benchmarks)
	}
}

func TestPercentile(t *testing.T) {
	s := summarize([]float64{5, 1, 3, 2, 4})
	if s.Median != 3 {
		t.Fatalf("median = %g", s.Median)
	}
	if s.P10 < 1 || s.P10 > 2 || s.P90 < 4 || s.P90 > 5 {
		t.Fatalf("p10/p90 = %g/%g", s.P10, s.P90)
	}
	one := summarize([]float64{7})
	if one.Median != 7 || one.P10 != 7 || one.P90 != 7 {
		t.Fatalf("single-sample stat = %+v", one)
	}
}
