package perf

import (
	"encoding/json"
	"os"
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
		BenchKNNTracerOff: {"ns/op": 40000, "allocs/op": 0},
		BenchKNNTracerNop: {"ns/op": 41000, "allocs/op": 0},
		BenchKNNCtxL1:     {"ns/op": 200000, "allocs/op": 0},
		BenchScanRequest:  {"ns/op": 3300, "allocs/op": 0},
	}
}

func TestCompareHealthyRunPasses(t *testing.T) {
	rep := Compare(mkSnap(fullMetrics()), DefaultRules())
	if rep.Failed() {
		t.Fatalf("healthy run gated: %+v", rep.Gates())
	}
}

// TestRuleSubjectsExist resolves every benchmark DefaultRules names to a
// `func Benchmark<Name>(` in that package's test files, so renaming one
// fails here instead of as "benchmark missing" in the CI trajectory step.
func TestRuleSubjectsExist(t *testing.T) {
	var subjects []string
	for _, r := range DefaultRules() {
		switch r := r.(type) {
		case RatioRule:
			subjects = append(subjects, r.NumBench, r.DenBench)
		case AllocRule:
			subjects = append(subjects, r.Bench)
		default:
			t.Fatalf("rule type %T: teach this test where its benchmark names live", r)
		}
	}
	for _, subject := range subjects {
		pkg, name, ok := strings.Cut(subject, ".")
		if !ok {
			t.Fatalf("subject %q is not <pkg>.<Name>", subject)
		}
		files, err := filepath.Glob(filepath.Join("..", "..", pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("subject %q: no test files in %s (err %v)", subject, pkg, err)
		}
		found := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "func Benchmark"+name+"(") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("subject %q: no func Benchmark%s( in %s/*_test.go", subject, name, pkg)
		}
	}
}

func TestRatioRulesGateSameRun(t *testing.T) {
	// A required pair member missing is itself a gate.
	missing := fullMetrics()
	delete(missing, BenchKNNTracerOff)
	rep := Compare(mkSnap(missing), DefaultRules())
	if !rep.Failed() {
		t.Fatalf("missing ratio denominator did not gate: %+v", rep.Findings)
	}

	// Tracer overhead past 8% gates; 7% does not.
	for _, tc := range []struct {
		factor float64
		gate   bool
	}{{1.09, true}, {1.07, false}} {
		trc := fullMetrics()
		trc[BenchKNNTracerNop]["ns/op"] = trc[BenchKNNTracerOff]["ns/op"] * tc.factor
		rep = Compare(mkSnap(trc), DefaultRules())
		if rep.Failed() != tc.gate {
			t.Fatalf("%.0f%% tracer overhead: gated = %v, want %v: %+v", (tc.factor-1)*100, rep.Failed(), tc.gate, rep.Findings)
		}
	}
}

func TestAllocRuleGates(t *testing.T) {
	// The ceiling is absolute: one allocation on any zero-alloc subject
	// gates, and so does the subject going missing.
	for _, bench := range []string{BenchKNNTracerOff, BenchKNNTracerNop, BenchKNNCtxL1, BenchScanRequest} {
		bad := fullMetrics()
		bad[bench]["allocs/op"] = 1
		if rep := Compare(mkSnap(bad), DefaultRules()); !rep.Failed() {
			t.Fatalf("1 alloc/op on %s did not gate: %+v", bench, rep.Findings)
		}
	}
	missing := fullMetrics()
	delete(missing, BenchScanRequest)
	if rep := Compare(mkSnap(missing), DefaultRules()); !rep.Failed() {
		t.Fatalf("missing alloc subject did not gate: %+v", rep.Findings)
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
	if err := s.Validate(); err != nil {
		t.Fatalf("fresh snapshot invalid: %v", err)
	}
	if s.Env.GOOS == "" || s.Env.GoVersion == "" {
		t.Fatalf("fingerprint incomplete: %+v", s.Env)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
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
