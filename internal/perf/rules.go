package perf

// Canonical names of the benchmarks the rule table reads, as ParseGoBench
// spells them. TestRuleSubjectsExist resolves each to a Benchmark function
// in the named package, so a rename fails `go test`, not just CI.
const (
	BenchKNNTracerOff = "internal/core.SearchKNNTracerOff"
	BenchKNNTracerNop = "internal/core.SearchKNNTracerNop"
	BenchKNNCtxL1     = "internal/core.SearchKNNCtxL1_64d"
	BenchScanRequest  = "internal/server.ScanRequestPoint64"
)

// DefaultRules is the CI rule table: only what one `go test -bench` run can
// decide by itself. Anything timed across commits belongs to benchmark/
// (DESIGN.md §12).
func DefaultRules() []Rule {
	return []Rule{
		// An installed-but-nop tracer must stay within 8% of tracer-off on
		// the k-NN hot path.
		RatioRule{
			Name:     "tracer-overhead",
			NumBench: BenchKNNTracerNop, NumMetric: "ns/op",
			DenBench: BenchKNNTracerOff, DenMetric: "ns/op",
			MaxRatio: 1.08,
		},
		// Zero-allocation contract on the query hot path, traced off or nop.
		AllocRule{Bench: BenchKNNTracerOff, MaxAllocs: 0},
		AllocRule{Bench: BenchKNNTracerNop, MaxAllocs: 0},
		// ... and on the additive-kernel path under the paper's metric.
		AllocRule{Bench: BenchKNNCtxL1, MaxAllocs: 0},
		// ... and on the wire decode of a /v1 body. (HandlerPoint64, the
		// whole ServeHTTP around it, allocates a handful — the response
		// encoder, the lifecycle context — and has a test-side ceiling.)
		AllocRule{Bench: BenchScanRequest, MaxAllocs: 0},
	}
}
