package perf

// Canonical benchmark names in the CI snapshot (see .github/workflows and
// the bench/core packages). Kept as constants so the rule table and the
// tests cannot drift apart silently.
const (
	BenchMixedMVCC     = "internal/bench.Mixed90R10W/mvcc"
	BenchMixedRWLock   = "internal/bench.Mixed90R10W/rwlock"
	BenchMixedReadOnly = "internal/bench.MixedReadOnly"
	BenchLeafScanOld   = "internal/bench.LeafScanLegacy"
	BenchLeafScanSlab  = "internal/bench.LeafScanSlab"
	BenchLeafDecOld    = "internal/bench.LeafDecodeLegacy"
	BenchLeafDecSlab   = "internal/bench.LeafDecodeSlab"
	BenchKNNTracerOff  = "internal/core.SearchKNNTracerOff"
	BenchKNNTracerNop  = "internal/core.SearchKNNTracerNop"
	BenchKNNCtx        = "internal/core.SearchKNNCtx16d"
	BenchBoxCtx        = "internal/core.SearchBoxCtx16d"
	BenchRangeCtx      = "internal/core.SearchRangeCtxL2_16d"
	BenchKNNCtxL1      = "internal/core.SearchKNNCtxL1_64d"
	BenchRangeL1       = "internal/core.SearchRangeL1_64d"
	BenchScanRequest   = "internal/server.ScanRequestPoint64"
	BenchHandler       = "internal/server.HandlerPoint64"
)

// DefaultRules is the CI rule table. It folds the three bespoke gates that
// used to be separate test steps into the uniform mechanism:
//
//   - leaf-scan layout gate (was TestLeafScanGate, LEAF_GATE=1): the slab
//     layout must stay within 1.25x of the legacy per-point layout, same
//     run, always gateable;
//   - tracer overhead gate (was TestTracerOverheadGate, OBS_OVERHEAD_GATE=1):
//     an installed-but-nop tracer must stay within 8% of tracer-off on the
//     k-NN hot path, and both must stay at zero allocations;
//   - mixed-workload gate (was TestMixedWorkloadGate, MIXED_GATE=1): MVCC
//     readers under a 90/10 mixed load must retain at least 20% of the
//     read-only throughput.
//
// On top of those same-run invariants, wall-clock medians compare against
// the committed baseline with a 25% gate / 10% warn band, requiring at
// least 3 repeats and a matching machine fingerprint to hard-fail.
func DefaultRules() []Rule {
	nsDelta := func(bench string) DeltaRule {
		return DeltaRule{
			Bench: bench, Metric: "ns/op",
			MaxRegress: 0.25, WarnRegress: 0.10,
			MinRepeats: 3, MachineBound: true,
		}
	}
	return []Rule{
		// Same-run ratio gates (machine-independent, always enforced).
		RatioRule{
			Name:     "leaf-scan-layout",
			NumBench: BenchLeafScanSlab, NumMetric: "ns/op",
			DenBench: BenchLeafScanOld, DenMetric: "ns/op",
			MaxRatio: 1.25,
		},
		RatioRule{
			Name:     "leaf-decode-layout",
			NumBench: BenchLeafDecSlab, NumMetric: "ns/op",
			DenBench: BenchLeafDecOld, DenMetric: "ns/op",
			MaxRatio: 1.25,
		},
		RatioRule{
			Name:     "tracer-overhead",
			NumBench: BenchKNNTracerNop, NumMetric: "ns/op",
			DenBench: BenchKNNTracerOff, DenMetric: "ns/op",
			MaxRatio: 1.08,
		},
		RatioRule{
			Name:     "mixed-read-retention",
			NumBench: BenchMixedMVCC, NumMetric: "read_qps",
			DenBench: BenchMixedReadOnly, DenMetric: "read_qps",
			MinRatio: 0.20,
		},
		// Zero-allocation contract on the query hot path, traced off or nop.
		AllocRule{Bench: BenchKNNTracerOff, MaxAllocs: 0},
		AllocRule{Bench: BenchKNNTracerNop, MaxAllocs: 0},
		// ... and on the additive-kernel path under the paper's metric.
		// (SearchRangeL1_64d is the pooled-context call: its two allocations
		// are the context check-out and the result slice, not the path.)
		AllocRule{Bench: BenchKNNCtxL1, MaxAllocs: 0},
		// ... and on the wire decode of a /v1 body. (HandlerPoint64, the
		// whole ServeHTTP around it, allocates a handful — the response
		// encoder, the lifecycle context — and has a test-side ceiling.)
		AllocRule{Bench: BenchScanRequest, MaxAllocs: 0},
		// Baseline trajectory: wall-clock medians of the hot-path suites.
		nsDelta(BenchKNNCtx),
		nsDelta(BenchBoxCtx),
		nsDelta(BenchRangeCtx),
		nsDelta(BenchKNNCtxL1),
		nsDelta(BenchRangeL1),
		nsDelta(BenchScanRequest),
		nsDelta(BenchHandler),
		nsDelta(BenchKNNTracerOff),
		nsDelta(BenchLeafScanSlab),
		nsDelta(BenchLeafDecSlab),
		DeltaRule{
			Bench: BenchMixedMVCC, Metric: "read_qps",
			MaxRegress: 0.25, WarnRegress: 0.10,
			MinRepeats: 3, MachineBound: true, HigherIsBetter: true,
		},
	}
}
