package main

// metricDef names one reported metric. bound is the share of the baseline
// median by which an end-to-end metric may get worse before -compare (and
// the driver) calls it a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	higher bool // true when larger is better
	bound  float64
}

func (m metricDef) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd is what a user of the system sees. Every metric is defined on
// every workload and is never zero; see README.md for why the issue's
// per-direction latencies, recovery time and fail ratio are not here.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},        // dataset generation + BulkLoad + flush + reopen through the stack + warm-up; median of the repeated set-ups
	{"qps", "op/s", true, 0.25},          // correct acknowledged operations per second of the measured pass, median segment
	{"p50_ms", "ms", false, 0.25},        // operation latency, send to body fully read (cold: SearchKNN call), median segment
	{"p99_ms", "ms", false, 0.25},        // 99th percentile of the same, median segment
	{"cpu_ms_per_op", "ms", false, 0.25}, // process user+sys CPU per operation (getrusage), median segment
	{"heap_mb", "MB", false, 0.15},       // live heap after GC at the end of the pass minus the same before the index was opened
	{"space_amp", "ratio", false, 0.05},  // (index file + WAL bytes after the final checkpoint) / (vectors x (4*dim+8))
}

// perLayer lists the single-layer metrics in print order. A metric that
// does not apply to a workload is reported as 0 there.
var perLayer = []metricDef{
	// Timed from outside, traced pass: mean µs per operation.
	{name: "client.rtt_us", unit: "us"},       // traced 1-client round trip (cold: SearchKNN call)
	{name: "server.net_us", unit: "us"},       // round trip of a null request (GET /healthz) sent at the workload's cadence: client + loopback + net/http + thread wake-ups
	{name: "server.handle_us", unit: "us"},    // Handler().ServeHTTP minus executor/group call: JSON decode/encode, lifecycle, accounting
	{name: "concurrent.exec_us", unit: "us"},  // Executor.Search* minus core search: queue hop, worker wake-up, result clone
	{name: "concurrent.group_us", unit: "us"}, // GroupCommitter.Insert minus Tree.Insert: queue hop and batch bookkeeping
	{name: "core.search_us", unit: "us"},      // core.Tree.Search*Context minus device reads (cold: warm replay of the same query)
	{name: "core.insert_us", unit: "us"},      // Tree.Insert minus its WAL and device children: descent, split, COW, publish
	{name: "core.miss_us", unit: "us"},        // cold64-knn: cold search minus warm replay minus device reads = decode + install
	{name: "wal.stage_us", unit: "us"},        // TxFile WritePage/Allocate/Free/BeginTx self time: overlay copy and record staging
	{name: "wal.seal_us", unit: "us"},         // SealTx self time (minus log children): commit framing
	{name: "wal.log_append_us", unit: "us"},   // LogStore.Append: write(2) of the commit's frames
	{name: "wal.log_fsync_us", unit: "us"},    // LogStore.Sync: fsync of the log
	{name: "pagefile.read_us", unit: "us"},    // device-seam ReadPage (RetryFile + DiskFile pread)
	{name: "pagefile.write_us", unit: "us"},   // device-seam WritePage/Allocate/Free
	{name: "pagefile.sync_us", unit: "us"},    // device-seam Sync
	{name: "trace.residual_us", unit: "us"},   // rtt minus the sum of the layer times above: per-request HTTP cost beyond a null request, plus differencing noise
	{name: "trace.overhead_pct", unit: "%"},   // traced vs untraced 1-client HTTP replay of the same operations
	// Client-observed detail of the measured pass.
	{name: "read_p50_ms", unit: "ms"}, // query latency, median segment (demoted from end-to-end: undefined on insert64-durable)
	{name: "read_p99_ms", unit: "ms"},
	{name: "write_p50_ms", unit: "ms"}, // insert latency to durable acknowledgement (demoted: undefined on read-only workloads)
	{name: "write_p99_ms", unit: "ms"},
	{name: "recovery_s", unit: "s"},                  // wal.Open + core.Open over the un-checkpointed log of the run's commits (demoted: ~0 without writes)
	{name: "wal.recovery_us_per_commit", unit: "us"}, // recovery_s per replayed commit
	{name: "server.knn_p50_ms", unit: "ms"},          // round trip of k-NN requests, median segment
	{name: "server.box_p50_ms", unit: "ms"},          // round trip of box and point requests
	{name: "server.range_p50_ms", unit: "ms"},
	{name: "server.insert_p50_ms", unit: "ms"},
	{name: "server.non_ok", unit: "count"}, // requests the server resolved to anything but ok
	{name: "server.req_bytes_per_op", unit: "B"},
	{name: "server.resp_bytes_per_op", unit: "B"},
	{name: "client.segment_spread_pct", unit: "%"},            // (max - min) / median of qps across the five segments
	{name: "client.p99_samples", higher: true, unit: "count"}, // latency samples in the median segment
	{name: "fail_ratio", unit: "ratio"},                       // failed / attempted (the result line carries both counts)
	// Counted, measured pass: deltas of obs.Default(), File.Stats(), LogStore.Size(), MemStats.
	{name: "core.node_reads_per_op", unit: "count"},
	{name: "core.cache_hit_ratio", higher: true, unit: "ratio"},
	{name: "core.leaf_scanned_per_op", unit: "count"},
	{name: "core.useful_scan_ratio", higher: true, unit: "ratio"}, // results / leaf entries scanned
	{name: "core.kd_prunes_per_op", higher: true, unit: "count"},
	{name: "els.prunes_per_op", higher: true, unit: "count"},
	{name: "els.memory_kb", unit: "KB"},
	{name: "dist.prunes_per_op", higher: true, unit: "count"},
	{name: "pqueue.pushes_per_op", unit: "count"},
	{name: "core.splits_per_insert", unit: "count"},
	{name: "core.reinserts_per_insert", unit: "count"},
	{name: "core.rollbacks", unit: "count"},        // expect 0
	{name: "core.mvcc_retired_max", unit: "count"}, // peak retired node versions awaiting reclamation (sampled every 10 ms)
	{name: "concurrent.group_batch_mean", higher: true, unit: "count"},
	{name: "wal.fsyncs_per_insert", unit: "count"},
	{name: "wal.log_bytes_per_insert", unit: "B"},
	{name: "wal.write_amp", unit: "ratio"}, // (log bytes + checkpointed page bytes) / inserted user bytes
	{name: "wal.checkpoint_ms", unit: "ms"},
	{name: "wal.checkpoint_pages", unit: "count"},
	{name: "wal.recover_records", unit: "count"},
	{name: "pagefile.writes_per_insert", unit: "count"}, // logical page writes staged per insert
	{name: "pagefile.syncs", unit: "count"},
	{name: "pagefile.retries", unit: "count"}, // expect 0
	{name: "go.alloc_kb_per_op", unit: "KB"},
	{name: "go.mallocs_per_op", unit: "count"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"},
	{name: "setup.gen_s", unit: "s"},
	{name: "setup.bulkload_s", unit: "s"},
	{name: "setup.open_s", unit: "s"},
	{name: "setup.warm_s", unit: "s"},
	{name: "index.pages", unit: "count"},
	{name: "index.height", unit: "count"},
	{name: "index.data_fill", higher: true, unit: "ratio"},
}

// value is one reported number. Min and Max are the in-run spread across
// segments where the metric has segments.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

type values map[string]value

func (vs values) set(defs []metricDef, name string, v float64) {
	vs[name] = value{Value: v, Unit: unitOf(defs, name)}
}

func (vs values) setSeg(defs []metricDef, name string, s segStat) {
	vs[name] = value{Value: s.Value, Unit: unitOf(defs, name), Min: s.Min, Max: s.Max, Samples: s.Samples}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

// complete fills every declared metric missing from vs with 0, so each
// result line carries the full list whatever the workload.
func (vs values) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := vs[d.name]; !ok {
			vs[d.name] = value{Unit: d.unit}
		}
	}
}
