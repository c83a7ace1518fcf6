package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/wal"
)

// config is one invocation's settings; the driver's flags and -quick fill
// it.
type config struct {
	sz        sizes
	seed      int64
	dur       time.Duration
	maxOps    int // per-client cap on the measured pass (0 = time only): with one client it makes counts repeat exactly
	setups    int // how many times set-up is repeated for setup_s
	replayOps int // operations per traced replay
	warmDiv   int // warm-up request counts are divided by this
	trace     bool
	workDir   string // scratch root; each run works in a fresh subdirectory
	traceOut  string // span file ("" = none)
	progress  io.Writer
}

// result is one workload run.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Failure   string `json:"failure,omitempty"` // first failure seen
	EndToEnd  values `json:"end_to_end"`
	PerLayer  values `json:"per_layer,omitempty"`
}

// setupTimes is the breakdown of one set-up.
type setupTimes struct {
	bulk, open, warm time.Duration
}

func (s setupTimes) total() time.Duration { return s.bulk + s.open + s.warm }

// heapLive is the live heap in bytes. Two collections, because what a
// sync.Pool held (query contexts, page buffers of a closed stack) survives
// the first in the pool's victim cache.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// coldDoer is the in-process client of cold64-knn: drop the decoded-node
// caches (untimed), then SearchKNN. Every sampleEvery-th answer is encoded
// in the server's JSON shape so one oracle serves both kinds of client.
func coldDoer(st *stack, d *dataSet) doer {
	n := 0
	return doer{
		prep: st.tree.DropCaches,
		do: func(r *request) ([]byte, bool, error) {
			ns, err := st.tree.SearchKNN(d.anchors[r.ref], knnK, oracleMetric)
			if err != nil {
				return nil, false, nil
			}
			n++
			if (n-1)%sampleEvery != 0 {
				return nil, true, nil
			}
			var resp response
			for _, nb := range ns {
				resp.Neighbors = append(resp.Neighbors, neighbor{uint64(nb.RID), nb.Dist})
			}
			body, err := json.Marshal(resp)
			return body, err == nil, nil
		},
	}
}

// doers returns the clients of a pass over st.
func doers(st *stack, d *dataSet, clients int) ([]doer, func(), error) {
	if st.serving {
		return httpDoers(st.addr, clients)
	}
	ds := make([]doer, clients)
	for i := range ds {
		ds[i] = coldDoer(st, d)
	}
	return ds, func() {}, nil
}

// setUp builds the index in dir, opens it through the workload's stack and
// warms it up: a whole-space CountBox touches every node once (so the
// cache hit ratio of a read-only serving pass is exactly 1), then the
// workload's own requests warm connections, pools and the allocator.
func (cfg config) setUp(w workload, dir string, d *dataSet, sched *schedule, beforeOpen func()) (st *stack, t setupTimes, warmed []int, err error) {
	t0 := time.Now()
	if err := buildIndex(dir, d); err != nil {
		return nil, t, nil, err
	}
	t.bulk = time.Since(t0)
	if beforeOpen != nil {
		beforeOpen()
	}
	t0 = time.Now()
	st, err = openStack(dir, w.serving, nil)
	if err != nil {
		return nil, t, nil, err
	}
	if w.serving {
		if err := st.startServer(); err != nil {
			st.kill()
			return nil, t, nil, err
		}
	}
	t.open = time.Since(t0)
	t0 = time.Now()
	fail := func(err error) (*stack, setupTimes, []int, error) {
		st.kill()
		return nil, t, nil, fmt.Errorf("warm-up: %w", err)
	}
	if _, err := st.tree.CountBox(geom.UnitCube(dim)); err != nil {
		return fail(err)
	}
	ds, closeDoers, err := doers(st, d, w.clients)
	if err != nil {
		return fail(err)
	}
	warm := newPassResult(w.clients, w.warmup)
	runPass(warm, sched.begin(w.clients, 0), ds, 0, max(w.warmup/cfg.warmDiv/w.clients, 1))
	closeDoers()
	if err := warm.firstErr(); err != nil {
		return fail(err)
	}
	if n := warm.failed(); n > 0 {
		return fail(fmt.Errorf("%d of %d requests failed", n, warm.attempted()))
	}
	t.warm = time.Since(t0)
	_, warmed = warm.inserts()
	return st, t, warmed, nil
}

// workloadRun is the state of one workload run, filled phase by phase.
type workloadRun struct {
	cfg  config
	w    workload
	root string // the run's scratch directory, removed at the end

	// inputs
	d     *dataSet
	sched *schedule
	gen   time.Duration

	// set-up
	st       *stack
	dir      string // where the kept index lives
	setups   []setupTimes
	warmed   []int // stream entries the kept index took in during warm-up
	heapBase float64

	// measured pass
	pass          *passResult
	before, after counts
	retiredMax    int64
	heap          float64 // bytes held at the end of the pass beyond heapBase
	sent, acked   []int

	// after the pass
	recovery, checkpoint time.Duration
	recovered            wal.Recovery
	ckBefore, ckAfter    counts
	vectors, pages       int
	treeStats            core.TreeStats
	elsBytes             int
	bytesOnDisk          int64

	qps, p99 segStat // of all operations; endToEnd computes, counted reuses

	res *result
}

func (r *workloadRun) logf(format string, args ...any) {
	if r.cfg.progress != nil {
		fmt.Fprintf(r.cfg.progress, "  [%s] "+format+"\n", append([]any{r.w.name}, args...)...)
	}
}

// fail counts n failed operations (or checks) against the run and keeps
// the first reason.
func (r *workloadRun) fail(n int, err error) {
	r.res.Failed += n
	if r.res.Failure == "" && err != nil {
		r.res.Failure = err.Error()
	}
}

// runWorkload performs one complete run of w: generate, set up (cfg.setups
// times), measured pass, kill-style close, recovery, lookup of every
// acknowledged insert, checkpoint, oracle, and — with cfg.trace — the
// counted and traced per-layer pass.
func runWorkload(cfg config, w workload) (*result, error) {
	root, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	r := &workloadRun{cfg: cfg, w: w, root: root, res: &result{Workload: w.name, Seed: cfg.seed, EndToEnd: values{}}}
	steps := []func() error{r.generate, r.setUp, r.measure, r.recoverAndCheckpoint, r.checkAnswers, r.endToEnd}
	if cfg.trace {
		steps = append(steps, r.counted, r.traced)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			if r.st != nil {
				r.st.kill()
			}
			return nil, err
		}
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// generate makes the inputs; everything derives from the seed.
func (r *workloadRun) generate() error {
	t0 := time.Now()
	d, err := generate(r.cfg.sz, r.cfg.seed, r.w.has(opBox) || r.w.has(opRange))
	if err != nil {
		return err
	}
	r.d, r.sched = d, newSchedule(r.w, d, r.cfg.seed)
	r.gen = time.Since(t0)
	r.logf("generated %d vectors in %.2fs", len(d.base)+len(d.anchors)+len(d.stream), r.gen.Seconds())
	// The measured pass's sample buffers exist before the heap baseline is
	// read, so heap_mb does not charge them to the index.
	r.pass = newPassResult(r.w.clients, 1<<19)
	return nil
}

// setUp sets up cfg.setups times, so setup_s is a median, and keeps the
// last.
func (r *workloadRun) setUp() error {
	for i := 0; i < r.cfg.setups; i++ {
		sub := filepath.Join(r.root, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return err
		}
		last := i == r.cfg.setups-1
		mark := r.sched.insertNext
		var beforeOpen func()
		if last {
			// Datasets and request bodies are allocated, the index is not
			// open yet: the baseline for heap_mb.
			beforeOpen = func() { r.heapBase = heapLive() }
		}
		st, t, acked, err := r.cfg.setUp(r.w, sub, r.d, r.sched, beforeOpen)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		r.setups = append(r.setups, t)
		r.logf("set-up %d: bulk %.2fs open %.3fs warm %.2fs", i, t.bulk.Seconds(), t.open.Seconds(), t.warm.Seconds())
		if last {
			r.st, r.dir, r.warmed = st, sub, acked
			break
		}
		st.kill()
		os.RemoveAll(sub)
		r.sched.insertNext = mark // the discarded index took its warm-up inserts with it
	}
	return nil
}

// measure is the measured pass: untraced, no wrappers in the stack.
func (r *workloadRun) measure() error {
	st, w := r.st, r.w
	ds, closeDoers, err := doers(st, r.d, w.clients)
	if err != nil {
		return err
	}
	var logSize func() int64
	if st.log != nil {
		logSize = st.log.Size
	}
	var retired *gaugeMax
	if r.cfg.trace {
		retired = watchGauge(gRetired)
	}
	r.before = readCounts(st.disk.Stats(), logSize)
	runPass(r.pass, r.sched.begin(w.clients, w.warmup), ds, r.cfg.dur, r.cfg.maxOps)
	r.after = readCounts(st.disk.Stats(), logSize)
	closeDoers()
	if retired != nil {
		r.retiredMax = retired.peak()
	}
	r.logf("measured %d operations in %.2fs", r.pass.attempted(), r.pass.wall.Seconds())
	r.res.Attempted, r.res.Failed = r.pass.attempted(), r.pass.failed()
	r.fail(0, r.pass.firstErr())
	r.sent, r.acked = r.pass.inserts()

	if !st.serving {
		// The cold reader's cache holds whatever its last query touched,
		// which is not the index's footprint. Decode every node once and
		// read the heap then: what the open index costs fully cached,
		// without server or WAL.
		if _, err := st.tree.CountBox(geom.UnitCube(dim)); err != nil {
			r.fail(1, fmt.Errorf("cache fill: %w", err))
		}
	}
	r.heap = heapLive() - r.heapBase - r.pass.retainedBytes()
	return nil
}

// recoverAndCheckpoint drains the server, closes the files kill-style,
// reopens (recovering the log), looks up every acknowledged insert,
// checkpoints and closes for good.
func (r *workloadRun) recoverAndCheckpoint() error {
	if err := r.st.stopServer(); err != nil {
		r.fail(1, fmt.Errorf("drain: %w", err))
	}
	r.st.kill()
	t0 := time.Now()
	st, err := openStack(r.dir, r.w.serving, nil)
	if err != nil {
		r.st = nil
		return fmt.Errorf("reopen after kill: %w", err)
	}
	r.st = st
	r.recovery, r.recovered = time.Since(t0), st.rec

	lost, err := lostWrites(st.core, r.d, append(append([]int(nil), r.warmed...), r.acked...))
	if err != nil {
		r.fail(1, fmt.Errorf("post-recovery lookup: %w", err))
	}
	if lost > 0 {
		r.fail(lost, fmt.Errorf("%d acknowledged inserts missing after recovery", lost))
	}

	r.ckBefore = readCounts(st.disk.Stats(), nil)
	t0 = time.Now()
	if r.w.serving {
		if err := st.tree.Flush(); err != nil {
			r.fail(1, fmt.Errorf("checkpoint: %w", err))
		}
	}
	r.checkpoint = time.Since(t0)
	r.ckAfter = readCounts(st.disk.Stats(), nil)

	r.vectors, r.pages, r.elsBytes = st.tree.Size(), st.disk.NumPages(), st.core.ELSMemoryBytes()
	if r.treeStats, err = st.tree.Stats(); err != nil {
		r.fail(1, fmt.Errorf("tree stats: %w", err))
	}
	err = st.close()
	r.st = nil
	if err != nil {
		r.fail(1, fmt.Errorf("close: %w", err))
	}
	if r.bytesOnDisk, err = fileBytes(r.dir); err != nil {
		return err
	}
	r.logf("recovered %d commits in %.3fs, %d lost; checkpoint %.3fs", r.recovered.Txs, r.recovery.Seconds(), lost, r.checkpoint.Seconds())
	return nil
}

// checkAnswers runs the oracle over the kept responses, outside every
// timed window.
func (r *workloadRun) checkAnswers() error {
	var ks []kept
	for i := range r.pass.clients {
		ks = append(ks, r.pass.clients[i].kept...)
	}
	or := &oracle{d: r.d, initial: r.warmed, during: r.sent}
	mismatches, first := or.checkAll(ks, runtime.GOMAXPROCS(0))
	r.fail(mismatches, first)
	r.logf("oracle checked %d responses, %d mismatches", len(ks), mismatches)
	return nil
}

func (r *workloadRun) endToEnd() error {
	samples, passNs := r.pass.samples(), r.cfg.dur.Nanoseconds()
	qps, p50, p99 := latencyStats(samples, passNs, nil)
	r.qps, r.p99 = qps, p99
	var totals []float64
	for _, t := range r.setups {
		totals = append(totals, (r.gen + t.total()).Seconds())
	}
	e := r.res.EndToEnd
	e.setSeg(endToEnd, "setup_s", overSegments(totals, nil))
	e.setSeg(endToEnd, "qps", qps)
	e.setSeg(endToEnd, "p50_ms", p50)
	e.setSeg(endToEnd, "p99_ms", p99)
	e.setSeg(endToEnd, "cpu_ms_per_op", cpuPerOp(r.pass, samples, passNs))
	e.set(endToEnd, "heap_mb", r.heap/(1<<20))
	e.set(endToEnd, "space_amp", ratio(float64(r.bytesOnDisk), float64(r.vectors)*(4*dim+8)))
	return nil
}

// counted fills the per-layer metrics that come from the measured pass:
// client detail and deltas of the registry, File.Stats(), LogStore.Size()
// and MemStats.
func (r *workloadRun) counted() error {
	l := values{}
	r.res.PerLayer = l
	w, pass, before, after := r.w, r.pass, r.before, r.after
	samples, passNs := pass.samples(), r.cfg.dur.Nanoseconds()
	ops := float64(max(pass.attempted(), 1))
	inserts := float64(len(r.acked)) // core_inserts_total does not count inserts batched under RunTx
	d := func(name string) float64 { return delta(before, after, name) }

	_, rp50, rp99 := latencyStats(samples, passNs, func(k opKind) bool { return !k.isWrite() })
	_, wp50, wp99 := latencyStats(samples, passNs, opKind.isWrite)
	l.setSeg(perLayer, "read_p50_ms", rp50)
	l.setSeg(perLayer, "read_p99_ms", rp99)
	l.setSeg(perLayer, "write_p50_ms", wp50)
	l.setSeg(perLayer, "write_p99_ms", wp99)
	l.set(perLayer, "client.segment_spread_pct", r.qps.spreadPct())
	l.set(perLayer, "client.p99_samples", float64(r.p99.Samples))
	l.set(perLayer, "fail_ratio", ratio(float64(r.res.Failed), float64(r.res.Attempted)))
	if w.serving {
		for name, kinds := range map[string][]opKind{
			"server.knn_p50_ms": {opKNN}, "server.box_p50_ms": {opBox, opPoint},
			"server.range_p50_ms": {opRange}, "server.insert_p50_ms": {opInsert},
		} {
			_, k50, _ := latencyStats(samples, passNs, func(k opKind) bool { return slices.Contains(kinds, k) })
			l.setSeg(perLayer, name, k50)
		}
		var reqBytes, rspBytes int64
		for i := range pass.clients {
			reqBytes += pass.clients[i].reqBytes
			rspBytes += pass.clients[i].rspBytes
		}
		l.set(perLayer, "server.non_ok", d(cRequests)-d(cRequestsOK))
		l.set(perLayer, "server.req_bytes_per_op", float64(reqBytes)/ops)
		l.set(perLayer, "server.resp_bytes_per_op", float64(rspBytes)/ops)
	}

	l.set(perLayer, "core.node_reads_per_op", d(cNodeReads)/ops)
	l.set(perLayer, "core.cache_hit_ratio", ratio(d(cCacheHits), d(cNodeReads)))
	l.set(perLayer, "core.leaf_scanned_per_op", d(cScanned)/ops)
	l.set(perLayer, "core.useful_scan_ratio", ratio(d(cResults), d(cScanned)))
	l.set(perLayer, "core.kd_prunes_per_op", d(cKDPrunes)/ops)
	l.set(perLayer, "els.prunes_per_op", d(cELSPrunes)/ops)
	l.set(perLayer, "dist.prunes_per_op", d(cDistPrunes)/ops)
	l.set(perLayer, "pqueue.pushes_per_op", d(cHeapPushes)/ops)
	l.set(perLayer, "core.splits_per_insert", ratio(d(cSplitsData)+d(cSplitsIndex), inserts))
	l.set(perLayer, "core.reinserts_per_insert", ratio(d(cReinserts), inserts))
	l.set(perLayer, "core.rollbacks", d(cRollbacks))
	l.set(perLayer, "core.mvcc_retired_max", float64(r.retiredMax))
	l.set(perLayer, "concurrent.group_batch_mean", ratio(inserts, d(cBatches)))
	l.set(perLayer, "wal.fsyncs_per_insert", ratio(d(cFsyncs), inserts))
	logBytes := float64(after.logBytes - before.logBytes)
	ckptPages := delta(r.ckBefore, r.ckAfter, cCkptPages)
	l.set(perLayer, "wal.log_bytes_per_insert", ratio(logBytes, inserts))
	l.set(perLayer, "wal.write_amp", ratio(logBytes+ckptPages*pageSize, inserts*(4*dim+8)))
	l.set(perLayer, "pagefile.writes_per_insert", ratio(float64(after.file.Writes-before.file.Writes), inserts))
	l.set(perLayer, "pagefile.syncs", float64(after.file.Syncs-before.file.Syncs+r.ckAfter.file.Syncs-r.ckBefore.file.Syncs))
	l.set(perLayer, "pagefile.retries", d(cRetries))
	l.set(perLayer, "go.alloc_kb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/ops)
	l.set(perLayer, "go.mallocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/ops)
	l.set(perLayer, "go.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	l.set(perLayer, "go.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)

	l.set(perLayer, "recovery_s", r.recovery.Seconds())
	l.set(perLayer, "wal.recovery_us_per_commit", ratio(r.recovery.Seconds()*1e6, float64(r.recovered.Txs)))
	l.set(perLayer, "wal.recover_records", float64(r.recovered.Replayed))
	l.set(perLayer, "wal.checkpoint_ms", float64(r.checkpoint.Microseconds())/1e3)
	l.set(perLayer, "wal.checkpoint_pages", ckptPages)
	final := r.setups[len(r.setups)-1]
	l.set(perLayer, "setup.gen_s", r.gen.Seconds())
	l.set(perLayer, "setup.bulkload_s", final.bulk.Seconds())
	l.set(perLayer, "setup.open_s", final.open.Seconds())
	l.set(perLayer, "setup.warm_s", final.warm.Seconds())
	l.set(perLayer, "index.pages", float64(r.pages))
	l.set(perLayer, "index.height", float64(r.treeStats.Height))
	l.set(perLayer, "index.data_fill", r.treeStats.AvgDataFill)
	l.set(perLayer, "els.memory_kb", float64(r.elsBytes)/1024)
	return nil
}

// traced is the traced pass: the same files, reopened through the same
// stack with the span-recording wrappers, the node cache refilled.
func (r *workloadRun) traced() error {
	rec := newRecorder()
	st, err := openStack(r.dir, r.w.serving, rec)
	if err != nil {
		return fmt.Errorf("reopen for tracing: %w", err)
	}
	r.st = st
	if _, err := st.tree.CountBox(geom.UnitCube(dim)); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	var budget map[string]float64
	if r.w.serving {
		if err = st.startServer(); err == nil {
			budget, err = tracedServing(st, rec, r.sched, r.d, r.cfg.replayOps)
		}
	} else {
		budget, err = tracedCold(st, rec, r.sched, r.d, r.cfg.replayOps)
	}
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	err = st.close()
	r.st = nil
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	for name, v := range budget {
		r.res.PerLayer.set(perLayer, name, v)
	}
	if r.cfg.traceOut != "" {
		summary := map[string]any{"summary": r.w.name, "seed": r.cfg.seed, "ops_per_replay": r.cfg.replayOps, "per_layer_us": budget}
		if err := rec.writeJSONLines(r.cfg.traceOut, summary); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// cpuPerOp is process CPU per operation in ms, per segment.
func cpuPerOp(pass *passResult, samples []opSample, passNs int64) segStat {
	var n [numSegments]int
	for _, s := range samples {
		if s.end <= passNs {
			n[segmentOf(s.end, passNs)]++
		}
	}
	var vals []float64
	var counts []int
	for seg := 0; seg < numSegments; seg++ {
		if n[seg] == 0 || pass.cpuSeg[seg] == 0 {
			continue
		}
		vals = append(vals, float64(pass.cpuSeg[seg].Microseconds())/1e3/float64(n[seg]))
		counts = append(counts, n[seg])
	}
	return overSegments(vals, counts)
}
