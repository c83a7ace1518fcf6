package core

import (
	"sync"
	"sync/atomic"
	"time"

	"hybridtree/internal/obs"
)

// treeMetrics is the hybrid tree's bundle of pre-resolved instruments. One
// process-wide bundle is shared by every Tree (the metric names are fixed),
// so resolving it costs one sync.Once and the hot path only pays atomic
// adds. Per-query traversal counts are accumulated as plain ints in the
// query context (tally) and flushed here once per query, keeping atomic
// operations out of the innermost kd-walk loops.
type treeMetrics struct {
	queries    [numKinds]*obs.Counter
	latency    [numKinds]*obs.Histogram
	outcomes   *obs.Outcomes
	queryErrs  *obs.Counter
	results    *obs.Counter
	kdPrunes   *obs.Counter
	elsHits    *obs.Counter
	elsPrunes  *obs.Counter
	distPrunes *obs.Counter
	descents   *obs.Counter
	heapPushes *obs.Counter
	scanned    *obs.Counter

	inserts     *obs.Counter
	deletes     *obs.Counter
	insertNs    *obs.Histogram
	deleteNs    *obs.Histogram
	splitsData  *obs.Counter
	splitsIndex *obs.Counter
	reinserts   *obs.Counter
	rollbacks   *obs.Counter
	leakedPages *obs.Gauge

	// MVCC snapshot-read instruments: the published commit epoch, the
	// number of superseded node versions awaiting epoch reclamation, the
	// number of currently pinned readers, and how long readers hold their
	// pins (long pins delay reclamation).
	mvccEpoch   *obs.Gauge
	mvccRetired *obs.Gauge
	mvccPins    *obs.Gauge
	mvccPinNs   *obs.Histogram

	// unifiedPrunes mirrors the sum of kd/ELS/dist prunes into the
	// cross-method index_prunes_total{method="hybrid"} counter so the
	// per-method comparison table sees the hybrid too.
	unifiedPrunes *obs.Counter
}

var (
	hybridMetricsOnce sync.Once
	hybridMetricsVal  *treeMetrics
)

// hybridMetrics resolves the shared instrument bundle from the default
// registry.
func hybridMetrics() *treeMetrics {
	hybridMetricsOnce.Do(func() {
		r := obs.Default()
		m := &treeMetrics{
			outcomes:    obs.NewOutcomes(r, "core_query_outcomes_total"),
			queryErrs:   r.Counter("core_query_errors_total"),
			results:     r.Counter("core_results_total"),
			kdPrunes:    r.Counter("core_kd_prunes_total"),
			elsHits:     r.Counter("core_els_decode_hits_total"),
			elsPrunes:   r.Counter("core_els_prunes_total"),
			distPrunes:  r.Counter("core_dist_prunes_total"),
			descents:    r.Counter("core_descents_total"),
			heapPushes:  r.Counter("core_heap_pushes_total"),
			scanned:     r.Counter("core_leaf_entries_scanned_total"),
			inserts:     r.Counter("core_inserts_total"),
			deletes:     r.Counter("core_deletes_total"),
			insertNs:    r.Histogram(`core_mutation_ns{op="insert"}`),
			deleteNs:    r.Histogram(`core_mutation_ns{op="delete"}`),
			splitsData:  r.Counter(`core_splits_total{kind="data"}`),
			splitsIndex: r.Counter(`core_splits_total{kind="index"}`),
			reinserts:   r.Counter("core_reinserts_total"),
			rollbacks:   r.Counter("core_rollbacks_total"),
			leakedPages: r.Gauge("core_leaked_pages"),
			mvccEpoch:   r.Gauge("core_mvcc_epoch"),
			mvccRetired: r.Gauge("core_mvcc_retired_versions"),
			mvccPins:    r.Gauge("core_mvcc_active_pins"),
			mvccPinNs:   r.Histogram("core_mvcc_pin_ns"),

			unifiedPrunes: obs.PruneCounter(r, "hybrid"),
		}
		for k, name := range kindNames {
			m.queries[k] = r.Counter(`core_queries_total{op="` + name + `"}`)
			m.latency[k] = r.Histogram(`core_query_ns{op="` + name + `"}`)
		}
		hybridMetricsVal = m
	})
	return hybridMetricsVal
}

// defaultTracer is the tracer new trees adopt, set by binaries (the -obs
// flag) before building their trees; setTracer overrides it per tree.
var defaultTracer atomic.Value // of tracerBox

type tracerBox struct{ tr obs.Tracer }

// SetDefaultTracer installs the tracer that trees created from now on
// start with. Pass nil to disable tracing for new trees.
func SetDefaultTracer(tr obs.Tracer) { defaultTracer.Store(tracerBox{tr: tr}) }

func loadDefaultTracer() obs.Tracer {
	if v := defaultTracer.Load(); v != nil {
		return v.(tracerBox).tr
	}
	return nil
}

// tally accumulates one query's traversal counts as plain ints; it is
// flushed to the shared atomic counters once, at query end.
type tally struct {
	kdPrunes   int
	elsHits    int
	elsPrunes  int
	distPrunes int
	descents   int
	heapPushes int
	scanned    int
}

// beginQuery starts instrumentation for one search: it clears the tally,
// installs the query's trace — own when the caller brought one, else the
// tracer's (nil when tracing is off or declined) — and stamps the start
// time. A zero start time means neither metrics nor tracing are active and
// finishQuery will return immediately.
func (t *Tree) beginQuery(qc *queryCtx, kind Kind, own *obs.Trace) (start time.Time) {
	qc.tally = tally{}
	tr := own
	if tr == nil && t.tracer != nil {
		tr = t.tracer.StartTrace(kind.String())
	}
	qc.tr = tr
	if qc.queueWait != 0 {
		tr.AddQueueWait(int64(qc.queueWait))
		qc.queueWait = 0
	}
	if t.metrics != nil || tr != nil {
		start = time.Now()
	}
	return start
}

// finishQuery flushes the query's tally into the shared counters, observes
// its latency and finishes its trace. results is the number of entries this
// query contributed; err is its outcome.
func (t *Tree) finishQuery(qc *queryCtx, kind Kind, start time.Time, results int, err error) {
	if start.IsZero() {
		return
	}
	if m := t.metrics; m != nil {
		m.queries[kind].Inc()
		m.latency[kind].Observe(int64(time.Since(start)))
		m.outcomes.Record(classifyOutcome(err))
		ta := &qc.tally
		if ta.kdPrunes > 0 {
			m.kdPrunes.Add(uint64(ta.kdPrunes))
		}
		if ta.elsHits > 0 {
			m.elsHits.Add(uint64(ta.elsHits))
		}
		if ta.elsPrunes > 0 {
			m.elsPrunes.Add(uint64(ta.elsPrunes))
		}
		if ta.distPrunes > 0 {
			m.distPrunes.Add(uint64(ta.distPrunes))
		}
		if p := ta.kdPrunes + ta.elsPrunes + ta.distPrunes; p > 0 {
			m.unifiedPrunes.Add(uint64(p))
		}
		if ta.descents > 0 {
			m.descents.Add(uint64(ta.descents))
		}
		if ta.heapPushes > 0 {
			m.heapPushes.Add(uint64(ta.heapPushes))
		}
		if ta.scanned > 0 {
			m.scanned.Add(uint64(ta.scanned))
		}
		if results > 0 {
			m.results.Add(uint64(results))
		}
		if err != nil {
			m.queryErrs.Inc()
		}
	}
	if tr := qc.tr; tr != nil {
		tr.SetResults(results)
		tr.SetError(err)
		tr.FinishSince(start)
		qc.tr = nil
	}
}

// Mutation-operation indices.
const (
	mutInsert = iota
	mutDelete
)

// beginTreeMutation starts instrumentation for one Insert or Delete call.
// Every call is counted and timed, also inside RunTx, where the scope is
// nested; only a top-level mutation gets a trace of its own (a nested
// call's node effects land in the enclosing trace, if any). Delete's orphan
// reinsertions are not Insert calls and are counted as reinserts instead.
func (t *Tree) beginTreeMutation(m mutationScope, op int) (tr *obs.Trace, start time.Time) {
	if !m.nested {
		if t.tracer != nil {
			if op == mutInsert {
				tr = t.tracer.StartTrace("insert")
			} else {
				tr = t.tracer.StartTrace("delete")
			}
		}
		t.mutTrace = tr
	}
	if t.metrics != nil || tr != nil {
		start = time.Now()
	}
	return tr, start
}

// finishTreeMutation records an Insert or Delete call's outcome. A zero
// start means neither metrics nor a trace are on. A nested call leaves
// t.mutTrace alone: it belongs to the enclosing mutation. Rollbacks are
// counted where they happen, in rollbackMutation.
func (t *Tree) finishTreeMutation(m mutationScope, op int, tr *obs.Trace, start time.Time, err error) {
	if start.IsZero() {
		return
	}
	if !m.nested {
		t.mutTrace = nil
	}
	if mt := t.metrics; mt != nil {
		if op == mutInsert {
			mt.inserts.Inc()
			mt.insertNs.Observe(int64(time.Since(start)))
		} else {
			mt.deletes.Inc()
			mt.deleteNs.Observe(int64(time.Since(start)))
		}
	}
	if tr != nil {
		if err != nil {
			tr.MarkRolledBack()
		}
		tr.SetError(err)
		tr.FinishSince(start)
	}
}

// countSplit records one node split in both the shared counters and the
// current mutation's trace.
func (t *Tree) countSplit(leaf bool) {
	if m := t.metrics; m != nil {
		if leaf {
			m.splitsData.Inc()
		} else {
			m.splitsIndex.Inc()
		}
	}
	t.mutTrace.CountSplit()
}
