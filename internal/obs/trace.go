package obs

import (
	"fmt"
	"strings"
	"time"
)

// Tracer produces per-operation traces. The query path asks the tracer for
// a *Trace at operation start; a nil result (the no-op tracer, or a sampler
// declining this query) disables recording for the whole operation at the
// cost of one nil check per event, keeping the traced-off hot path
// allocation-free.
type Tracer interface {
	StartTrace(op string) *Trace
}

type nopTracer struct{}

func (nopTracer) StartTrace(string) *Trace { return nil }

// Nop returns a tracer that records nothing. It exists so "tracing
// configured but disabled" and "no tracer" exercise the same code path —
// the overhead gate in core benchmarks compares exactly these two.
func Nop() Tracer { return nopTracer{} }

// Span is one visited node in a query's traversal tree. Parent is the index
// of the parent span in Trace.Spans (-1 for the root), so the tree is a
// flat array with no pointers. The counters record what happened while the
// traversal was positioned at this node: kd-path decisions at the lsp/rsp
// split positions (left/right branch taken, or subtree cut), live-space
// decode outcomes, prune/accept verdicts for child regions, and leaf scan
// results.
type Span struct {
	Node       uint32 `json:"node"`
	Parent     int32  `json:"parent"`
	Level      int32  `json:"level"`
	Leaf       bool   `json:"leaf,omitempty"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	KDLeft     int32  `json:"kd_left,omitempty"`     // left (lsp) branches taken
	KDRight    int32  `json:"kd_right,omitempty"`    // right (rsp) branches taken
	KDPruned   int32  `json:"kd_pruned,omitempty"`   // kd subtrees cut by the BR check
	ELSHits    int32  `json:"els_hits,omitempty"`    // live-space decodes that found an entry
	ELSPruned  int32  `json:"els_pruned,omitempty"`  // children cut by the live-space check
	DistPruned int32  `json:"dist_pruned,omitempty"` // children cut by a MINDIST bound
	Descents   int32  `json:"descents,omitempty"`    // children enqueued (stack or frontier)
	Scanned    int32  `json:"scanned,omitempty"`     // leaf entries examined
	Hits       int32  `json:"hits,omitempty"`        // leaf entries accepted
}

// StageSet is one operation's per-stage cost attribution: where the wall
// time went, joined to the single query rather than smeared across the
// registry's shared histograms. The stages mirror the pipeline a request
// crosses: waiting in an executor queue, fetching and decoding pages,
// fsyncing the WAL at commit, and the leaf-scan distance compute. Stage
// recording is active only while the operation carries a live trace, so
// the untraced hot path never pays for it.
type StageSet struct {
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"` // executor admission -> running slot
	PageReadNs  int64 `json:"page_read_ns,omitempty"`  // node fetch + decode (hits and misses)
	PageReads   int32 `json:"page_reads,omitempty"`
	WALFsyncNs  int64 `json:"wal_fsync_ns,omitempty"` // commit seal incl. the log fsync
	WALFsyncs   int32 `json:"wal_fsyncs,omitempty"`
	ComputeNs   int64 `json:"compute_ns,omitempty"` // leaf-scan distance kernels
	ComputeOps  int32 `json:"compute_scans,omitempty"`
}

// Trace is the record of one operation: a span tree for queries, plus
// mutation-side counters (splits, reinserts, whether the undo log rolled
// the operation back). All methods are nil-receiver safe — a nil *Trace is
// the universal "not tracing" value — and a Trace is single-goroutine
// state: one operation, one owner, no atomics.
type Trace struct {
	Op         string        `json:"op"`
	Seq        uint64        `json:"seq,omitempty"`
	Start      time.Time     `json:"start"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Results    int           `json:"results"`
	Err        string        `json:"err,omitempty"`
	Splits     int32         `json:"splits,omitempty"`
	Reinserts  int32         `json:"reinserts,omitempty"`
	RolledBack bool          `json:"rolled_back,omitempty"`
	Stages     *StageSet     `json:"stages,omitempty"`
	Spans      []Span        `json:"spans,omitempty"`

	sink func(*Trace) // receives the finished trace (ring buffer); may be nil
}

// NewTrace returns an unsinked trace, for callers that consume the trace
// directly (ExplainBox) rather than through a Tracer.
func NewTrace(op string) *Trace { return &Trace{Op: op, Start: time.Now()} }

// Visit appends a span for a node read and returns its index, to be passed
// to the per-span recording methods and to child visits as their parent.
// Returns -1 on a nil trace.
func (t *Trace) Visit(parent int32, node uint32, leaf, cacheHit bool) int32 {
	if t == nil {
		return -1
	}
	var level int32
	if parent >= 0 {
		level = t.Spans[parent].Level + 1
	}
	t.Spans = append(t.Spans, Span{Node: node, Parent: parent, Level: level, Leaf: leaf, CacheHit: cacheHit})
	return int32(len(t.Spans) - 1)
}

func (t *Trace) span(i int32) *Span {
	return &t.Spans[i]
}

// KDLeft records a left (lsp-side) kd branch taken at span i.
func (t *Trace) KDLeft(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).KDLeft++
}

// KDRight records a right (rsp-side) kd branch taken at span i.
func (t *Trace) KDRight(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).KDRight++
}

// KDPrune records a kd subtree cut by the bounding-region check at span i.
func (t *Trace) KDPrune(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).KDPruned++
}

// ELSHit records a live-space decode that found an encoded entry.
func (t *Trace) ELSHit(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).ELSHits++
}

// ELSPrune records a child cut by the live-space check at span i.
func (t *Trace) ELSPrune(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).ELSPruned++
}

// DistPrune records a child cut by a MINDIST bound at span i.
func (t *Trace) DistPrune(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).DistPruned++
}

// Descend records a child enqueued for visiting (pending stack push for
// box/range queries, frontier heap push for k-NN) at span i.
func (t *Trace) Descend(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).Descents++
}

// Scan records n leaf entries examined at span i.
func (t *Trace) Scan(i int32, n int) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).Scanned += int32(n)
}

// Hit records a leaf entry accepted into the result set at span i.
func (t *Trace) Hit(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.span(i).Hits++
}

// stages returns the trace's stage set, allocating it on first use. Traced
// operations already allocate their span slice; one extra small struct per
// traced query keeps the Trace zero value cheap for stage-free traces.
func (t *Trace) stages() *StageSet {
	if t.Stages == nil {
		t.Stages = &StageSet{}
	}
	return t.Stages
}

// AddQueueWait attributes ns nanoseconds of executor queue wait (admission
// to a running slot) to this operation.
func (t *Trace) AddQueueWait(ns int64) {
	if t == nil || ns <= 0 {
		return
	}
	t.stages().QueueWaitNs += ns
}

// AddPageRead attributes one node fetch (cache hit or physical read +
// decode) taking ns nanoseconds.
func (t *Trace) AddPageRead(ns int64) {
	if t == nil {
		return
	}
	s := t.stages()
	s.PageReadNs += ns
	s.PageReads++
}

// AddWALFsync attributes one commit seal — the WAL append + fsync that
// makes a mutation durable — taking ns nanoseconds.
func (t *Trace) AddWALFsync(ns int64) {
	if t == nil {
		return
	}
	s := t.stages()
	s.WALFsyncNs += ns
	s.WALFsyncs++
}

// AddCompute attributes one leaf-scan distance/filter pass taking ns
// nanoseconds.
func (t *Trace) AddCompute(ns int64) {
	if t == nil {
		return
	}
	s := t.stages()
	s.ComputeNs += ns
	s.ComputeOps++
}

// CountSplit records one node split performed by a mutation.
func (t *Trace) CountSplit() {
	if t == nil {
		return
	}
	t.Splits++
}

// CountReinsert records one orphan reinsertion performed by a delete.
func (t *Trace) CountReinsert() {
	if t == nil {
		return
	}
	t.Reinserts++
}

// MarkRolledBack records that the operation's undo log rolled it back.
func (t *Trace) MarkRolledBack() {
	if t == nil {
		return
	}
	t.RolledBack = true
}

// SetResults records the operation's result count.
func (t *Trace) SetResults(n int) {
	if t == nil {
		return
	}
	t.Results = n
}

// SetError records the operation's error, if any.
func (t *Trace) SetError(err error) {
	if t == nil || err == nil {
		return
	}
	t.Err = err.Error()
}

// FinishSince stamps the trace's elapsed time and delivers it to its sink
// (the ring buffer that StartTrace attached, if any).
func (t *Trace) FinishSince(start time.Time) {
	if t == nil {
		return
	}
	t.Elapsed = time.Since(start)
	if t.sink != nil {
		t.sink(t)
	}
}

// String renders the span tree as an indented outline, one visited node
// per line — the human renderer; json.Marshal of the Trace is the other.
func (t *Trace) String() string {
	if t == nil {
		return "<nil trace>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d spans, %d results, %v", t.Op, len(t.Spans), t.Results, t.Elapsed)
	if t.Err != "" {
		fmt.Fprintf(&sb, ", err=%s", t.Err)
	}
	if t.Splits > 0 || t.Reinserts > 0 || t.RolledBack {
		fmt.Fprintf(&sb, ", splits=%d reinserts=%d rolledback=%v", t.Splits, t.Reinserts, t.RolledBack)
	}
	sb.WriteByte('\n')
	if s := t.Stages; s != nil {
		sb.WriteString("  stages:")
		if s.QueueWaitNs > 0 {
			fmt.Fprintf(&sb, " queue_wait=%v", time.Duration(s.QueueWaitNs))
		}
		if s.PageReads > 0 {
			fmt.Fprintf(&sb, " page_reads=%v/%d", time.Duration(s.PageReadNs), s.PageReads)
		}
		if s.WALFsyncs > 0 {
			fmt.Fprintf(&sb, " wal_fsync=%v/%d", time.Duration(s.WALFsyncNs), s.WALFsyncs)
		}
		if s.ComputeOps > 0 {
			fmt.Fprintf(&sb, " compute=%v/%d", time.Duration(s.ComputeNs), s.ComputeOps)
		}
		if other := int64(t.Elapsed) - s.QueueWaitNs - s.PageReadNs - s.WALFsyncNs - s.ComputeNs; other > 0 && t.Elapsed > 0 {
			fmt.Fprintf(&sb, " other=%v", time.Duration(other))
		}
		sb.WriteByte('\n')
	}
	// Children of span i, rebuilt from the flat parent links. Spans are
	// appended in visit order, so children lists stay in visit order too.
	kids := make([][]int32, len(t.Spans))
	var roots []int32
	for i := range t.Spans {
		p := t.Spans[i].Parent
		if p < 0 {
			roots = append(roots, int32(i))
		} else {
			kids[p] = append(kids[p], int32(i))
		}
	}
	var render func(i int32, depth int)
	render = func(i int32, depth int) {
		s := &t.Spans[i]
		sb.WriteString(strings.Repeat("  ", depth))
		kind := "index"
		if s.Leaf {
			kind = "data"
		}
		cache := "miss"
		if s.CacheHit {
			cache = "hit"
		}
		fmt.Fprintf(&sb, "node %d (%s, cache %s)", s.Node, kind, cache)
		if s.Leaf {
			fmt.Fprintf(&sb, " scanned=%d hits=%d", s.Scanned, s.Hits)
		} else {
			fmt.Fprintf(&sb, " kd(L=%d R=%d pruned=%d) els(hits=%d pruned=%d) dist-pruned=%d descents=%d",
				s.KDLeft, s.KDRight, s.KDPruned, s.ELSHits, s.ELSPruned, s.DistPruned, s.Descents)
		}
		sb.WriteByte('\n')
		for _, k := range kids[i] {
			render(k, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 1)
	}
	return sb.String()
}
