package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/geom"
)

// Top-span names, one per public boundary the traced pass replays at.
const (
	spRTT     = "client.rtt"
	spNull    = "client.null"
	spHandler = "server.handler"
	spExec    = "concurrent.exec"
	spGroup   = "concurrent.group"
	spSearch  = "core.search"
	spInsert  = "core.insert"
)

// replayOffset is where every replay starts in the read pools, so the
// replays at different boundaries run the same queries.
const replayOffset = 4099

// passTimes is the span arithmetic of one replay, in ns summed over its
// operations. top and lower are keyed by the operation's top span name, so
// reads (concurrent.exec, core.search) and writes (concurrent.group,
// core.insert) of a mixed replay can be told apart.
type passTimes struct {
	ops   int
	top   map[string]float64 // duration of top spans
	lower map[string]float64 // storage-seam self time under them, tx.read excluded
	self  map[string]float64 // self time by span name
}

// isLower reports whether a span belongs to a layer below core that the
// benchmark reports on its own. tx.read's self time (the WAL overlay
// lookup on a node-cache miss) stays with core: the issue defines
// core.search_us as the core span minus device reads.
func isLower(name string) bool {
	switch name {
	case spTxWrite, spTxAlloc, spTxFree, spTxBegin, spTxSeal, spTxAbort, spTxSync,
		spLogApp, spLogSync, spLogTrunc, spLogRead,
		spDevRead, spDevWrite, spDevAlloc, spDevFree, spDevSync:
		return true
	}
	return false
}

func analyze(spans []span) passTimes {
	pt := passTimes{top: map[string]float64{}, lower: map[string]float64{}, self: map[string]float64{}}
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([]int64, len(spans))
	topOf := make(map[int32]string) // op → top span name
	for _, s := range spans {
		d := s.End - s.Start
		if pi, ok := index[s.Parent]; ok && s.Parent >= 0 {
			children[pi] += d
			continue
		}
		if _, seen := topOf[s.Op]; !seen {
			topOf[s.Op] = s.Name
			pt.ops++
		}
		pt.top[s.Name] += float64(d)
	}
	for i, s := range spans {
		self := float64(s.End - s.Start - children[i])
		pt.self[s.Name] += self
		if isLower(s.Name) {
			pt.lower[topOf[s.Op]] += self
		}
	}
	return pt
}

// upper is the per-operation time spent above the storage seams by the
// operations whose top span is name.
func (pt passTimes) upper(name string) float64 {
	if pt.ops == 0 {
		return 0
	}
	return (pt.top[name] - pt.lower[name]) / float64(pt.ops)
}

func (pt passTimes) selfPerOp(names ...string) float64 {
	if pt.ops == 0 {
		return 0
	}
	var sum float64
	for _, n := range names {
		sum += pt.self[n]
	}
	return sum / float64(pt.ops)
}

// layerBudget turns the five replays of a serving workload into per-layer
// mean µs per operation. Layers the benchmark cannot interpose on are the
// difference between adjacent boundaries (clamped at 0: a negative
// difference is noise and lands in the residual). The identity
// rtt = Σ layers + residual holds exactly.
func layerBudget(httpPass, null, handler, exec, coreP passTimes) map[string]float64 {
	us := func(ns float64) float64 { return ns / 1e3 }
	b := map[string]float64{}
	b["client.rtt_us"] = us(httpPass.top[spRTT] / float64(max(httpPass.ops, 1)))
	b["server.net_us"] = us(null.top[spNull] / float64(max(null.ops, 1)))
	upExec, upGroup := exec.upper(spExec), exec.upper(spGroup)
	upSearch, upInsert := coreP.upper(spSearch), coreP.upper(spInsert)
	b["server.handle_us"] = us(max(0, handler.upper(spHandler)-upExec-upGroup))
	b["concurrent.exec_us"] = us(max(0, upExec-upSearch))
	b["concurrent.group_us"] = us(max(0, upGroup-upInsert))
	b["core.search_us"] = us(upSearch)
	b["core.insert_us"] = us(upInsert)
	b["wal.stage_us"] = us(httpPass.selfPerOp(spTxWrite, spTxAlloc, spTxFree, spTxBegin, spTxAbort))
	b["wal.seal_us"] = us(httpPass.selfPerOp(spTxSeal, spTxSync))
	b["wal.log_append_us"] = us(httpPass.selfPerOp(spLogApp, spLogTrunc, spLogRead))
	b["wal.log_fsync_us"] = us(httpPass.selfPerOp(spLogSync))
	b["pagefile.read_us"] = us(httpPass.selfPerOp(spDevRead))
	b["pagefile.write_us"] = us(httpPass.selfPerOp(spDevWrite, spDevAlloc, spDevFree))
	b["pagefile.sync_us"] = us(httpPass.selfPerOp(spDevSync))
	sum := 0.0
	for name, v := range b {
		if name != "client.rtt_us" {
			sum += v
		}
	}
	b["trace.residual_us"] = b["client.rtt_us"] - sum
	return b
}

// query rebuilds the in-process form of a request from the vector it was
// encoded from.
func (d *dataSet) query(r *request) (p geom.Point, box geom.Rect) {
	switch r.kind {
	case opPoint:
		return nil, geom.Rect{Lo: d.base[r.ref], Hi: d.base[r.ref]}
	case opBox:
		return nil, boxAround(d.anchors[r.ref], d.boxSide)
	case opInsert:
		return d.stream[r.ref], geom.Rect{}
	}
	return d.anchors[r.ref], geom.Rect{}
}

// spanned wraps fn in a span named by the request's class and gives every
// operation its own id.
func spanned(rec *recorder, read, write string, fn func(r *request) error) doer {
	return doer{
		prep: rec.nextOp,
		do: func(r *request) ([]byte, bool, error) {
			name := read
			if r.kind.isWrite() {
				name = write
			}
			s := rec.begin(name)
			err := fn(r)
			rec.end(s)
			return nil, err == nil, nil
		},
	}
}

// replay runs ops operations of the schedule with one client under a pass
// name, recording spans when on. Any failed operation fails the replay.
func replay(rec *recorder, sched *schedule, pass string, on bool, dr doer, ops int) (*passResult, error) {
	rec.startPass(pass, on)
	res := newPassResult(1, ops)
	runPass(res, sched.begin(1, replayOffset), []doer{dr}, 0, ops)
	rec.startPass("", false)
	if err := res.firstErr(); err != nil {
		return nil, fmt.Errorf("traced pass %s: %w", pass, err)
	}
	if n := res.failed(); n > 0 {
		return nil, fmt.Errorf("traced pass %s: %d of %d operations failed", pass, n, res.attempted())
	}
	return res, nil
}

// tracedServing replays ops operations with one client at each public
// boundary of an htreed stack opened with the span-recording wrappers, and
// returns the per-layer µs. st must be serving.
func tracedServing(st *stack, rec *recorder, sched *schedule, d *dataSet, ops int) (map[string]float64, error) {
	c, err := dial(st.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	one := func(pass string, on bool, dr doer) (*passResult, error) {
		return replay(rec, sched, pass, on, dr, ops)
	}
	httpDo := func(r *request) ([]byte, bool, error) {
		s := rec.begin(spRTT)
		body, ok, err := c.roundTrip(r.wire)
		rec.end(s)
		return body, ok, err
	}

	// A short unrecorded replay first: the connection, the executor's
	// worker and the tracer's pools have then done the work they do once.
	if _, err := one("warm", false, doer{do: httpDo}); err != nil {
		return nil, err
	}
	// Untraced, then the same operations traced: the difference is what
	// tracing costs.
	plain, err := one("http.untraced", false, doer{do: httpDo})
	if err != nil {
		return nil, err
	}
	traced, err := one("http", true, doer{prep: rec.nextOp, do: httpDo})
	if err != nil {
		return nil, err
	}

	handler := st.srv.Handler()
	if _, err := one("handler", true, doer{
		prep: rec.nextOp,
		do: func(r *request) ([]byte, bool, error) {
			req := httptest.NewRequest(http.MethodPost, r.kind.path(), bytes.NewReader(r.body))
			rr := httptest.NewRecorder()
			s := rec.begin(spHandler)
			handler.ServeHTTP(rr, req)
			rec.end(s)
			return nil, rr.Code == http.StatusOK, nil
		},
	}); err != nil {
		return nil, err
	}

	// The null request is sent at the workload's own cadence: before each
	// one the client computes for as long as the handler takes, so the other
	// threads have gone idle and the round trip pays the same wake-ups a
	// real request's response does.
	busy := time.Duration(analyze(rec.passSpans("handler")).upper(spHandler))
	nullWire := []byte("GET /healthz HTTP/1.1\r\nHost: htreed\r\n\r\n")
	if _, err := one("null", true, doer{
		prep: func() {
			rec.nextOp()
			for t0 := time.Now(); time.Since(t0) < busy; {
			}
		},
		do: func(*request) ([]byte, bool, error) {
			s := rec.begin(spNull)
			_, _, err := c.roundTrip(nullWire)
			rec.end(s)
			return nil, err == nil, err
		}}); err != nil {
		return nil, err
	}

	ctx := context.Background()
	exec := concurrent.NewExecutor(st.tree, concurrent.ExecutorConfig{})
	group := concurrent.NewGroupCommitter(st.tree, 0)
	_, err = one("exec", true, spanned(rec, spExec, spGroup, func(r *request) error {
		p, box := d.query(r)
		var err error
		switch r.kind {
		case opKNN:
			_, err = exec.SearchKNN(ctx, p, knnK, oracleMetric, core.Budget{})
		case opRange:
			_, err = exec.SearchRange(ctx, p, d.rangeRadius, oracleMetric, core.Budget{})
		case opInsert:
			err = group.Insert(p, d.streamRID(r.ref))
		default:
			_, err = exec.SearchBox(ctx, box, core.Budget{})
		}
		return err
	}))
	exec.Close()
	group.Close()
	if err != nil {
		return nil, err
	}

	qc := core.NewQueryContext()
	if _, err := one("core", true, spanned(rec, spSearch, spInsert, func(r *request) error {
		p, box := d.query(r)
		var err error
		switch r.kind {
		case opKNN:
			_, err = st.core.SearchKNNContext(ctx, qc, p, knnK, oracleMetric, core.Budget{}, nil)
		case opRange:
			_, err = st.core.SearchRangeContext(ctx, qc, p, d.rangeRadius, oracleMetric, core.Budget{}, nil)
		case opInsert:
			err = st.tree.Insert(p, d.streamRID(r.ref))
		default:
			_, err = st.core.SearchBoxContext(ctx, qc, box, core.Budget{}, nil)
		}
		return err
	})); err != nil {
		return nil, err
	}

	h, n, hd, ex, co := analyze(rec.passSpans("http")), analyze(rec.passSpans("null")),
		analyze(rec.passSpans("handler")), analyze(rec.passSpans("exec")), analyze(rec.passSpans("core"))
	b := layerBudget(h, n, hd, ex, co)
	b["trace.overhead_pct"] = 100 * (meanLatency(traced) - meanLatency(plain)) / meanLatency(plain)
	return b, nil
}

func meanLatency(p *passResult) float64 {
	var sum float64
	all := p.samples()
	for _, s := range all {
		sum += float64(s.lat)
	}
	return sum / float64(max(len(all), 1))
}

// tracedCold replays ops cold k-NN queries in process on a plain stack
// opened with the device wrapper. Each query runs cold (after DropCaches)
// and is then repeated warm at once: warm is core's compute, the device
// spans are the page reads, and what is left of the cold call is the miss
// path — decode and install.
func tracedCold(st *stack, rec *recorder, sched *schedule, d *dataSet, ops int) (map[string]float64, error) {
	search := func(name string) func(r *request) ([]byte, bool, error) {
		return func(r *request) ([]byte, bool, error) {
			s := rec.begin(name)
			_, err := st.tree.SearchKNN(d.anchors[r.ref], knnK, oracleMetric)
			rec.end(s)
			return nil, err == nil, err
		}
	}
	run := func(pass string, on bool, dr doer) (*passResult, error) {
		return replay(rec, sched, pass, on, dr, ops)
	}
	plain, err := run("cold.untraced", false, doer{prep: st.tree.DropCaches, do: search(spRTT)})
	if err != nil {
		return nil, err
	}
	cold := search(spRTT)
	warm := search(spSearch)
	_, err = run("cold", true, doer{
		prep: func() { rec.nextOp(); st.tree.DropCaches() },
		do: func(r *request) ([]byte, bool, error) {
			body, ok, err := cold(r)
			if err == nil {
				// The warm repeat is a second top span of the same
				// operation; it is not part of the cold latency, so the
				// sample's clock is wrong for this pass and only the spans
				// are used.
				_, _, err = warm(r)
			}
			return body, ok, err
		},
	})
	if err != nil {
		return nil, err
	}
	pt := analyze(rec.passSpans("cold"))
	n := float64(max(pt.ops, 1))
	b := map[string]float64{
		"client.rtt_us":    pt.top[spRTT] / n / 1e3,
		"core.search_us":   pt.top[spSearch] / n / 1e3,
		"pagefile.read_us": pt.self[spDevRead] / n / 1e3,
	}
	b["core.miss_us"] = b["client.rtt_us"] - b["core.search_us"] - b["pagefile.read_us"]
	b["trace.overhead_pct"] = 100 * (b["client.rtt_us"]*1e3 - meanLatency(plain)) / meanLatency(plain)
	return b, nil
}
