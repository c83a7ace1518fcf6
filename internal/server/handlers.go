package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
)

// Wire headers. Requests carry the lifecycle knobs; responses always carry
// the resolved outcome, and degraded responses carry the honesty marker.
const (
	// HeaderDeadlineMs is the per-request deadline in milliseconds. It
	// propagates as a context deadline: expiry while queued sheds (503),
	// expiry mid-search abandons the query (504, results discarded).
	HeaderDeadlineMs = "X-Deadline-Ms"
	// HeaderBudgetPages is the per-request page-read budget. Exhaustion
	// degrades: the response is a valid partial answer, marked 206 +
	// X-Htree-Partial.
	HeaderBudgetPages = "X-Budget-Pages"
	// HeaderOutcome reports how the request resolved ("ok", "cancelled",
	// "timeout", "shed", "degraded", "error") on every /v1 response.
	HeaderOutcome = "X-Htree-Outcome"
	// HeaderPartial is the degraded-answer honesty marker: the number of
	// results actually returned, present exactly when the answer is
	// partial. A client that ignores it cannot mistake a degraded answer
	// for a complete one — the 206 status says so too.
	HeaderPartial = "X-Htree-Partial"
)

// statusFor maps the six-way outcome taxonomy onto HTTP status codes. This
// is the server's single source of truth: every /v1 response's status is
// either this mapping or a 4xx rejected before the index ran (bad JSON,
// wrong dimensionality, oversized body — those still count one outcome,
// OutcomeError).
//
//	ok        → 200
//	degraded  → 206 (partial content: honest best-effort answer)
//	cancelled → 499 (client closed request, nginx convention)
//	timeout   → 504
//	shed      → 503 + Retry-After (back off and come back)
//	error     → 500
func statusFor(k obs.OutcomeKind) int {
	switch k {
	case obs.OutcomeOK:
		return http.StatusOK
	case obs.OutcomeDegraded:
		return http.StatusPartialContent
	case obs.OutcomeCancelled:
		return 499
	case obs.OutcomeTimeout:
		return http.StatusGatewayTimeout
	case obs.OutcomeShed:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// classify extends core.ClassifyOutcome with the admission-control
// sentinels the executor and group committer return: both mean the request
// did no tree work and should be retried elsewhere or later.
func classify(err error) obs.OutcomeKind {
	if errors.Is(err, concurrent.ErrShed) || errors.Is(err, concurrent.ErrClosed) {
		return obs.OutcomeShed
	}
	return core.ClassifyOutcome(err)
}

// Request bodies. One struct covers every endpoint; each handler validates
// the fields it uses.
type queryRequest struct {
	Point  []float32 `json:"point,omitempty"`
	K      int       `json:"k,omitempty"`
	Radius float64   `json:"radius,omitempty"`
	Metric string    `json:"metric,omitempty"`
	Lo     []float32 `json:"lo,omitempty"`
	Hi     []float32 `json:"hi,omitempty"`
	RID    uint64    `json:"rid,omitempty"`
}

// neighborJSON is one k-NN/range result on the wire.
type neighborJSON struct {
	RID  uint64  `json:"rid"`
	Dist float64 `json:"dist"`
}

// queryResponse is the uniform response envelope.
type queryResponse struct {
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Partial is set (with true) when the answer is a valid degraded
	// prefix/subset rather than the complete result.
	Partial   bool           `json:"partial,omitempty"`
	Count     int            `json:"count"`
	Neighbors []neighborJSON `json:"neighbors,omitempty"`
	RIDs      []uint64       `json:"rids,omitempty"`
	Found     *bool          `json:"found,omitempty"` // delete only
}

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	Dim    int    `json:"dim"`
	Size   int    `json:"size"`
	Height int    `json:"height"`
	Epoch  uint64 `json:"epoch"`
	Writes bool   `json:"writes"`
}

// result is what an endpoint hands back to the wrapper: the wrapper writes
// exactly one response and records exactly one outcome from it.
type result struct {
	outcome obs.OutcomeKind
	status  int // 0 = derive from outcome via statusFor
	resp    queryResponse
}

// badRequest builds a client-rejection result: the request never reached
// the index, counts as OutcomeError, and reports the given 4xx status.
func badRequest(status int, format string, args ...any) result {
	return result{
		outcome: obs.OutcomeError,
		status:  status,
		resp:    queryResponse{Error: fmt.Sprintf(format, args...)},
	}
}

// routes builds the handler tree. The /v1 namespace is deliberately flat
// and method-routed so future endpoints slot in without touching existing
// ones — in particular a textual `POST /v1/query` (the tiny query language
// from ROADMAP item 3) is one more s.endpoint(...) line here.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("POST /v1/knn", s.endpoint(s.serveQuery(core.KNN)))
	mux.Handle("POST /v1/box", s.endpoint(s.serveQuery(core.Box)))
	mux.Handle("POST /v1/range", s.endpoint(s.serveQuery(core.Range)))
	if s.cfg.EnableWrites {
		mux.Handle("POST /v1/insert", s.endpoint(s.serveInsert))
		mux.Handle("POST /v1/delete", s.endpoint(s.serveDelete))
	}
	// The introspection surface rides along on the same port: metrics,
	// recent/slow traces, pprof.
	o := obs.NewMux(s.cfg.Registry, s.cfg.Ring, s.cfg.Slow)
	mux.Handle("/metrics", o)
	mux.Handle("/metrics.json", o)
	mux.Handle("/debug/", o)
	return mux
}

// handleHealthz is liveness: 200 as long as the process serves, "draining"
// in the body once a drain begins (the process is still healthy — flipping
// liveness during drain would get it killed mid-checkpoint).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		fmt.Fprintln(w, "ok draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: it flips to 503 the moment a drain begins so
// load balancers stop routing here before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	epoch, size, height := s.tree.SnapshotInfo()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statsResponse{
		Dim: s.cfg.Dim, Size: size, Height: height, Epoch: epoch, Writes: s.cfg.EnableWrites,
	})
}

// endpoint wraps one /v1 handler with the per-request failure envelope:
// request counting, inflight/latency accounting, body capping, panic
// isolation, drain shedding, and exactly-one outcome + response. A panic
// anywhere in the handler (decoding, the search, encoding the result
// values) resolves that request to a 500 and leaves the server serving.
func (s *Server) endpoint(h func(r *http.Request, req queryRequest) result) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		s.m.inflight.Add(1)
		start := time.Now()
		wrote := false
		finish := func(res result) {
			if wrote {
				return
			}
			wrote = true
			s.m.outcomes.Record(res.outcome)
			s.m.latency.Observe(time.Since(start).Nanoseconds())
			s.m.inflight.Add(-1)
			status := res.status
			if status == 0 {
				status = statusFor(res.outcome)
			}
			res.resp.Outcome = res.outcome.String()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(HeaderOutcome, res.resp.Outcome)
			if res.resp.Partial {
				w.Header().Set(HeaderPartial, strconv.Itoa(res.resp.Count))
			}
			if res.outcome == obs.OutcomeShed {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(res.resp)
		}
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Inc()
				finish(result{outcome: obs.OutcomeError,
					resp: queryResponse{Error: fmt.Sprintf("panic: %v", p)}})
			}
		}()

		if s.draining.Load() {
			finish(result{outcome: obs.OutcomeShed,
				resp: queryResponse{Error: "server draining"}})
			return
		}
		// The request vectors alias st's buffers: st is released only after
		// the handler has returned and the response is written.
		st := statePool.Get().(*reqState)
		defer st.release()
		err := st.readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
		if err == nil {
			err = st.scan()
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				finish(badRequest(http.StatusRequestEntityTooLarge,
					"request body exceeds %d bytes", tooBig.Limit))
				return
			}
			finish(badRequest(http.StatusBadRequest, "bad request body: %v", err))
			return
		}
		finish(h(r, st.req))
	})
}

// lifecycle derives the request's context and budget from the headers,
// clamped by the server's caps. The returned cancel must run when the
// request resolves.
func (s *Server) lifecycle(r *http.Request) (ctx context.Context, budget core.Budget, cancel context.CancelFunc, err error) {
	ctx = r.Context() // cancels on client disconnect → OutcomeCancelled
	cancel = func() {}
	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get(HeaderDeadlineMs); h != "" {
		ms, perr := strconv.Atoi(h)
		if perr != nil || ms < 0 {
			return ctx, budget, cancel, fmt.Errorf("%s: want a non-negative integer, got %q", HeaderDeadlineMs, h)
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	if s.cfg.MaxDeadline > 0 && (deadline == 0 || deadline > s.cfg.MaxDeadline) {
		deadline = s.cfg.MaxDeadline
	}
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	}
	pages := s.cfg.DefaultBudgetPages
	if h := r.Header.Get(HeaderBudgetPages); h != "" {
		n, perr := strconv.Atoi(h)
		if perr != nil || n < 0 {
			return ctx, budget, cancel, fmt.Errorf("%s: want a non-negative integer, got %q", HeaderBudgetPages, h)
		}
		pages = n
	}
	if s.cfg.MaxBudgetPages > 0 && (pages == 0 || pages > s.cfg.MaxBudgetPages) {
		pages = s.cfg.MaxBudgetPages
	}
	budget = core.Budget{MaxPageReads: pages}
	return ctx, budget, cancel, nil
}

// point validates a request vector against the index dimensionality.
func (s *Server) point(field string, v []float32) (geom.Point, error) {
	if len(v) != s.cfg.Dim {
		return nil, fmt.Errorf("%s: want %d coordinates, got %d", field, s.cfg.Dim, len(v))
	}
	return geom.Point(v), nil
}

// metric parses the metric name ("L1", "L2" default, "Linf", "Lp:<p>").
func metric(name string) (dist.Metric, error) {
	switch {
	case name == "" || strings.EqualFold(name, "L2"):
		return dist.L2(), nil
	case strings.EqualFold(name, "L1"):
		return dist.L1(), nil
	case strings.EqualFold(name, "Linf"):
		return dist.Linf(), nil
	}
	if len(name) >= 3 && strings.EqualFold(name[:3], "Lp:") {
		p, err := strconv.ParseFloat(name[3:], 64)
		// ParseFloat accepts "NaN" and "Inf", and NaN < 1 is false.
		if err != nil || !(p >= 1) || math.IsInf(p, 1) {
			return nil, fmt.Errorf("metric: bad Lp exponent %q", name[3:])
		}
		return dist.LpMetric{P: p}, nil
	}
	return nil, fmt.Errorf("metric: unknown %q (want L1, L2, Linf or Lp:<p>)", name)
}

// settle converts a query error plus its (possibly partial) result sizes
// into the response envelope. Degraded answers keep their results and gain
// the partial marker; abandoned and failed queries report empty.
func settle(err error, resp queryResponse) result {
	if errors.Is(err, core.ErrBadVector) || errors.Is(err, core.ErrBadQuery) {
		// The vector cannot be stored in this index (outside its data
		// space), or the query is malformed (an inverted box): the client's
		// mistake, reported before any tree work.
		return badRequest(http.StatusBadRequest, "%v", err)
	}
	k := classify(err)
	switch k {
	case obs.OutcomeOK:
		return result{outcome: k, resp: resp}
	case obs.OutcomeDegraded:
		resp.Partial = true
		resp.Error = err.Error()
		return result{outcome: k, resp: resp}
	default:
		return result{outcome: k, resp: queryResponse{Error: err.Error()}}
	}
}

// serveQuery is the handler of the three read endpoints: it builds the
// core.Query straight from the scanned request — the checks below are the
// wire's own (field names, positive k and radius); shape is core's to
// validate — and passes it through the executor unchanged.
func (s *Server) serveQuery(kind core.Kind) func(r *http.Request, req queryRequest) result {
	return func(r *http.Request, req queryRequest) result {
		q := core.Query{Kind: kind, K: req.K, Radius: req.Radius}
		var err error
		if kind == core.Box {
			if q.Rect.Lo, err = s.point("lo", req.Lo); err == nil {
				q.Rect.Hi, err = s.point("hi", req.Hi)
			}
		} else if q.Point, err = s.point("point", req.Point); err == nil {
			switch {
			case kind == core.KNN && req.K <= 0:
				err = fmt.Errorf("k: want a positive integer, got %d", req.K)
			case kind == core.Range && req.Radius <= 0:
				err = fmt.Errorf("radius: want a positive number, got %g", req.Radius)
			default:
				q.Metric, err = metric(req.Metric)
			}
		}
		if err != nil {
			return badRequest(http.StatusBadRequest, "%v", err)
		}
		ctx, budget, cancel, err := s.lifecycle(r)
		if err != nil {
			return badRequest(http.StatusBadRequest, "%v", err)
		}
		defer cancel()
		q.Budget = budget
		ns, err := s.exec.Search(ctx, q)

		// A box answers with record ids, the distance queries with
		// (rid, dist) pairs.
		resp := queryResponse{Count: len(ns)}
		if kind == core.Box {
			resp.RIDs = make([]uint64, len(ns))
			for i, n := range ns {
				resp.RIDs[i] = uint64(n.RID)
			}
		} else {
			resp.Neighbors = make([]neighborJSON, len(ns))
			for i, n := range ns {
				resp.Neighbors[i] = neighborJSON{RID: uint64(n.RID), Dist: n.Dist}
			}
		}
		return settle(err, resp)
	}
}

// acquireWriteSlot is write admission: a free slot or an immediate shed.
func (s *Server) acquireWriteSlot() bool {
	select {
	case s.writeSem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) serveInsert(r *http.Request, req queryRequest) result {
	p, err := s.point("point", req.Point)
	if err != nil {
		return badRequest(http.StatusBadRequest, "%v", err)
	}
	if !s.acquireWriteSlot() {
		return result{outcome: obs.OutcomeShed,
			resp: queryResponse{Error: "write queue full"}}
	}
	defer func() { <-s.writeSem }()
	return settle(s.group.Insert(p, core.RecordID(req.RID)), queryResponse{Count: 1})
}

func (s *Server) serveDelete(r *http.Request, req queryRequest) result {
	p, err := s.point("point", req.Point)
	if err != nil {
		return badRequest(http.StatusBadRequest, "%v", err)
	}
	if !s.acquireWriteSlot() {
		return result{outcome: obs.OutcomeShed,
			resp: queryResponse{Error: "write queue full"}}
	}
	defer func() { <-s.writeSem }()
	found, err := s.group.Delete(p, core.RecordID(req.RID))
	return settle(err, queryResponse{Found: &found})
}
