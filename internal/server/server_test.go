package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// newTestServer builds a Server over a fresh in-memory tree of n uniform
// points, with its own registry so outcome tallies are exact.
func newTestServer(t testing.TB, dim, n int, mutate func(*Config)) (*Server, *concurrent.Tree) {
	t.Helper()
	pageSize := max(512, 64*dim) // 4096 at 64-d, as the benchmark builds it
	tree, err := concurrent.New(pagefile.NewMemFile(pageSize), core.Config{Dim: dim, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = float32(rng.Float64())
		}
		if err := tree.Insert(p, core.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Dim: dim, Registry: obs.NewRegistry()}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(tree, cfg)
	t.Cleanup(func() {
		_ = s.Shutdown(context.Background())
		_ = tree.Close()
	})
	return s, tree
}

func post(t *testing.T, h http.Handler, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder) queryResponse {
	t.Helper()
	var resp queryResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v (body %q)", err, w.Body.String())
	}
	return resp
}

// TestServeQueries drives every read endpoint end to end and checks the
// response envelope, the outcome header, and the exactly-one-outcome tally.
func TestServeQueries(t *testing.T) {
	s, tree := newTestServer(t, 3, 500, nil)
	h := s.Handler()

	w := post(t, h, "/v1/knn", `{"point":[0.5,0.5,0.5],"k":5}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("knn: status %d, body %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(HeaderOutcome); got != "ok" {
		t.Fatalf("knn: outcome header %q, want ok", got)
	}
	if resp := decode(t, w); resp.Count != 5 || len(resp.Neighbors) != 5 {
		t.Fatalf("knn: got %d neighbors, want 5", resp.Count)
	}

	w = post(t, h, "/v1/range", `{"point":[0.5,0.5,0.5],"radius":0.4,"metric":"L1"}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("range: status %d, body %s", w.Code, w.Body.String())
	}
	if resp := decode(t, w); resp.Count == 0 {
		t.Fatal("range: no results in a 0.4 L1 ball around the center of 500 uniform points")
	}

	w = post(t, h, "/v1/box", `{"lo":[0,0,0],"hi":[1,1,1]}`, nil)
	if resp := decode(t, w); w.Code != http.StatusOK || resp.Count != tree.Size() {
		t.Fatalf("box: status %d count %d, want 200 with %d", w.Code, resp.Count, tree.Size())
	}

	// Writes are not mounted without EnableWrites.
	if w = post(t, h, "/v1/insert", `{"point":[0.1,0.2,0.3],"rid":9001}`, nil); w.Code != http.StatusNotFound {
		t.Fatalf("insert without EnableWrites: status %d, want 404", w.Code)
	}

	// Exactly one outcome per /v1 request, including the 404? No: the mux
	// rejected that one before any endpoint ran, so it counts no outcome.
	reqs := s.cfg.Registry.Counter("server_requests_total").Value()
	if reqs != 3 {
		t.Fatalf("server_requests_total = %d, want 3", reqs)
	}
	if ok := s.cfg.Registry.Counter(`server_request_outcomes_total{outcome="ok"}`).Value(); ok != 3 {
		t.Fatalf("ok outcomes = %d, want 3", ok)
	}
}

// TestServeWrites exercises insert and delete through the group committer.
func TestServeWrites(t *testing.T) {
	s, tree := newTestServer(t, 2, 10, func(c *Config) { c.EnableWrites = true })
	h := s.Handler()
	before := tree.Size()

	if w := post(t, h, "/v1/insert", `{"point":[0.25,0.75],"rid":777}`, nil); w.Code != http.StatusOK {
		t.Fatalf("insert: status %d, body %s", w.Code, w.Body.String())
	}
	if got := tree.Size(); got != before+1 {
		t.Fatalf("size after insert %d, want %d", got, before+1)
	}

	// The request vectors alias pooled buffers that are overwritten with NaN
	// the moment the handler returns (poisonReleased): whatever the index
	// kept of an insert must be its own copy. Insert through one pooled
	// state after another, then read every vector back exactly.
	rng := rand.New(rand.NewSource(5))
	inserted := make([]geom.Point, 200)
	for i := range inserted {
		p := geom.Point{float32(rng.Float64()), float32(rng.Float64())}
		inserted[i] = p
		body := fmt.Sprintf(`{"point":[%v,%v],"rid":%d}`, p[0], p[1], 1000+i)
		if w := post(t, h, "/v1/insert", body, nil); w.Code != http.StatusOK {
			t.Fatalf("insert %d: status %d, body %s", i, w.Code, w.Body.String())
		}
	}
	for i, p := range inserted {
		es, err := tree.Search(context.Background(), core.Query{Kind: core.Box, Rect: geom.Rect{Lo: p, Hi: p}})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range es {
			found = found || (e.RID == core.RecordID(1000+i) && e.Point.Equal(p))
		}
		if !found {
			t.Fatalf("vector %d %v not stored exactly: point query found %v", i, p, es)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants (a NaN that leaked into a node breaks its bounds): %v", err)
	}

	w := post(t, h, "/v1/delete", `{"point":[0.25,0.75],"rid":777}`, nil)
	resp := decode(t, w)
	if w.Code != http.StatusOK || resp.Found == nil || !*resp.Found {
		t.Fatalf("delete: status %d found %v, want 200 found=true", w.Code, resp.Found)
	}
	w = post(t, h, "/v1/delete", `{"point":[0.25,0.75],"rid":777}`, nil)
	if resp := decode(t, w); resp.Found == nil || *resp.Found {
		t.Fatalf("second delete: found %v, want found=false", resp.Found)
	}
}

// rejectionCases is every request TestClientRejections expects a 4xx for
// (dim 3, 256-byte body cap, writes on). FuzzScanRequest seeds from the
// bodies.
var rejectionCases = []struct {
	name, path, body string
	hdr              map[string]string
	want             int
}{
	{"bad json", "/v1/knn", `{"point":[0.1,`, nil, http.StatusBadRequest},
	{"wrong dim", "/v1/knn", `{"point":[0.1,0.2],"k":3}`, nil, http.StatusBadRequest},
	{"k missing", "/v1/knn", `{"point":[0.1,0.2,0.3]}`, nil, http.StatusBadRequest},
	{"bad metric", "/v1/knn", `{"point":[0.1,0.2,0.3],"k":3,"metric":"cosine"}`, nil, http.StatusBadRequest},
	{"Lp NaN", "/v1/knn", `{"point":[0.1,0.2,0.3],"k":3,"metric":"Lp:NaN"}`, nil, http.StatusBadRequest},
	{"Lp +Inf", "/v1/range", `{"point":[0.1,0.2,0.3],"radius":1,"metric":"Lp:+Inf"}`, nil, http.StatusBadRequest},
	{"Lp below 1", "/v1/knn", `{"point":[0.1,0.2,0.3],"k":3,"metric":"Lp:0.5"}`, nil, http.StatusBadRequest},
	{"bad radius", "/v1/range", `{"point":[0.1,0.2,0.3],"radius":-1}`, nil, http.StatusBadRequest},
	{"bad deadline", "/v1/knn", `{"point":[0.1,0.2,0.3],"k":3}`,
		map[string]string{HeaderDeadlineMs: "soon"}, http.StatusBadRequest},
	{"bad budget", "/v1/knn", `{"point":[0.1,0.2,0.3],"k":3}`,
		map[string]string{HeaderBudgetPages: "-5"}, http.StatusBadRequest},
	{"oversized body", "/v1/box",
		fmt.Sprintf(`{"lo":[0,0,0],"hi":[1,1,1],"metric":%q}`, strings.Repeat("x", 4096)),
		nil, http.StatusRequestEntityTooLarge},
	// A body is one JSON value: json.Decoder stopped at the closing brace
	// and served this one.
	{"trailing bytes", "/v1/knn", `{"point":[0.1,0.2,0.3],"k":3} garbage`, nil, http.StatusBadRequest},
	{"second value", "/v1/knn", `{"point":[0.1,0.2,0.3],"k":3}{}`, nil, http.StatusBadRequest},
	{"fractional k", "/v1/knn", `{"point":[0.1,0.2,0.3],"k":3.0}`, nil, http.StatusBadRequest},
	{"negative rid", "/v1/insert", `{"point":[0.1,0.2,0.3],"rid":-1}`, nil, http.StatusBadRequest},
	{"float32 overflow", "/v1/knn", `{"point":[0.1,0.2,1e39],"k":3}`, nil, http.StatusBadRequest},
	// The index covers [0,1]^3: a vector outside it is the client's mistake
	// (it was a 500, and it rolled its whole commit group back).
	{"insert outside the data space", "/v1/insert", `{"point":[2,2,2],"rid":1}`, nil, http.StatusBadRequest},
	// core.ErrBadQuery, the read-side sibling (it was a 500 and a counted
	// panic: the handler built the box with geom.NewRect).
	{"inverted box", "/v1/box", `{"lo":[0.9,0.9,0.9],"hi":[0.1,0.1,0.1]}`, nil, http.StatusBadRequest},
}

// TestClientRejections: every malformed request resolves to the documented
// 4xx with an outcome header, and still counts exactly one outcome.
func TestClientRejections(t *testing.T) {
	s, _ := newTestServer(t, 3, 50, func(c *Config) { c.MaxBodyBytes = 256; c.EnableWrites = true })
	h := s.Handler()

	cases := rejectionCases
	for _, tc := range cases {
		w := post(t, h, tc.path, tc.body, tc.hdr)
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.want, w.Body.String())
		}
		if got := w.Header().Get(HeaderOutcome); got != "error" {
			t.Errorf("%s: outcome header %q, want error", tc.name, got)
		}
	}
	reqs := s.cfg.Registry.Counter("server_requests_total").Value()
	errs := s.cfg.Registry.Counter(`server_request_outcomes_total{outcome="error"}`).Value()
	if reqs != uint64(len(cases)) || errs != uint64(len(cases)) {
		t.Fatalf("tally: requests=%d error-outcomes=%d, want both %d", reqs, errs, len(cases))
	}
	if n := s.cfg.Registry.Counter("server_panics_total").Value(); n != 0 {
		t.Fatalf("server_panics_total = %d: a client's mistake reached a panic", n)
	}
	// Deleting a vector that cannot be in the index is a miss, not a mistake.
	w := post(t, h, "/v1/delete", `{"point":[2,2,2],"rid":1}`, nil)
	if resp := decode(t, w); w.Code != http.StatusOK || resp.Found == nil || *resp.Found {
		t.Errorf("delete outside the data space: status %d found %v, want 200 found=false", w.Code, resp.Found)
	}

	// The exponents a client may spell out instead of naming L1 or L2 reach
	// the same additive kernel; the rest of the family does not.
	for name, fast := range map[string]bool{"L1": true, "": true, "Lp:1": true, "lp:2": true, "Lp:3": false, "Linf": false} {
		m, err := metric(name)
		if err != nil {
			t.Fatalf("metric(%q): %v", name, err)
		}
		if _, ok := dist.AsAdditive(m); ok != fast {
			t.Errorf("metric(%q): additive kernel = %v, want %v", name, ok, fast)
		}
	}
}

// TestBudgetDegrades: an absurdly small page budget yields an honest
// partial answer — 206, the partial marker, and a degraded outcome.
func TestBudgetDegrades(t *testing.T) {
	s, _ := newTestServer(t, 4, 3000, nil)
	w := post(t, s.Handler(), "/v1/knn", `{"point":[0.5,0.5,0.5,0.5],"k":50}`,
		map[string]string{HeaderBudgetPages: "2"})
	if w.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206 (body %s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get(HeaderOutcome); got != "degraded" {
		t.Fatalf("outcome header %q, want degraded", got)
	}
	resp := decode(t, w)
	if !resp.Partial {
		t.Fatal("degraded response not marked partial")
	}
	if w.Header().Get(HeaderPartial) == "" {
		t.Fatalf("degraded response missing %s header", HeaderPartial)
	}
}

// TestDeadlineCapAndTimeout: the server clamps client deadlines to
// MaxDeadline, and an already-expired deadline resolves as shed or timeout
// (the request never produces a fabricated answer).
func TestDeadlineCapAndTimeout(t *testing.T) {
	s, _ := newTestServer(t, 3, 2000, func(c *Config) {
		c.MaxDeadline = 50 * time.Millisecond
		c.Workers = 1
	})
	// A 0ms deadline expires before the query can run: the executor sheds
	// it from the queue or the search classifies the expiry as a timeout.
	w := post(t, s.Handler(), "/v1/knn", `{"point":[0.5,0.5,0.5],"k":5}`,
		map[string]string{HeaderDeadlineMs: "0"})
	// X-Deadline-Ms: 0 means "no client deadline", clamped to MaxDeadline
	// = 50ms — plenty; this one succeeds.
	if w.Code != http.StatusOK {
		t.Fatalf("0ms header (=> server cap): status %d, want 200", w.Code)
	}
	// An actual 1ms deadline against a wedged executor sheds below in
	// TestOverloadSheds; here just check an in-flight expiry maps to 504 or
	// 503, never 200 — drive it by wedging the sole worker so the deadline
	// lapses while queued.
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.exec.Do(context.Background(), func(*core.QueryContext) error { <-gate; return nil })
	}()
	time.Sleep(10 * time.Millisecond) // let the wedge occupy the worker
	// Release the wedge while the request below is still queued: its 1ms
	// deadline has long expired by then, so the worker sheds it on dequeue.
	go func() { time.Sleep(50 * time.Millisecond); close(gate) }()
	w = post(t, s.Handler(), "/v1/knn", `{"point":[0.5,0.5,0.5],"k":5}`,
		map[string]string{HeaderDeadlineMs: "1"})
	<-done
	if w.Code != http.StatusGatewayTimeout && w.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired-while-queued: status %d, want 504 or 503 (body %s)", w.Code, w.Body.String())
	}
}

// TestOverloadSheds wedges the executor's only worker and fills its queue:
// further requests must shed with 503 + Retry-After immediately rather
// than queue without bound.
func TestOverloadSheds(t *testing.T) {
	s, _ := newTestServer(t, 3, 100, func(c *Config) { c.Workers = 1; c.QueueDepth = 1 })
	gate := make(chan struct{})
	wedged := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.exec.Do(context.Background(), func(*core.QueryContext) error {
			close(wedged)
			<-gate
			return nil
		})
	}()
	<-wedged
	// Fill the queue (depth 1) with a second task.
	go s.exec.Do(context.Background(), func(*core.QueryContext) error { return nil })
	// Release the wedge on a timer: a post that races the filler into the
	// queue resolves as shed-on-dequeue (its 10ms deadline is long expired
	// by then) instead of deadlocking the loop below.
	go func() { time.Sleep(300 * time.Millisecond); close(gate) }()
	deadline := time.Now().Add(5 * time.Second)
	var w *httptest.ResponseRecorder
	for {
		w = post(t, s.Handler(), "/v1/knn", `{"point":[0.5,0.5,0.5],"k":3}`,
			map[string]string{HeaderDeadlineMs: "10"})
		if w.Code == http.StatusServiceUnavailable || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated executor: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := w.Header().Get(HeaderOutcome); got != "shed" {
		t.Fatalf("outcome header %q, want shed", got)
	}
}

// TestPanicIsolation: a handler that panics resolves its own request to a
// 500 and leaves the server serving.
func TestPanicIsolation(t *testing.T) {
	s, _ := newTestServer(t, 3, 50, nil)
	bomb := s.endpoint(func(*http.Request, queryRequest) result { panic("boom") })

	req := httptest.NewRequest(http.MethodPost, "/v1/bomb", strings.NewReader(`{}`))
	w := httptest.NewRecorder()
	bomb.ServeHTTP(w, req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", w.Code)
	}
	if got := w.Header().Get(HeaderOutcome); got != "error" {
		t.Fatalf("outcome header %q, want error", got)
	}
	if n := s.cfg.Registry.Counter("server_panics_total").Value(); n != 1 {
		t.Fatalf("server_panics_total = %d, want 1", n)
	}
	// The server is still fine.
	if w := post(t, s.Handler(), "/v1/knn", `{"point":[0.5,0.5,0.5],"k":3}`, nil); w.Code != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", w.Code)
	}
	if n := s.cfg.Registry.Gauge("server_inflight_requests").Value(); n != 0 {
		t.Fatalf("inflight gauge %d after panic resolution, want 0", n)
	}
}

// TestDrainFlipsReadiness: once Shutdown begins, /readyz answers 503,
// /healthz stays alive, and /v1 requests shed.
func TestDrainFlipsReadiness(t *testing.T) {
	s, _ := newTestServer(t, 3, 50, nil)
	h := s.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	if w := get("/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", w.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", w.Code)
	}
	if w := get("/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("healthz during drain: %d %q, want 200 'ok draining'", w.Code, w.Body.String())
	}
	w := post(t, h, "/v1/knn", `{"point":[0.5,0.5,0.5],"k":3}`, nil)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get(HeaderOutcome) != "shed" {
		t.Fatalf("/v1 during drain: %d outcome %q, want 503 shed", w.Code, w.Header().Get(HeaderOutcome))
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestStatsAndMetricsEndpoints: the introspection surface rides along.
func TestStatsAndMetricsEndpoints(t *testing.T) {
	s, tree := newTestServer(t, 3, 120, nil)
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st statsResponse
	if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Dim != 3 || st.Size != tree.Size() {
		t.Fatalf("stats %+v, want dim 3 size %d", st, tree.Size())
	}

	post(t, h, "/v1/knn", `{"point":[0.5,0.5,0.5],"k":3}`, nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	var payload struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(w.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Counters["server_requests_total"] == 0 {
		t.Fatalf("metrics.json missing server_requests_total: %v", payload.Counters)
	}
}

// TestBodyLimitBounds: MaxBytesReader actually stops reading at the cap
// rather than buffering an arbitrarily large body.
func TestBodyLimitBounds(t *testing.T) {
	s, _ := newTestServer(t, 3, 10, func(c *Config) { c.MaxBodyBytes = 128 })
	var big bytes.Buffer
	big.WriteString(`{"point":[`)
	for i := 0; i < 100000; i++ {
		big.WriteString("0.5,")
	}
	big.WriteString(`0.5],"k":3}`)
	w := post(t, s.Handler(), "/v1/knn", big.String(), nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("1MB body against a 128B cap: status %d, want 413", w.Code)
	}
}
