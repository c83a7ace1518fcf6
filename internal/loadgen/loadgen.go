// Package loadgen is a seeded open-loop load generator for the htreed
// front door. Open-loop means arrivals are scheduled by a clock, not by
// completions: when the server slows down, requests keep arriving at the
// configured rate and pile up — exactly the regime that exposes whether
// overload sheds or collapses. (A closed-loop client, which waits for each
// response before sending the next, can never drive a server past
// capacity; it measures the server's throughput, not its failure mode.)
//
// Every request's parameters derive deterministically from (Seed, request
// index), so two runs against the same server state issue the same
// queries in the same order regardless of goroutine scheduling. The
// report tallies responses by HTTP status and by the server's
// X-Htree-Outcome header and checks the storm invariants: every response
// carries a mapped status, and the outcome totals are consistent.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Mix weighs the operation types; weights need not sum to 1. Zero-weight
// operations are never issued. The zero Mix defaults to queries only
// (50% k-NN, 25% box, 25% range).
type Mix struct {
	KNN    float64
	Box    float64
	Range  float64
	Insert float64
	Delete float64
}

func (m Mix) withDefaults() Mix {
	if m.KNN+m.Box+m.Range+m.Insert+m.Delete <= 0 {
		return Mix{KNN: 0.5, Box: 0.25, Range: 0.25}
	}
	return m
}

// Config parameterizes one storm.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Seed drives every random choice (per-request, order-independent).
	Seed int64
	// Dim is the index dimensionality (points are uniform in [0,1)^Dim).
	Dim int
	// Requests is the total number to send.
	Requests int
	// Rate is the arrival rate in requests/second (required; the open
	// loop fires on schedule no matter how the server is doing).
	Rate float64
	// Mix weighs operation types.
	Mix Mix
	// K and Radius parameterize k-NN and range queries (defaults 10, 0.1).
	K      int
	Radius float64
	// DeadlineMs and BudgetPages are sent as lifecycle headers when > 0.
	DeadlineMs  int
	BudgetPages int
	// Timeout bounds each request on the client side (default 10s —
	// comfortably above any server-side deadline, so the server, not the
	// client transport, resolves the request whenever possible).
	Timeout time.Duration
	// MaxRIDs bounds the record-id space for inserts/deletes (default
	// 1e6); deletes draw from the same space so some find their target.
	MaxRIDs int
}

func (cfg Config) withDefaults() Config {
	cfg.Mix = cfg.Mix.withDefaults()
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Radius <= 0 {
		cfg.Radius = 0.1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxRIDs <= 0 {
		cfg.MaxRIDs = 1 << 20
	}
	return cfg
}

// Report tallies one storm.
type Report struct {
	Sent    int
	Elapsed time.Duration
	// Status counts responses by HTTP status code.
	Status map[int]int
	// Outcomes counts responses by X-Htree-Outcome header value.
	Outcomes map[string]int
	// MissingOutcome counts responses without the header (should be 0 for
	// /v1 endpoints).
	MissingOutcome int
	// TransportErrors counts requests that died in the client transport
	// (connection refused/reset, client-side timeout) and so never got an
	// HTTP status. The server may or may not have seen them.
	TransportErrors int
}

// Responses is the number of requests that resolved to an HTTP status.
func (r *Report) Responses() int {
	n := 0
	for _, c := range r.Status {
		n += c
	}
	return n
}

// String renders the tallies, statuses and outcomes sorted.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "sent=%d responses=%d transport-errors=%d elapsed=%v\n",
		r.Sent, r.Responses(), r.TransportErrors, r.Elapsed.Round(time.Millisecond))
	statuses := make([]int, 0, len(r.Status))
	for s := range r.Status {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	fmt.Fprintf(&b, "status:")
	for _, s := range statuses {
		fmt.Fprintf(&b, " %d=%d", s, r.Status[s])
	}
	fmt.Fprintf(&b, "\noutcomes:")
	outs := make([]string, 0, len(r.Outcomes))
	for o := range r.Outcomes {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	for _, o := range outs {
		fmt.Fprintf(&b, " %s=%d", o, r.Outcomes[o])
	}
	if r.MissingOutcome > 0 {
		fmt.Fprintf(&b, " (missing=%d)", r.MissingOutcome)
	}
	return b.String()
}

// Check asserts the storm invariants on the client side: every response
// resolved to one of the statuses the server's outcome mapper (plus its
// 4xx rejections) can produce, every response carried an outcome header,
// and the outcome tallies sum to the responses received. With expectShed
// it additionally requires that the storm actually drove the server past
// capacity (some 503s) without drowning it (some 200s).
func (r *Report) Check(expectShed bool) error {
	allowed := map[int]bool{200: true, 206: true, 400: true, 404: true,
		413: true, 499: true, 500: true, 503: true, 504: true}
	for s, n := range r.Status {
		if !allowed[s] && n > 0 {
			return fmt.Errorf("unmapped HTTP status %d (%d responses)", s, n)
		}
	}
	if r.MissingOutcome > 0 {
		return fmt.Errorf("%d responses without %s", r.MissingOutcome, "X-Htree-Outcome")
	}
	sum := 0
	for _, n := range r.Outcomes {
		sum += n
	}
	if sum != r.Responses() {
		return fmt.Errorf("outcome tallies sum to %d but %d responses received", sum, r.Responses())
	}
	if r.Sent != r.Responses()+r.TransportErrors {
		return fmt.Errorf("sent %d != responses %d + transport errors %d",
			r.Sent, r.Responses(), r.TransportErrors)
	}
	if expectShed {
		if r.Status[http.StatusServiceUnavailable] == 0 {
			return fmt.Errorf("expected overload: no request was shed (status counts %v)", r.Status)
		}
		if r.Status[http.StatusOK] == 0 {
			return fmt.Errorf("server drowned: no request succeeded (status counts %v)", r.Status)
		}
	}
	return nil
}

// request is one deterministic unit of work.
type request struct {
	path string
	body []byte
}

// genRequest derives request i from the seed alone, so the schedule is
// identical across runs and goroutine interleavings.
func genRequest(cfg Config, i int) request {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*1000003))
	point := func() []float32 {
		p := make([]float32, cfg.Dim)
		for d := range p {
			p[d] = float32(rng.Float64())
		}
		return p
	}
	m := cfg.Mix
	total := m.KNN + m.Box + m.Range + m.Insert + m.Delete
	v := rng.Float64() * total
	enc := func(path string, body map[string]any) request {
		raw, err := json.Marshal(body)
		if err != nil {
			panic(err) // static body shapes; unreachable
		}
		return request{path: path, body: raw}
	}
	switch {
	case v < m.KNN:
		return enc("/v1/knn", map[string]any{"point": point(), "k": cfg.K})
	case v < m.KNN+m.Box:
		lo := point()
		hi := make([]float32, cfg.Dim)
		for d := range hi {
			hi[d] = lo[d] + float32(0.2*rng.Float64())
		}
		return enc("/v1/box", map[string]any{"lo": lo, "hi": hi})
	case v < m.KNN+m.Box+m.Range:
		return enc("/v1/range", map[string]any{"point": point(), "radius": cfg.Radius})
	case v < m.KNN+m.Box+m.Range+m.Insert:
		return enc("/v1/insert", map[string]any{"point": point(), "rid": rng.Intn(cfg.MaxRIDs)})
	default:
		return enc("/v1/delete", map[string]any{"point": point(), "rid": rng.Intn(cfg.MaxRIDs)})
	}
}

// Run fires the storm and tallies the outcome. ctx cancellation stops
// scheduling new arrivals (in-flight requests still resolve); the report
// covers whatever was sent.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" || cfg.Dim <= 0 || cfg.Requests <= 0 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: BaseURL, Dim, Requests and Rate are required")
	}
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}
	rep := &Report{Status: map[int]int{}, Outcomes: map[string]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	next := start
	sent := 0
	for i := 0; i < cfg.Requests; i++ {
		// Open loop: sleep until this request's scheduled arrival, never
		// until the previous one's completion.
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				i = cfg.Requests // stop scheduling
				continue
			}
		} else if ctx.Err() != nil {
			break
		}
		next = next.Add(interval)
		req := genRequest(cfg, i)
		sent++
		wg.Add(1)
		go func(req request) {
			defer wg.Done()
			status, outcome, err := issue(client, cfg, req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rep.TransportErrors++
				return
			}
			rep.Status[status]++
			if outcome == "" {
				rep.MissingOutcome++
			} else {
				rep.Outcomes[outcome]++
			}
		}(req)
	}
	wg.Wait()
	rep.Sent = sent
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func issue(client *http.Client, cfg Config, r request) (status int, outcome string, err error) {
	req, err := http.NewRequest(http.MethodPost, cfg.BaseURL+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.DeadlineMs > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(cfg.DeadlineMs))
	}
	if cfg.BudgetPages > 0 {
		req.Header.Set("X-Budget-Pages", strconv.Itoa(cfg.BudgetPages))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	return resp.StatusCode, resp.Header.Get("X-Htree-Outcome"), nil
}

// ScrapeServerTally fetches /metrics.json and returns the server's own
// request counter and per-outcome tallies, for the server-side half of the
// storm invariant: sum(outcomes) == requests received, which holds even
// when some client requests died in the transport.
func ScrapeServerTally(baseURL string) (requests uint64, outcomes map[string]uint64, err error) {
	resp, err := http.Get(baseURL + "/metrics.json")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var payload struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return 0, nil, err
	}
	outcomes = map[string]uint64{}
	for name, v := range payload.Counters {
		if name == "server_requests_total" {
			requests = v
		}
		const prefix = `server_request_outcomes_total{outcome="`
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			out := name[len(prefix) : len(name)-len(`"}`)]
			outcomes[out] = v
		}
	}
	return requests, outcomes, nil
}
