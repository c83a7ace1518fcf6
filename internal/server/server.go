// Package server is the hybrid tree's network front door: a stdlib-only
// net/http server that exposes the in-process request-lifecycle machinery —
// budgeted core.Query searches, concurrent.Executor admission
// control, the six-way outcome taxonomy, the obs mux — over a socket.
//
// It is engineered for failure first. Overload resolves at the edges in a
// fixed ladder (see DESIGN.md §13): the listener caps concurrent
// connections, every request body is size-capped, admission control sheds
// with 503 + Retry-After before latency can grow without bound, per-request
// deadlines propagate from the X-Deadline-Ms header down to the per-node
// visit check, page budgets from X-Budget-Pages degrade answers honestly
// (206 + an explicit partial marker) instead of silently truncating them,
// and every handler is panic-isolated so one poisoned request cannot take
// the process down. Each request resolves to exactly one outcome counter,
// so the server's tallies sum to the requests it received — the invariant
// the load-storm harness asserts.
//
// Shutdown is a graceful drain: readiness flips first (load balancers stop
// routing), the listener closes, in-flight requests finish within a bound,
// the executor and group committer drain, and only then does the caller
// checkpoint the tree and close the WAL.
package server

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/obs"
)

// Config parameterizes a Server. The zero value serves read-only queries
// with sane failure-first defaults.
type Config struct {
	// Dim is the index dimensionality; request vectors must match (400
	// otherwise). Required.
	Dim int

	// EnableWrites mounts /v1/insert and /v1/delete, routed through a
	// GroupCommitter so concurrent writers share commit fsyncs.
	EnableWrites bool

	// MaxBodyBytes caps every request body (default 1 MiB; oversized
	// bodies get 413). The cap bounds per-request memory before any
	// decoding happens.
	MaxBodyBytes int64
	// MaxConns caps concurrently accepted connections (0 = unlimited).
	// Excess connections wait in the kernel accept queue instead of each
	// holding a goroutine and a file descriptor.
	MaxConns int

	// Workers and QueueDepth size the query executor (see
	// concurrent.ExecutorConfig). A full queue sheds with 503.
	Workers    int
	QueueDepth int
	// WriteSlots caps concurrently admitted write requests (default 64);
	// excess writes shed with 503 rather than queueing unboundedly behind
	// the group committer.
	WriteSlots int
	// GroupMaxBatch bounds group-commit batch size (default 64).
	GroupMaxBatch int

	// MaxDeadline caps the client-supplied X-Deadline-Ms (0 = no cap), so
	// a client cannot pin a worker for minutes; DefaultDeadline applies
	// when the header is absent (0 = none).
	MaxDeadline     time.Duration
	DefaultDeadline time.Duration
	// MaxBudgetPages caps the client-supplied X-Budget-Pages (0 = no cap);
	// DefaultBudgetPages applies when the header is absent (0 = unlimited).
	MaxBudgetPages     int
	DefaultBudgetPages int

	// HTTP server timeouts: slow-loris defense (ReadHeaderTimeout), stuck
	// reader/writer bounds, and keep-alive reaping. Defaults: 5s header,
	// 30s read/write, 60s idle.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration

	// Registry receives the server's metrics (default obs.Default()). The
	// storm harness passes a fresh registry so outcome tallies are exact.
	Registry *obs.Registry
	// Ring and Slow, when set, are mounted at /debug/queries and
	// /debug/slow through the obs mux.
	Ring *obs.Ring
	Slow *obs.SlowRecorder
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.WriteSlots <= 0 {
		cfg.WriteSlots = 64
	}
	if cfg.GroupMaxBatch <= 0 {
		cfg.GroupMaxBatch = 64
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	return cfg
}

// serverMetrics is one Server's obs bundle. requests and outcomes are
// recorded exactly once per /v1 request, in the endpoint wrapper, so
// sum(outcomes) == requests holds at every instant the handler is not
// between the two increments.
type serverMetrics struct {
	requests  *obs.Counter
	outcomes  *obs.Outcomes
	panics    *obs.Counter
	inflight  *obs.Gauge
	latency   *obs.Histogram
	connsHeld *obs.Gauge
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests:  r.Counter("server_requests_total"),
		outcomes:  obs.NewOutcomes(r, "server_request_outcomes_total"),
		panics:    r.Counter("server_panics_total"),
		inflight:  r.Gauge("server_inflight_requests"),
		latency:   r.Histogram("server_request_ns"),
		connsHeld: r.Gauge("server_open_conns"),
	}
}

// Server is the front door over one concurrent.Tree.
type Server struct {
	tree  *concurrent.Tree
	exec  *concurrent.Executor
	group *concurrent.GroupCommitter // nil unless EnableWrites

	cfg      Config
	writeSem chan struct{}
	m        *serverMetrics

	httpSrv  *http.Server
	draining atomic.Bool
	served   atomic.Bool
}

// New builds a Server over tree. It starts the executor (and, with writes
// enabled, the group committer) immediately; the HTTP listener starts with
// Serve.
func New(tree *concurrent.Tree, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		tree:     tree,
		exec:     concurrent.NewExecutor(tree, concurrent.ExecutorConfig{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth}),
		cfg:      cfg,
		writeSem: make(chan struct{}, cfg.WriteSlots),
		m:        newServerMetrics(cfg.Registry),
	}
	if cfg.EnableWrites {
		s.group = concurrent.NewGroupCommitter(tree, cfg.GroupMaxBatch)
	}
	s.httpSrv = &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}
	return s
}

// Handler returns the server's full handler tree (tests drive it through
// httptest without a real listener).
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Serve accepts connections on ln (wrapped with the connection cap) until
// Shutdown. It returns http.ErrServerClosed after a graceful shutdown,
// matching net/http.
func (s *Server) Serve(ln net.Listener) error {
	if s.cfg.MaxConns > 0 {
		ln = limitListener(ln, s.cfg.MaxConns, s.m.connsHeld)
	}
	s.served.Store(true)
	return s.httpSrv.Serve(ln)
}

// Shutdown drains the server gracefully, in dependency order:
//
//  1. readiness flips — /readyz answers 503 so load balancers stop routing,
//     and new /v1 requests shed with 503 even on surviving keep-alives;
//  2. the listener closes and in-flight requests run to completion, bounded
//     by ctx — on expiry remaining connections are force-closed;
//  3. the executor closes (queued queries drain or shed on their expired
//     deadlines) and the group committer closes (queued writes commit and
//     acknowledge — no verdict is ever dropped).
//
// The tree itself is deliberately not touched: the owner runs the final
// Flush checkpoint and closes the WAL after Shutdown returns, when no
// request can possibly be in flight. Shutdown is idempotent; the first
// error (a missed drain bound) is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	var err error
	if s.served.Load() {
		err = s.httpSrv.Shutdown(ctx)
		if err != nil {
			_ = s.httpSrv.Close()
		}
	}
	s.exec.Close()
	if s.group != nil {
		s.group.Close()
	}
	return err
}
