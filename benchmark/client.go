package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// conn is one HTTP/1.1 keep-alive connection. The request bytes are
// pre-encoded, so the client's cost per operation is one write, one
// response parse and one body copy.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// roundTrip sends wire and reads the whole response. It returns the body
// (valid until the next call) and whether the server reported 200 with
// outcome "ok". A transport error closes the connection; the caller may
// redial.
func (c *conn) roundTrip(wire []byte) (body []byte, ok bool, err error) {
	if _, err := c.c.Write(wire); err != nil {
		return nil, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, false, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	ok = resp.StatusCode == http.StatusOK
	if out := resp.Header.Get("X-Htree-Outcome"); out != "" && out != "ok" {
		ok = false
	}
	return c.body.Bytes(), ok, nil
}

// kept is a response retained for the oracle.
type kept struct {
	req  *request
	body []byte
}

// clientResult is what one client saw during a pass.
type clientResult struct {
	samples  []opSample
	kept     []kept
	acked    []int // stream indexes of acknowledged inserts
	sent     []int // stream indexes of all inserts sent
	reqBytes int64
	rspBytes int64
	failed   int // non-ok responses and transport errors
	err      error
}

// doer is how a client performs operations: over HTTP, or in process at
// one of the layer boundaries. do reports the response body (nil when the
// layer under test returns none), whether the operation succeeded, and any
// transport error. prep, when set, runs before each operation outside its
// timed window (dropping caches, starting a trace operation).
type doer struct {
	prep func()
	do   func(r *request) (body []byte, ok bool, err error)
}

// runClient drives one closed-loop client: the next request goes out when
// the previous response has been read in full. It stops at the deadline,
// after maxOps operations (0 = no cap), or when the insert stream is used
// up. A non-nil cpu receives the process CPU consumed in each segment of a
// timed pass, read as this client's operations cross the boundaries (which
// pins the reading to the operations it is divided by; a separate timer
// goroutine woke late under load).
func runClient(cur *cursor, d doer, start time.Time, dur time.Duration, maxOps int, res *clientResult, cpu *[numSegments]time.Duration) {
	seg, cpuBefore := 0, cpuTime()
	t0 := time.Now()
	for n := 0; maxOps == 0 || n < maxOps; n++ {
		if dur > 0 && t0.Sub(start) >= dur {
			return
		}
		r := cur.next()
		if r == nil {
			return
		}
		if d.prep != nil {
			d.prep()
			t0 = time.Now()
		}
		body, ok, err := d.do(r)
		t1 := time.Now()
		res.samples = append(res.samples, opSample{
			end: t1.Sub(start).Nanoseconds(), lat: uint32(min(t1.Sub(t0).Nanoseconds(), math.MaxUint32)), kind: r.kind, ok: ok && err == nil,
		})
		res.reqBytes += int64(len(r.wire))
		res.rspBytes += int64(len(body))
		if r.kind == opInsert {
			res.sent = append(res.sent, r.ref)
		}
		switch {
		case err != nil:
			res.failed++
			res.err = err
			return
		case !ok:
			res.failed++
		case r.kind == opInsert:
			res.acked = append(res.acked, r.ref)
		case n%sampleEvery == 0:
			res.kept = append(res.kept, kept{req: r, body: append([]byte(nil), body...)})
		}
		for cpu != nil && seg < numSegments && t1.Sub(start) >= dur*time.Duration(seg+1)/numSegments {
			now := cpuTime()
			cpu[seg], cpuBefore = now-cpuBefore, now
			seg++
		}
		t0 = t1
	}
}

// passResult is one pass over a schedule by all clients.
type passResult struct {
	clients []clientResult
	wall    time.Duration
	// cpuSeg is process CPU (user+sys) consumed in each segment of a
	// timed pass (0 for a segment the first client did not reach).
	cpuSeg [numSegments]time.Duration
}

func newPassResult(clients, expect int) *passResult {
	res := &passResult{clients: make([]clientResult, clients)}
	for i := range res.clients {
		res.clients[i].samples = make([]opSample, 0, expect)
	}
	return res
}

// retainedBytes estimates what the pass's records hold on the heap beyond
// the preallocated sample buffers: kept response bodies and insert lists.
func (p *passResult) retainedBytes() float64 {
	var n int
	for i := range p.clients {
		c := &p.clients[i]
		for _, k := range c.kept {
			n += cap(k.body)
		}
		n += cap(c.kept)*int(unsafe.Sizeof(kept{})) + (cap(c.acked)+cap(c.sent))*8
	}
	return float64(n)
}

func (p *passResult) samples() []opSample {
	var all []opSample
	for i := range p.clients {
		all = append(all, p.clients[i].samples...)
	}
	return all
}

func (p *passResult) attempted() (n int) {
	for i := range p.clients {
		n += len(p.clients[i].samples)
	}
	return n
}

func (p *passResult) failed() (n int) {
	for i := range p.clients {
		n += p.clients[i].failed
	}
	return n
}

func (p *passResult) firstErr() error {
	for i := range p.clients {
		if p.clients[i].err != nil {
			return p.clients[i].err
		}
	}
	return nil
}

func (p *passResult) inserts() (sent, acked []int) {
	for i := range p.clients {
		sent = append(sent, p.clients[i].sent...)
		acked = append(acked, p.clients[i].acked...)
	}
	return sent, acked
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass runs ph into res with one doer per client, for dur (timed pass)
// or for opsPerClient operations each (counted pass; dur = 0).
func runPass(res *passResult, ph *phase, doers []doer, dur time.Duration, opsPerClient int) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range doers {
		var cpu *[numSegments]time.Duration
		if i == 0 && dur > 0 {
			cpu = &res.cpuSeg
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(&ph.cursors[i], doers[i], start, dur, opsPerClient, &res.clients[i], cpu)
		}(i)
	}
	wg.Wait()
	res.wall = time.Since(start)
	ph.end()
}

// httpDoers dials one keep-alive connection per client.
func httpDoers(addr string, clients int) ([]doer, func(), error) {
	conns := make([]*conn, 0, clients)
	closeAll := func() {
		for _, c := range conns {
			c.close()
		}
	}
	doers := make([]doer, clients)
	for i := range doers {
		c, err := dial(addr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		conns = append(conns, c)
		doers[i] = doer{do: func(r *request) ([]byte, bool, error) { return c.roundTrip(r.wire) }}
	}
	return doers, closeAll, nil
}
