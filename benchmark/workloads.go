package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// workload is one traffic mix. mix gives each request kind's share in
// per-mille; the kinds present decide which request pools are encoded.
type workload struct {
	name    string
	why     string
	serving bool // through htreed's stack and HTTP; false = in-process cold reads
	clients int  // closed-loop clients of the measured pass
	mix     [numKinds]int
	warmup  int // untimed requests before the measured pass (part of set-up)
}

// servingClients is the load model of the serving workloads: a closed loop
// of two clients, each on its own keep-alive connection (the reference
// sandbox has two cores). Two workloads have a single caller: the cold
// reader is one in-process caller, like `htree knn`, and the durable-insert
// stream is one writer, because two closed-loop writers never share a
// group commit (measured batch mean 1.0003) and the phase between them is
// metastable: ten runs gave 1,890 to 3,230 acks/s, against 1,880 to 2,040
// with one writer.
const servingClients = 2

var workloads = []workload{
	{
		name:    "knn64-serve",
		why:     "k-NN (k=10, L1) at held-out anchors over HTTP: core's kd-walk and leaf scan are most of the round trip, the server little",
		serving: true, clients: servingClients, mix: [numKinds]int{opKNN: 1000}, warmup: 2000,
	},
	{
		name:    "point64-serve",
		why:     "exact-match box (lo=hi=a stored vector) over HTTP: core does ~3 node reads, so JSON, executor hop and net/http are the request",
		serving: true, clients: servingClients, mix: [numKinds]int{opPoint: 1000}, warmup: 4000,
	},
	{
		name:    "insert64-durable",
		why:     "one writer's inserts, each acknowledged after its WAL fsync, then kill-style close, recovery and lookup of every acknowledged rid: the write path, no reads",
		serving: true, clients: 1, mix: [numKinds]int{opInsert: 1000}, warmup: 2000,
	},
	{
		name:    "mixed64-90r10w",
		why:     "45% k-NN, 22.5% box, 22.5% L1 range at 0.2% selectivity, 10% durable inserts: readers beside a writer (MVCC clones, GC) and the only box/range coverage",
		serving: true, clients: servingClients, mix: [numKinds]int{opKNN: 450, opBox: 225, opRange: 225, opInsert: 100}, warmup: 2000,
	},
	{
		name:    "cold64-knn",
		why:     "in-process k-NN after DropCaches on a plain DiskFile: every node access is a page read plus decode, the node cache and everything above core bypassed",
		serving: false, clients: 1, mix: [numKinds]int{opKNN: 1000}, warmup: 500,
	},
}

func findWorkloads(spec string) ([]workload, error) {
	if spec == "" || spec == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(spec, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

func (w workload) has(k opKind) bool { return w.mix[k] > 0 }

// schedule is a workload's deterministic operation stream: pre-encoded
// request pools plus a seeded kind sequence. Reads cycle through their
// pool; every insert takes a fresh stream vector, handed out in disjoint
// per-phase ranges so warm-up, the measured pass and the replays never
// insert the same record twice.
type schedule struct {
	pools      [numKinds][]request
	kinds      []opKind // seeded kind sequence, cycled
	insertNext int      // first stream index not yet handed to a phase
}

// The kind sequence is built from blocks of mixBlock operations. Every
// block holds each kind in exactly the mix's share (per-mille shares are
// multiples of 25), in an order the seed shuffles: which kinds meet is
// random, how much of each a run performs is not.
const (
	mixBlock  = 40
	mixBlocks = 400
)

func newSchedule(w workload, d *dataSet, seed int64) *schedule {
	s := &schedule{}
	for k := opKind(0); k < numKinds; k++ {
		if !w.has(k) {
			continue
		}
		count := len(d.anchors)
		switch k {
		case opInsert:
			count = len(d.stream)
			if w.mix[opInsert] < 1000 {
				count /= 4 // mixed: a tenth of the operations insert
			}
		case opPoint:
			count = min(len(d.base), len(d.anchors))
		}
		s.pools[k] = d.newPool(k, count)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6d697865)) // "mixe": independent of the dataset shuffle
	var block []opKind
	for k := opKind(0); k < numKinds; k++ {
		for i := 0; i < w.mix[k]*mixBlock/1000; i++ {
			block = append(block, k)
		}
	}
	for b := 0; b < mixBlocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		s.kinds = append(s.kinds, block...)
	}
	return s
}

// phase hands out the operations of one pass to its clients.
type phase struct {
	s       *schedule
	clients int
	cursors []cursor
}

// cursor is one client's position in a phase. Client c performs operations
// c, c+clients, c+2·clients, … of the schedule, so what each client sends
// does not depend on how fast the other runs.
type cursor struct {
	ph      *phase
	client  int
	i       int
	perKind [numKinds]int
}

// begin starts a phase for the given number of clients. Reads start at
// readOffset within their pools, which lets replays at different layer
// boundaries run the same queries.
func (s *schedule) begin(clients, readOffset int) *phase {
	ph := &phase{s: s, clients: clients, cursors: make([]cursor, clients)}
	for c := range ph.cursors {
		ph.cursors[c] = cursor{ph: ph, client: c, i: readOffset}
	}
	return ph
}

// next returns the client's next request, or nil when the insert stream is
// used up (the pass then ends early for that client).
func (c *cursor) next() *request {
	s := c.ph.s
	kind := s.kinds[(c.i*c.ph.clients+c.client)%len(s.kinds)]
	j := c.perKind[kind]*c.ph.clients + c.client
	p := s.pools[kind]
	var r *request
	if kind == opInsert {
		if s.insertNext+j >= len(p) {
			return nil
		}
		r = &p[s.insertNext+j]
	} else {
		r = &p[(c.i*c.ph.clients+c.client)%len(p)]
	}
	c.i++
	c.perKind[kind]++
	return r
}

// end closes the phase, moving the insert stream past everything it used.
func (ph *phase) end() {
	used := 0
	for _, c := range ph.cursors {
		used = max(used, c.perKind[opInsert])
	}
	ph.s.insertNext += used * ph.clients
}
