package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func quickConfig(t *testing.T) config {
	t.Helper()
	return config{
		sz: quickSizes, seed: 1, dur: 300 * time.Millisecond, setups: 1, replayOps: 50, warmDiv: 10,
		trace: true, workDir: t.TempDir(),
	}
}

// TestQuickEndToEnd drives every workload through set-up, the measured
// pass, kill-style close, recovery, the oracle and the traced pass at
// -quick scale, and checks the properties the full-size run is accepted on.
func TestQuickEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := quickConfig(t)
			cfg.traceOut = filepath.Join(cfg.workDir, "spans.jsonl")
			res, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %s", res.Attempted, res.Failed, res.Failure)
			}
			for _, def := range endToEnd {
				if v, ok := res.EndToEnd[def.name]; !ok || !(v.Value > 0) || v.Unit != def.unit {
					t.Errorf("end-to-end %s = %+v, want a positive %s", def.name, v, def.unit)
				}
			}
			l := res.PerLayer
			for name := range l {
				unitOf(perLayer, name) // panics on a metric that is not declared
			}
			hit := l["core.cache_hit_ratio"].Value
			switch {
			case w.serving && !w.has(opInsert) && hit != 1:
				t.Errorf("warm read-only serving pass: cache hit ratio %g, want exactly 1", hit)
			case !w.serving && hit > 0.05:
				t.Errorf("cold pass: cache hit ratio %g, want < 0.05", hit)
			}
			if w.has(opInsert) {
				if l["wal.recover_records"].Value == 0 || l["wal.fsyncs_per_insert"].Value == 0 || l["wal.log_fsync_us"].Value == 0 {
					t.Errorf("write workload shows no WAL work: %v %v %v",
						l["wal.recover_records"], l["wal.fsyncs_per_insert"], l["wal.log_fsync_us"])
				}
			} else if l["core.rollbacks"].Value != 0 || l["wal.log_bytes_per_insert"].Value != 0 {
				t.Error("read-only workload wrote to the log")
			}
			if l["pagefile.retries"].Value != 0 || l["core.rollbacks"].Value != 0 || l["server.non_ok"].Value != 0 {
				t.Errorf("retries %g, rollbacks %g, non-ok %g; want 0", l["pagefile.retries"].Value,
					l["core.rollbacks"].Value, l["server.non_ok"].Value)
			}

			// The span file: every span closed and inside its parent, and a
			// summary line whose layers plus residual are the round trip.
			checkSpanFile(t, cfg.traceOut)
		})
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	var summary struct {
		Summary string             `json:"summary"`
		Layers  map[string]float64 `json:"per_layer_us"`
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"summary"`) {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 || summary.Summary == "" {
		t.Fatalf("%d spans, summary %q", len(spans), summary.Summary)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v never closed", s)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
				t.Fatalf("span %+v is not inside its parent %+v", s, p)
			}
		}
	}
	sum := 0.0
	for name, v := range summary.Layers {
		if name != "client.rtt_us" && name != "trace.overhead_pct" {
			sum += v
		}
	}
	if rtt := summary.Layers["client.rtt_us"]; rtt <= 0 || sum < rtt*(1-1e-9) || sum > rtt*(1+1e-9) {
		t.Errorf("Σ layers + residual = %g µs, round trip %g µs", sum, summary.Layers["client.rtt_us"])
	}
}

// TestCountsRepeatExactly is the determinism contract: with one client and
// a fixed operation count, what the index is asked and what it reads are
// functions of the seed alone; another seed changes the inputs and still
// passes the oracle.
func TestCountsRepeatExactly(t *testing.T) {
	w := workloads[0] // knn64-serve, read-only
	w.clients = 1
	run := func(seed int64) *result {
		cfg := quickConfig(t)
		cfg.seed, cfg.dur, cfg.maxOps = seed, time.Minute, 400
		res, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != 400 {
			t.Fatalf("seed %d: attempted %d, failed %d: %s", seed, res.Attempted, res.Failed, res.Failure)
		}
		return res
	}
	a, b, other := run(7), run(7), run(8)
	same := func(name string, x, y value) {
		if x.Value != y.Value || x.Value == 0 {
			t.Errorf("%s differs between two runs at one seed: %v vs %v", name, x.Value, y.Value)
		}
	}
	for _, name := range []string{"core.node_reads_per_op", "core.leaf_scanned_per_op", "index.pages",
		"dist.prunes_per_op", "pqueue.pushes_per_op", "server.req_bytes_per_op", "server.resp_bytes_per_op"} {
		same(name, a.PerLayer[name], b.PerLayer[name])
	}
	same("space_amp", a.EndToEnd["space_amp"], b.EndToEnd["space_amp"])
	if other.PerLayer["core.leaf_scanned_per_op"].Value == a.PerLayer["core.leaf_scanned_per_op"].Value {
		t.Error("a different seed asked the index the same questions")
	}
}

// TestScheduleIsDeterministicAndDisjoint pins the two properties the
// oracle and the lost-write check lean on: a client's operations depend on
// the seed and its index only, and no stream vector is inserted twice.
func TestScheduleIsDeterministicAndDisjoint(t *testing.T) {
	d, err := generate(quickSizes, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	mixed := workloads[3]
	take := func(s *schedule, clients, n int) (refs [][]int, inserts map[int]bool) {
		ph := s.begin(clients, 0)
		refs = make([][]int, clients)
		inserts = map[int]bool{}
		for i := 0; i < n; i++ {
			for c := range ph.cursors {
				r := ph.cursors[c].next()
				refs[c] = append(refs[c], int(r.kind)<<24|r.ref)
				if r.kind == opInsert {
					if inserts[r.ref] {
						t.Fatalf("stream entry %d inserted twice within a phase", r.ref)
					}
					inserts[r.ref] = true
				}
			}
		}
		ph.end()
		return refs, inserts
	}
	s1, s2 := newSchedule(mixed, d, 3), newSchedule(mixed, d, 3)
	r1, first := take(s1, 2, 500)
	r2, _ := take(s2, 2, 500)
	for c := range r1 {
		for i := range r1[c] {
			if r1[c][i] != r2[c][i] {
				t.Fatalf("client %d operation %d differs between two schedules of one seed", c, i)
			}
		}
	}
	_, second := take(s1, 2, 500)
	for ref := range second {
		if first[ref] {
			t.Fatalf("stream entry %d handed to two phases", ref)
		}
	}
	for _, w := range workloads {
		kinds := map[opKind]int{}
		sched := newSchedule(workload{mix: w.mix}, &dataSet{}, 3)
		for _, k := range sched.kinds[:mixBlock] {
			kinds[k]++
		}
		for k, share := range w.mix {
			if got := 1000 * kinds[opKind(k)] / mixBlock; got != share {
				t.Errorf("%s: %s share %d‰ in one block, want %d‰", w.name, opKind(k), got, share)
			}
		}
	}
}

// TestOracleCatchesWrongAnswers tampers with correct answers.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	d, err := generate(quickSizes, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{d: d}
	answer := func(kind opKind, ref int) (*request, response) {
		r := d.encode(kind, ref)
		var resp response
		q, box := d.query(&r)
		for rid, p := range d.base {
			switch kind {
			case opKNN, opRange:
				if dist := oracleMetric.Distance(q, p); kind == opKNN || dist <= d.rangeRadius {
					resp.Neighbors = append(resp.Neighbors, neighbor{uint64(rid), dist})
				}
			default:
				if box.Contains(p) {
					resp.RIDs = append(resp.RIDs, uint64(rid))
				}
			}
		}
		if kind == opKNN {
			ns := resp.Neighbors
			for i := range ns { // selection sort of the k best to the front
				for j := i + 1; j < len(ns); j++ {
					if ns[j].Dist < ns[i].Dist {
						ns[i], ns[j] = ns[j], ns[i]
					}
				}
				if i == knnK-1 {
					break
				}
			}
			resp.Neighbors = ns[:knnK]
		}
		return &r, resp
	}
	check := func(r *request, resp response) error {
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return o.check(kept{req: r, body: body})
	}

	for _, kind := range []opKind{opKNN, opRange, opBox, opPoint} {
		r, resp := answer(kind, 11)
		if err := check(r, resp); err != nil {
			t.Fatalf("%s: the brute-force answer is rejected: %v", kind, err)
		}
		if len(resp.Neighbors)+len(resp.RIDs) == 0 {
			t.Fatalf("%s: empty answer proves nothing", kind)
		}
		switch kind {
		case opKNN:
			wrongDist := resp
			wrongDist.Neighbors = append(wrongDist.Neighbors[:0:0], resp.Neighbors...)
			wrongDist.Neighbors[3].Dist *= 1.0001
			if check(r, wrongDist) == nil {
				t.Error("knn: a misreported distance passes")
			}
			// A true neighbor replaced by a farther point: distances honest,
			// answer not the k nearest.
			far := resp
			far.Neighbors = append(far.Neighbors[:0:0], resp.Neighbors...)
			q, _ := d.query(r)
			last := &far.Neighbors[knnK-1]
			for rid, p := range d.base {
				if dist := oracleMetric.Distance(q, p); dist > 2*last.Dist {
					last.RID, last.Dist = uint64(rid), dist
					break
				}
			}
			if check(r, far) == nil {
				t.Error("knn: a farther point in place of the k-th neighbor passes")
			}
		case opRange:
			short := resp
			short.Neighbors = resp.Neighbors[1:]
			if check(r, short) == nil {
				t.Error("range: a missing neighbor passes")
			}
		default:
			short := resp
			short.RIDs = resp.RIDs[1:]
			if check(r, short) == nil {
				t.Errorf("%s: a missing rid passes", kind)
			}
			extra := resp
			extra.RIDs = append(append([]uint64(nil), resp.RIDs...), uint64(len(d.base)+1))
			if check(r, extra) == nil {
				t.Errorf("%s: a never-inserted rid passes", kind)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the contract file at the repository
// root in step with the tables the program reports from.
//
// UPDATE_BENCHMARK_JSON=1 go test -run BenchmarkJSON rewrites the file from
// the tables instead.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		writeBenchmarkJSON(t)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	match := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better() {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, g, def.name, def.unit, def.better())
			}
			if bounded && (g.Bound == nil || *g.Bound != def.bound || def.bound <= 0 || def.bound > 0.25) {
				t.Errorf("%s: bound in BENCHMARK.json differs from the program's %g, or lies outside (0, 0.25]", def.name, def.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", def.name)
			}
		}
	}
	match("end_to_end", file.EndToEnd, endToEnd, true)
	match("per_layer", file.PerLayer, perLayer, false)
	if file.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
}

func writeBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	file := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		file.EndToEnd = append(file.EndToEnd, metric{d.name, d.unit, d.better(), &bound})
	}
	for _, d := range perLayer {
		file.PerLayer = append(file.PerLayer, metric{d.name, d.unit, d.better(), nil})
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("..", "BENCHMARK.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
