// Command benchmark is the repository's end-to-end yardstick: it builds an
// index, drives the storage and serving stack cmd/htreed wires (and, for
// one workload, the plain `htree knn` path) with five workloads, checks the
// answers against a brute-force oracle, and prints every end-to-end and
// per-layer metric by name with its unit. See README.md.
//
//	bash benchmark/run.sh                                  # all workloads, both passes
//	bash benchmark/run.sh --workload knn64-serve --seed 3 --seconds 10 --trace 0
//	bash benchmark/run.sh -runs 5 -out setA.json
//	bash benchmark/run.sh -compare setA.json setB.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"hybridtree/internal/perf"
)

// report is what -out writes and -compare reads: the run fingerprint and
// every workload run of the invocation.
type report struct {
	Schema    int      `json:"schema"`
	Env       perf.Env `json:"env"`
	FSType    string   `json:"fs_type"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Clients   int      `json:"clients"`
	Quick     bool     `json:"quick"`
	Vectors   int      `json:"vectors"`
	Dim       int      `json:"dim"`
	Setups    int      `json:"setups"`
	ReplayOps int      `json:"replay_ops"`
	Runs      []result `json:"runs"`
}

// line is the result line of the driver contract: the last line of
// standard output of a single-workload run.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadSpec = fs.String("workload", "all", "workload name[,name...] or all")
		seed         = fs.Int64("seed", 1, "seed of dataset, query anchors and schedules")
		seconds      = fs.Float64("seconds", 10, "length of the measured pass")
		trace        = fs.String("trace", "both", "0: end-to-end metrics only; 1: per-layer metrics only (one set-up); both")
		quick        = fs.Bool("quick", false, "small dataset, short passes: proves the harness, measures nothing")
		runs         = fs.Int("runs", 1, "repeat every workload this many times, on seeds seed, seed+1, ...")
		dir          = fs.String("dir", ".bench_build", "scratch directory (created; each run's files are removed)")
		out          = fs.String("out", "", "write the full report (fingerprint, every run, segment spreads) as JSON")
		traceOut     = fs.String("trace-out", "", "span file of the traced pass, JSON lines (default <dir>/spans-<workload>.jsonl)")
		compare      = fs.Bool("compare", false, "compare two -out reports: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	ws, err := findWorkloads(*workloadSpec)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	cfg := config{
		sz: fullSizes, dur: time.Duration(*seconds * float64(time.Second)),
		setups: 3, replayOps: 1000, warmDiv: 1,
		trace: *trace != "0", workDir: *dir, progress: stderr,
	}
	if *trace == "1" {
		cfg.setups = 1 // setup_s is not reported; spend the time on the replays
	}
	if *quick {
		cfg.sz, cfg.setups, cfg.replayOps, cfg.warmDiv = quickSizes, 1, 100, 10
		if !isSet(fs, "seconds") {
			cfg.dur = 500 * time.Millisecond
		}
	}
	rep := report{
		Schema: 1, Env: perf.CaptureEnv(), FSType: fsType(*dir), Seed: *seed, Seconds: cfg.dur.Seconds(),
		Clients: servingClients, Quick: *quick, Vectors: cfg.sz.n, Dim: dim, Setups: cfg.setups, ReplayOps: cfg.replayOps,
	}
	fmt.Fprintf(stderr, "benchmark: commit %s, %s, %d CPUs (GOMAXPROCS %d), %s on %s; seed %d, %d clients, %.1fs measured\n",
		rep.Env.Commit, rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.CPUModel, rep.FSType,
		*seed, servingClients, cfg.dur.Seconds())

	exit := 0
	for r := 0; r < *runs; r++ {
		cfg.seed = *seed + int64(r)
		for _, w := range ws {
			cfg.traceOut = *traceOut
			if cfg.traceOut == "" && cfg.trace {
				cfg.traceOut = filepath.Join(*dir, "spans-"+w.name+".jsonl")
			}
			res, err := runWorkload(cfg, w)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			rep.Runs = append(rep.Runs, *res)
			printResult(stdout, res, *trace)
			if !res.Correct {
				fmt.Fprintf(stderr, "benchmark: %s: INCORRECT: %d of %d failed: %s\n", w.name, res.Failed, res.Attempted, res.Failure)
				exit = 1
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return exit
}

func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// printResult prints a run: a table of every metric by name with its unit
// and in-run spread, then the contract's one-line JSON object last. With
// -trace 0 the line carries the end-to-end metrics, with -trace 1 the
// per-layer metrics, with both it carries both sets.
func printResult(w io.Writer, res *result, trace string) {
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineValue{}}
	fmt.Fprintf(w, "== %s seed %d: attempted %d, failed %d\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	table := func(defs []metricDef, vs values) {
		vs.complete(defs)
		for _, d := range defs {
			v := vs[d.name]
			l.Metrics[d.name] = lineValue{v.Value, v.Unit}
			spread := ""
			if v.Min != 0 || v.Max != 0 {
				spread = fmt.Sprintf("  [%.6g .. %.6g]", v.Min, v.Max)
			}
			if v.Samples > 0 {
				spread += fmt.Sprintf("  n=%d", v.Samples)
			}
			fmt.Fprintf(w, "%-28s %14.6g %-6s%s\n", d.name, v.Value, v.Unit, spread)
		}
	}
	if trace != "1" {
		table(endToEnd, res.EndToEnd)
	}
	if trace != "0" {
		table(perLayer, res.PerLayer)
	}
	data, _ := json.Marshal(l) // a struct of numbers, strings and bools cannot fail to marshal
	fmt.Fprintf(w, "%s\n", data)
}

// fsType names the filesystem holding dir: fsync cost, and so every write
// metric, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
