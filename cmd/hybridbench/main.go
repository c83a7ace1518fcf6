// Command hybridbench regenerates the tables and figures of "The Hybrid
// Tree: An Index Structure for High Dimensional Feature Spaces" (ICDE
// 1999). Each experiment builds the hybrid tree and its competitors over
// synthetic FOURIER/COLHIST datasets, runs the paper's constant-selectivity
// query workloads, and prints the figure as an aligned series table.
//
// Usage:
//
//	hybridbench -fig 6cd              # one figure at the default scale
//	hybridbench -all -paper           # everything at the paper's full scale
//	hybridbench -table 1 -colhist 20000
//
// It is also the CLI of the same-run performance invariants: feed it `go
// test -bench` output and it emits a schema-versioned JSON snapshot and
// applies internal/perf's rule table (tracer-overhead ratio, zero-alloc
// ceilings) to it, exiting 1 on a gate. Anything timed across commits is
// benchmark/run.sh's job (DESIGN.md §12). README §Measuring performance has
// the go test lines CI feeds it:
//
//	hybridbench -bench-input bench_raw.txt -json BENCH_9.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hybridtree/internal/bench"
	"hybridtree/internal/core"
	"hybridtree/internal/obs"
	"hybridtree/internal/perf"
	"hybridtree/internal/wal"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to reproduce: 5ab, 5c, 6ab, 6cd, 7ab, 7cd")
		table    = flag.Int("table", 0, "table to reproduce: 1 or 2 (3: per-method obs counters, not from the paper)")
		ablation = flag.String("ablation", "", "ablation to run: pos, queryside, bulk, elsmem, mmap")
		all      = flag.Bool("all", false, "run every figure, table and ablation")
		paper    = flag.Bool("paper", false, "use the paper's full scale (FOURIER 400K, COLHIST 70K, 100 queries)")
		fourierN = flag.Int("fourier", 0, "FOURIER dataset size (overrides scale preset)")
		colhistN = flag.Int("colhist", 0, "COLHIST dataset size (overrides scale preset)")
		queries  = flag.Int("queries", 0, "queries per measurement point")
		pageSize = flag.Int("page", 0, "page size in bytes (default 4096, as in the paper)")
		seed     = flag.Int64("seed", 0, "random seed (default 1)")
		quiet    = flag.Bool("quiet", false, "suppress progress lines")
		version  = flag.Bool("version", false, "print the build version and exit")

		benchIn = flag.String("bench-input", "", "parse `go test -bench` output from this file (- for stdin), check the same-run perf rules (exit 1 on a gate), and exit")
		jsonOut = flag.String("json", "", "with -bench-input: write the benchmark snapshot to this path")

		obsAddr    = flag.String("obs", "", "serve the introspection endpoint on this address (e.g. localhost:6060) for the duration of the run")
		obsHold    = flag.Duration("obs-hold", 0, "keep the process (and the -obs endpoint) alive this long after the run finishes; -1s means forever")
		slowK      = flag.Int("slow-k", 16, "with -obs: retain this many slowest query traces in the flight recorder")
		slowThresh = flag.Duration("slow-threshold", 0, "with -obs: admit only traces at least this slow (0 = consider every trace)")
	)
	flag.Parse()

	if *version {
		commit, goVersion := obs.BuildVersion()
		fmt.Printf("hybridbench %s (%s)\n", commit, goVersion)
		return
	}
	if *benchIn != "" {
		if err := runPerfPipeline(*benchIn, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "hybridbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *obsAddr != "" {
		ring := obs.NewRing(256)
		slow := obs.NewSlowRecorder(*slowK, *slowThresh)
		core.SetDefaultTracer(obs.Tee(ring, slow))
		obs.RegisterBuildInfo(obs.Default())
		wal.RegisterMetrics()
		sampler := obs.StartRuntimeSampler(obs.Default(), 0)
		srv, addr, err := obs.Serve(*obsAddr, obs.Default(), ring, slow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybridbench: obs endpoint: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			sampler.Stop()
			obs.Shutdown(srv, 5*time.Second)
		}()
		fmt.Fprintf(os.Stderr, "hybridbench: metrics at http://%s/metrics, slow queries at http://%s/debug/slow\n", addr, addr)
		defer func() {
			sampler.Sample()
			dumpObs(os.Stderr, "hybridbench", slow)
			if *obsHold != 0 {
				if *obsHold < 0 {
					fmt.Fprintf(os.Stderr, "hybridbench: holding obs endpoint open; ^C to exit\n")
					select {}
				}
				fmt.Fprintf(os.Stderr, "hybridbench: holding obs endpoint open for %v\n", *obsHold)
				time.Sleep(*obsHold)
			}
		}()
	}

	opts := bench.Defaults()
	if *paper {
		opts = bench.Paper()
	}
	if *fourierN > 0 {
		opts.FourierN = *fourierN
	}
	if *colhistN > 0 {
		opts.ColHistN = *colhistN
	}
	if *queries > 0 {
		opts.Queries = *queries
	}
	if *pageSize > 0 {
		opts.PageSize = *pageSize
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if !*quiet {
		opts.Out = os.Stderr
	}

	if !*all && *fig == "" && *table == 0 && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}

	run := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybridbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if *all || *fig == "5ab" {
		a, b, err := bench.Fig5ab(opts)
		run("fig5ab", err)
		a.Print(os.Stdout)
		b.Print(os.Stdout)
	}
	if *all || *fig == "5c" {
		f, err := bench.Fig5c(opts)
		run("fig5c", err)
		f.Print(os.Stdout)
	}
	if *all || *fig == "6ab" {
		io, cpu, err := bench.Fig6(opts, "FOURIER")
		run("fig6ab", err)
		io.Print(os.Stdout)
		cpu.Print(os.Stdout)
	}
	if *all || *fig == "6cd" {
		io, cpu, err := bench.Fig6(opts, "COLHIST")
		run("fig6cd", err)
		io.Print(os.Stdout)
		cpu.Print(os.Stdout)
	}
	if *all || *fig == "7ab" {
		io, cpu, err := bench.Fig7ab(opts)
		run("fig7ab", err)
		io.Print(os.Stdout)
		cpu.Print(os.Stdout)
	}
	if *all || *fig == "7cd" {
		io, cpu, err := bench.Fig7cd(opts)
		run("fig7cd", err)
		io.Print(os.Stdout)
		cpu.Print(os.Stdout)
	}
	if *all || *table == 1 {
		t, err := bench.Table1(opts)
		run("table1", err)
		t.Print(os.Stdout)
	}
	if *all || *table == 2 {
		t, err := bench.Table2(opts)
		run("table2", err)
		t.Print(os.Stdout)
	}
	if *all || *table == 3 {
		t, err := bench.TableObs(opts)
		run("table3", err)
		t.Print(os.Stdout)
	}
	if *all || *ablation == "pos" {
		f, err := bench.AblationSplitPosition(opts)
		run("ablation pos", err)
		f.Print(os.Stdout)
	}
	if *all || *ablation == "queryside" {
		f, err := bench.AblationQuerySide(opts)
		run("ablation queryside", err)
		f.Print(os.Stdout)
	}
	if *all || *ablation == "bulk" {
		t, err := bench.AblationBulkLoad(opts)
		run("ablation bulk", err)
		t.Print(os.Stdout)
	}
	if *all || *ablation == "elsmem" {
		t, err := bench.AblationELSMemory(opts)
		run("ablation elsmem", err)
		t.Print(os.Stdout)
	}
	if *all || *ablation == "mmap" {
		t, err := bench.AblationMmap(opts)
		run("ablation mmap", err)
		t.Print(os.Stdout)
	}
}

// runPerfPipeline turns `go test -bench` output into a snapshot artifact and
// a pass/fail verdict from the same-run rules (tracer overhead, zero-alloc
// ceilings); a rule whose benchmark is absent from the input gates.
func runPerfPipeline(input, jsonOut string) error {
	var r io.Reader = os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	benches, err := perf.ParseGoBench(r)
	if err != nil {
		return err
	}
	snap := perf.NewSnapshot(benches)
	if err := snap.Validate(); err != nil {
		return err
	}
	if jsonOut != "" {
		if err := snap.WriteFile(jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hybridbench: wrote %d benchmark(s) to %s\n", len(snap.Benchmarks), jsonOut)
	}
	rep := perf.Compare(snap, perf.DefaultRules())
	rep.Write(os.Stdout)
	if rep.Failed() {
		return fmt.Errorf("performance gate: %d gated finding(s)", len(rep.Gates()))
	}
	fmt.Fprintf(os.Stderr, "hybridbench: performance gates passed (%d findings, 0 gates)\n", len(rep.Findings))
	return nil
}

// dumpObs prints the end-of-run observability summary: WAL and pagefile
// durability counters, runtime self-telemetry, and the flight recorder's
// slowest traces with per-stage attribution.
func dumpObs(w io.Writer, prog string, slow *obs.SlowRecorder) {
	fmt.Fprintf(w, "\n%s: --- metrics (wal_*, pagefile_*, go_*) ---\n", prog)
	obs.Default().DumpText(w, "wal_", "pagefile_", "go_")
	snap := slow.Snapshot()
	fmt.Fprintf(w, "%s: --- flight recorder: %d slowest of %d observed queries ---\n", prog, len(snap), slow.Observed())
	for _, tr := range snap {
		fmt.Fprintln(w, tr.String())
	}
}
