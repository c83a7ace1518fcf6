// Command simulate runs the deterministic workload simulator: a seeded
// trace of inserts, deletes and queries driven through every access
// method, differentially checked against a sequential-scan oracle, with
// probabilistic storage faults injected under the hybrid tree. On
// divergence it prints a minimized reproducer (seed + op index) and exits
// nonzero. With -repeat N it runs the workload N times and requires
// bit-identical digests, proving the whole pipeline is deterministic.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/sim"
	"hybridtree/internal/wal"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "trace seed")
		ops        = flag.Int("ops", 10000, "operations per run")
		dim        = flag.Int("dim", 4, "dimensionality")
		page       = flag.Int("page", 512, "page size in bytes")
		indexes    = flag.String("indexes", strings.Join(sim.AllIndexes, ","), "comma-separated access methods")
		faults     = flag.String("faults", "light", "fault profile: off, light, heavy")
		faultSeed  = flag.Int64("fault-seed", 0, "fault schedule seed (default seed+1)")
		checkEvery = flag.Int("check-every", 1000, "full differential check interval")
		repeat     = flag.Int("repeat", 1, "runs; digests must match across all of them")
		deadline   = flag.Duration("deadline", 0, "per-query context deadline (0 disables)")
		budgetPgs  = flag.Int("budget-pages", 0, "per-query page-read budget; exhausted queries degrade to a verified partial answer (0 = unlimited)")
		retry      = flag.Bool("retry", false, "layer the retry/breaker read path under the hybrid tree and periodically drop caches so queries recover injected faults in-path")
		maxLeaked  = flag.Int("max-leaked", -1, "fail if any index leaks more than this many pages after the final flush (-1 disables; CI passes 0)")
		verbose    = flag.Bool("v", false, "per-index reports")
		version    = flag.Bool("version", false, "print the build version and exit")
		obsAddr    = flag.String("obs", "", "serve the introspection endpoint on this address (e.g. localhost:6060) for the duration of the run")
		slowK      = flag.Int("slow-k", 16, "with -obs: retain this many slowest query traces in the flight recorder")
		slowThresh = flag.Duration("slow-threshold", 0, "with -obs: admit only traces at least this slow (0 = consider every trace)")

		crash      = flag.Bool("crash", false, "run the WAL kill/reopen differential loop instead of the multi-index run")
		kills      = flag.Int("kills", 200, "crash mode: number of kill points")
		meanSeg    = flag.Int("mean-segment", 8, "crash mode: average ops between kills")
		ckptOps    = flag.Int("checkpoint-ops", 40, "crash mode: checkpoint every N acked mutations with faults live (0 = only post-kill)")
		fsyncEvery = flag.Int("fsync-every", 1, "crash mode: group-commit width; >1 weakens acked=>durable and will diverge")
		killSeed   = flag.Int64("kill-seed", 0, "crash mode: kill schedule seed (default seed+2)")
	)
	flag.Parse()

	if *version {
		commit, goVersion := obs.BuildVersion()
		fmt.Printf("simulate %s (%s)\n", commit, goVersion)
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
			fmt.Fprintf(os.Stderr, "simulate: obs endpoint: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			sampler.Stop()
			obs.Shutdown(srv, 5*time.Second)
		}()
		fmt.Fprintf(os.Stderr, "simulate: metrics at http://%s/metrics, slow queries at http://%s/debug/slow\n", addr, addr)
		defer func() {
			sampler.Sample()
			fmt.Fprintf(os.Stderr, "\nsimulate: --- metrics (wal_*, pagefile_*, go_*) ---\n")
			obs.Default().DumpText(os.Stderr, "wal_", "pagefile_", "go_")
			snap := slow.Snapshot()
			fmt.Fprintf(os.Stderr, "simulate: --- flight recorder: %d slowest of %d observed queries ---\n", len(snap), slow.Observed())
			for _, tr := range snap {
				fmt.Fprintln(os.Stderr, tr.String())
			}
		}()
	}

	profile, ok := pagefile.ChaosProfiles[*faults]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown fault profile %q (want off, light, heavy)\n", *faults)
		os.Exit(2)
	}
	if *crash {
		runCrash(sim.CrashConfig{
			Trace:         sim.TraceConfig{Seed: *seed, Ops: *ops, Dim: *dim},
			PageSize:      *page,
			Kills:         *kills,
			MeanSegment:   *meanSeg,
			CheckpointOps: *ckptOps,
			FsyncEvery:    *fsyncEvery,
			Faults:        crashFaults(profile),
			FaultSeed:     *faultSeed,
			KillSeed:      *killSeed,
			MaxLeaked:     max(*maxLeaked, 0),
		}, *repeat, *verbose)
		return
	}
	cfg := sim.Config{
		Trace:      sim.TraceConfig{Seed: *seed, Ops: *ops, Dim: *dim},
		PageSize:   *page,
		Indexes:    strings.Split(*indexes, ","),
		Faults:     profile,
		FaultSeed:  *faultSeed,
		CheckEvery: *checkEvery,
		Lifecycle:  sim.LifecycleConfig{Deadline: *deadline, BudgetPages: *budgetPgs, Retry: *retry},
	}

	var digest uint64
	for run := 0; run < *repeat; run++ {
		rep, err := sim.Run(cfg)
		if err != nil {
			fail(cfg, err)
		}
		for _, ir := range rep.Indexes {
			if *maxLeaked >= 0 && ir.LeakedPages > *maxLeaked {
				fmt.Fprintf(os.Stderr, "LEAK: %s leaked %d pages after the final flush (max %d)\n",
					ir.Name, ir.LeakedPages, *maxLeaked)
				os.Exit(1)
			}
		}
		if run == 0 {
			digest = rep.Digest
			if *verbose {
				for _, ir := range rep.Indexes {
					fmt.Printf("%-7s ops=%d size=%d pages=%d mut-errs=%d unsupported=%d leaked=%d faults=%d digest=%016x\n",
						ir.Name, ir.Ops, ir.FinalSize, ir.NumPages, ir.MutationErrors,
						ir.Unsupported, ir.LeakedPages, ir.ChaosCounts.Total(), ir.Digest)
					fmt.Printf("        outcomes: ok=%d cancelled=%d timeout=%d shed=%d degraded=%d error=%d\n",
						ir.Outcomes[obs.OutcomeOK], ir.Outcomes[obs.OutcomeCancelled],
						ir.Outcomes[obs.OutcomeTimeout], ir.Outcomes[obs.OutcomeShed],
						ir.Outcomes[obs.OutcomeDegraded], ir.Outcomes[obs.OutcomeError])
				}
			}
		} else if rep.Digest != digest {
			fmt.Fprintf(os.Stderr, "NONDETERMINISM: run %d digest %016x != run 0 digest %016x (seed %d)\n",
				run, rep.Digest, digest, *seed)
			os.Exit(1)
		}
	}
	fmt.Printf("ok: %d run(s) x %d ops over [%s], faults=%s, digest=%016x\n",
		*repeat, *ops, *indexes, *faults, digest)
}

// crashFaults adapts a named profile for the crash loop: failed fsyncs
// join the diet (the WAL claims to survive them), lying fsyncs never do
// (no log can — RunCrash rejects such profiles outright).
func crashFaults(p pagefile.ChaosProfile) pagefile.ChaosProfile {
	if !p.Zero() {
		p.SyncErr = 0.05
	}
	p.SyncLost = 0
	return p
}

// runCrash drives the kill/reopen loop, optionally -repeat times with
// digests required to match, and exits nonzero on divergence.
func runCrash(cfg sim.CrashConfig, repeat int, verbose bool) {
	var digest uint64
	for run := 0; run < repeat; run++ {
		rep, err := sim.RunCrash(cfg)
		if err != nil {
			var d *sim.Divergence
			if errors.As(err, &d) {
				fmt.Fprintf(os.Stderr, "DIVERGENCE: %v\n", d)
				fmt.Fprintf(os.Stderr, "replay: go run ./cmd/simulate -crash -seed %d -kills %d -fault-seed %d -kill-seed %d\n",
					cfg.Trace.Seed, cfg.Kills, cfg.FaultSeed, cfg.KillSeed)
			} else {
				fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
			}
			os.Exit(1)
		}
		if run == 0 {
			digest = rep.Digest
			if verbose {
				fmt.Printf("crash: kills=%d ops=%d acked=%d rejected=%d txs-replayed=%d records=%d discarded=%d torn-bytes=%d ckpt-failed=%d/%d size=%d digest=%016x\n",
					rep.Kills, rep.Ops, rep.Acked, rep.Rejected, rep.TxsReplayed,
					rep.RecordsReplayed, rep.RecordsDiscarded, rep.TornBytes,
					rep.CheckpointFailures, rep.Checkpoints, rep.FinalSize, rep.Digest)
			}
		} else if rep.Digest != digest {
			fmt.Fprintf(os.Stderr, "NONDETERMINISM: crash run %d digest %016x != run 0 digest %016x (seed %d)\n",
				run, rep.Digest, digest, cfg.Trace.Seed)
			os.Exit(1)
		}
	}
	fmt.Printf("ok: crash loop, %d run(s) x %d kills, digest=%016x\n", repeat, cfg.Kills, digest)
}

// fail reports a divergence with a minimized reproducer and exits 1.
func fail(cfg sim.Config, err error) {
	var d *sim.Divergence
	if !errors.As(err, &d) {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "DIVERGENCE: %v\n", d)
	trace := sim.GenTrace(cfg.Trace)
	if d.OpIndex+1 <= len(trace) {
		min := sim.Minimize(cfg, d.Index, trace[:d.OpIndex+1], 60)
		fmt.Fprintf(os.Stderr, "minimized to %d ops (from %d); failing op: %+v\n",
			len(min), d.OpIndex+1, d.Op)
		fmt.Fprintf(os.Stderr, "replay: go run ./cmd/simulate -seed %d -ops %d -indexes %s -fault-seed %d\n",
			d.Seed, d.OpIndex+1, d.Index, cfg.FaultSeed)
	}
	os.Exit(1)
}
