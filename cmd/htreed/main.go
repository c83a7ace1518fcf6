// Command htreed serves a hybrid tree index over HTTP: budgeted box /
// range / k-NN queries (and, with -writes, group-committed inserts and
// deletes) through admission control, with per-request deadlines and page
// budgets taken from headers, the obs introspection surface on the same
// port, and a SIGTERM graceful drain that finishes in-flight requests,
// checkpoints the tree and closes the WAL before exiting.
//
//	htree  build -db idx.ht -dim 16 -dataset colhist -n 100000
//	htreed -db idx.ht -dim 16 -addr :8080 -wal -writes
//
//	curl -s localhost:8080/v1/knn -H 'X-Deadline-Ms: 50' -H 'X-Budget-Pages: 64' \
//	     -d '{"point":[0.1,...], "k":5}'
//
// The -chaos flag (off|light|heavy) injects seeded storage faults under
// the tree — the load-storm harness in CI runs `htreed -chaos heavy` past
// capacity and asserts shed-not-crash. Only announced fault modes are
// injected (read/write/alloc/free/sync errors): the silent modes need the
// checksummed page format the on-disk index does not use, so injecting
// them would manufacture undetectable corruption no server could survive.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/server"
	"hybridtree/internal/wal"
)

func main() {
	var (
		db         = flag.String("db", "", "index file path (required; build it with htree build)")
		dim        = flag.Int("dim", 0, "dimensionality (required)")
		pageSize   = flag.Int("page", pagefile.DefaultPageSize, "page size in bytes")
		addr       = flag.String("addr", ":8080", "listen address")
		writes     = flag.Bool("writes", false, "serve /v1/insert and /v1/delete (group-committed; requires -wal)")
		walOn      = flag.Bool("wal", false, "write ahead through <db>.wal; commits fsync before acknowledgment and reopen replays any crashed tail")
		fsyncEv    = flag.Int("fsync-every", 1, "wal: fsync the log every N commits")
		mmap       = flag.Bool("mmap", false, "serve read-only through a memory mapping (incompatible with -writes/-wal/-chaos)")
		workers    = flag.Int("workers", 0, "query workers (default GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 0, "admission queue depth (default 2x workers); a full queue sheds with 503")
		writeSlots = flag.Int("write-slots", 64, "concurrent write admission slots; excess writes shed with 503")
		maxConns   = flag.Int("max-conns", 1024, "max concurrently accepted connections (0 = unlimited)")
		maxBody    = flag.Int64("max-body", 1<<20, "max request body bytes (413 above)")
		maxDl      = flag.Duration("max-deadline", 30*time.Second, "cap on client X-Deadline-Ms, also applied when the header is absent (0 = uncapped)")
		defBudget  = flag.Int("default-budget-pages", 0, "page budget applied when X-Budget-Pages is absent (0 = unlimited)")
		maxBudget  = flag.Int("max-budget-pages", 0, "cap on client X-Budget-Pages (0 = uncapped)")
		readTO     = flag.Duration("read-timeout", 30*time.Second, "connection read timeout")
		writeTO    = flag.Duration("write-timeout", 30*time.Second, "connection write timeout")
		idleTO     = flag.Duration("idle-timeout", 60*time.Second, "keep-alive idle timeout")
		drainTO    = flag.Duration("drain-timeout", 15*time.Second, "SIGTERM: bound on draining in-flight requests before force-close")
		chaos      = flag.String("chaos", "off", "inject seeded storage faults under the tree: off, light, heavy (testing)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "fault schedule seed")
		slowK      = flag.Int("slow-k", 16, "slowest query traces retained at /debug/slow")
		slowThresh = flag.Duration("slow-threshold", 0, "admit only traces at least this slow (0 = all)")
		version    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		commit, goVersion := obs.BuildVersion()
		fmt.Printf("htreed %s (%s)\n", commit, goVersion)
		return
	}
	if *db == "" || *dim <= 0 {
		fatal("-db and -dim are required")
	}
	profile, ok := pagefile.ChaosProfiles[*chaos]
	if !ok {
		fatal(fmt.Sprintf("unknown -chaos profile %q (want off, light, heavy)", *chaos))
	}
	if *mmap && (*writes || *walOn || !profile.Zero()) {
		fatal("-mmap is read-only and incompatible with -writes, -wal and -chaos")
	}
	if *writes && !*walOn {
		fatal("-writes requires -wal: without a log, a crash loses acknowledged writes")
	}

	// Storage stack, innermost out: disk (or mmap), chaos, retry/breaker,
	// WAL. The WAL sits outermost so its log records capture post-retry
	// reality and its replay goes through the same fault-recovery path.
	var file pagefile.File
	var chaosFile *pagefile.ChaosFile
	if *mmap {
		mf, err := pagefile.OpenMmapFile(*db, *pageSize)
		check(err)
		file = mf
	} else {
		disk, err := pagefile.OpenDiskFile(*db, *pageSize)
		check(err)
		file = disk
		if !profile.Zero() {
			chaosFile = pagefile.NewChaosFile(file, scrubSilent(profile), *chaosSeed)
			file = chaosFile
			fmt.Fprintf(os.Stderr, "htreed: chaos profile %s live (seed %d, announced fault modes only)\n", *chaos, *chaosSeed)
		}
		file = pagefile.NewRetryFile(file, pagefile.RetryPolicy{
			MaxAttempts: 3,
			Backoff:     200 * time.Microsecond,
			MaxBackoff:  5 * time.Millisecond,
			Jitter:      true,
			TripAfter:   16,
			ProbeAfter:  50 * time.Millisecond,
		})
		if *walOn {
			log, err := wal.OpenFileLog(*db + ".wal")
			check(err)
			wf, rec, err := wal.Open(file, log, wal.Options{FsyncEvery: *fsyncEv})
			check(err)
			if rec.Txs > 0 || rec.Discarded > 0 || rec.TornBytes > 0 {
				fmt.Fprintf(os.Stderr, "htreed: recovered %s.wal: %d transactions replayed (%d records), %d uncommitted records discarded, %d torn bytes dropped\n",
					*db, rec.Txs, rec.Replayed, rec.Discarded, rec.TornBytes)
			}
			file = wf
		}
	}

	tree, err := concurrent.Open(file, core.Config{Dim: *dim, PageSize: *pageSize})
	check(err)

	// Observability: trace sinks, build info, WAL + runtime telemetry.
	ring := obs.NewRing(256)
	slow := obs.NewSlowRecorder(*slowK, *slowThresh)
	core.SetDefaultTracer(obs.Tee(ring, slow))
	obs.RegisterBuildInfo(obs.Default())
	wal.RegisterMetrics()
	sampler := obs.StartRuntimeSampler(obs.Default(), 0)
	defer sampler.Stop()

	srv := server.New(tree, server.Config{
		Dim:                *dim,
		EnableWrites:       *writes,
		MaxBodyBytes:       *maxBody,
		MaxConns:           *maxConns,
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		WriteSlots:         *writeSlots,
		MaxDeadline:        *maxDl,
		DefaultBudgetPages: *defBudget,
		MaxBudgetPages:     *maxBudget,
		ReadTimeout:        *readTO,
		WriteTimeout:       *writeTO,
		IdleTimeout:        *idleTO,
		Ring:               ring,
		Slow:               slow,
	})

	ln, err := net.Listen("tcp", *addr)
	check(err)
	fmt.Fprintf(os.Stderr, "htreed: serving %s (dim %d, %d entries) on http://%s writes=%v wal=%v\n",
		*db, *dim, tree.Size(), ln.Addr(), *writes, *walOn)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errCh:
		// The listener died without a drain: a real failure.
		fatal(fmt.Sprintf("serve: %v", err))
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "htreed: %v: draining (readiness down, bound %v)\n", sig, *drainTO)
	}

	// Graceful drain: stop accepting, finish in-flight within the bound,
	// drain the executor and group committer, then checkpoint and close.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "htreed: drain overran its bound, connections force-closed: %v\n", err)
	}
	if e := <-errCh; e != nil && e != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "htreed: serve: %v\n", e)
	}
	if chaosFile != nil {
		// The storm is over: the final checkpoint runs against the real
		// device, not the fault injector.
		chaosFile.SetEnabled(false)
	}
	if !*mmap {
		if err := tree.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "htreed: final checkpoint failed: %v\n", err)
			_ = tree.Close()
			_ = file.Close()
			os.Exit(1)
		}
	}
	leaked := tree.LeakedPages()
	check(tree.Close())
	check(file.Close())
	if leaked != 0 {
		fmt.Fprintf(os.Stderr, "htreed: drained with %d leaked pages\n", leaked)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "htreed: drained cleanly: checkpoint ok, leaked_pages=0\n")
}

// scrubSilent keeps only the announced fault modes of a chaos profile: the
// plain on-disk page format has no checksums, so silent modes (bit flips,
// torn/short writes reported as success, lying fsyncs) would be
// manufactured undetectable corruption rather than survivable faults.
func scrubSilent(p pagefile.ChaosProfile) pagefile.ChaosProfile {
	p.ReadCorrupt = 0
	p.WriteTorn = 0
	p.WriteShort = 0
	p.SyncLost = 0
	if p.SyncErr == 0 {
		p.SyncErr = 0.05 // announced fsync failures join the diet
	}
	return p
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "htreed:", msg)
	os.Exit(1)
}

func check(err error) {
	if err != nil {
		fatal(err.Error())
	}
}
