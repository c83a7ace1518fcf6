// Command htree builds, queries and inspects hybrid tree index files on
// disk.
//
//	htree build  -db idx.ht -dim 16 -csv vectors.csv     # rid,v0,v1,...
//	htree build  -db idx.ht -dim 64 -dataset colhist -n 70000
//	htree knn    -db idx.ht -dim 64 -point 0.1,0.2,...  -k 10 -metric L1
//	htree range  -db idx.ht -dim 64 -point ...          -radius 0.3
//	htree box    -db idx.ht -dim 64 -lo 0,0,...  -hi 0.5,0.5,...
//	htree explain -db idx.ht -dim 64 -lo ... -hi ...   # per-level pruning
//	htree stats  -db idx.ht -dim 64
//	htree verify -db idx.ht -dim 64
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/dataset"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "version" || cmd == "-version" || cmd == "--version" {
		commit, goVersion := obs.BuildVersion()
		fmt.Printf("htree %s (%s)\n", commit, goVersion)
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		db       = fs.String("db", "", "index file path (required)")
		dim      = fs.Int("dim", 0, "dimensionality (required)")
		pageSize = fs.Int("page", pagefile.DefaultPageSize, "page size in bytes")
		csvPath  = fs.String("csv", "", "build: CSV file of rid,v0,v1,... rows")
		dsName   = fs.String("dataset", "", "build: synthetic dataset (colhist or fourier)")
		n        = fs.Int("n", 10000, "build: synthetic dataset size")
		bulk     = fs.Bool("bulk", false, "build: bulk load instead of incremental insertion")
		seed     = fs.Int64("seed", 1, "build: synthetic dataset seed")
		point    = fs.String("point", "", "query point, comma separated")
		loStr    = fs.String("lo", "", "box query lower corner")
		hiStr    = fs.String("hi", "", "box query upper corner")
		k        = fs.Int("k", 10, "knn: number of neighbors")
		radius   = fs.Float64("radius", 0.1, "range: query radius")
		metric   = fs.String("metric", "L2", "distance metric: L1, L2, Linf, or Lp:<p>")
		deadline = fs.Duration("deadline", 0, "query: context deadline; an expired query aborts with no results (0 disables)")
		budgetPg = fs.Int("budget-pages", 0, "query: page-read budget; an exhausted query degrades to a partial answer (0 = unlimited)")
		mmap     = fs.Bool("mmap", false, "query: open the index read-only through a memory mapping")
		walOn    = fs.Bool("wal", false, "write ahead through <db>.wal: every build insert is committed and fsynced before it is acknowledged, and reopening replays any tail a crash left behind")
		fsyncEv  = fs.Int("fsync-every", 1, "wal: fsync the log every N commits; above 1 the last N-1 acknowledged commits can be lost to a crash")
		ckptOps  = fs.Int("checkpoint-ops", 0, "wal build: checkpoint (flush pages, truncate the log) every N inserts (0 = only at close)")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *db == "" || *dim == 0 {
		fatal("-db and -dim are required")
	}
	if *walOn && *mmap {
		fatal("-wal and -mmap are incompatible: a memory mapping is read-only and replay must be able to write recovered pages")
	}

	switch cmd {
	case "build":
		build(*db, *dim, *pageSize, *csvPath, *dsName, *n, *seed, *bulk,
			walConfig{on: *walOn, fsyncEvery: *fsyncEv, checkpointOps: *ckptOps})
	case "knn", "range", "box", "explain", "stats", "verify":
		file, err := openRead(*db, *pageSize, *mmap, *walOn, *fsyncEv)
		check(err)
		defer file.Close()
		tree, err := core.Open(file, core.Config{Dim: *dim, PageSize: *pageSize})
		check(err)
		budget := core.Budget{MaxPageReads: *budgetPg}
		switch cmd {
		case "knn":
			runQuery(tree, core.Query{Kind: core.KNN, Point: parsePoint(*point, *dim), K: *k, Metric: parseMetric(*metric), Budget: budget}, *deadline)
		case "range":
			runQuery(tree, core.Query{Kind: core.Range, Point: parsePoint(*point, *dim), Radius: *radius, Metric: parseMetric(*metric), Budget: budget}, *deadline)
		case "box":
			runQuery(tree, core.Query{Kind: core.Box, Rect: parseBox(*loStr, *hiStr, *dim), Budget: budget}, *deadline)
		case "explain":
			runExplain(tree, parseBox(*loStr, *hiStr, *dim))
		case "stats":
			runStats(tree, file)
		case "verify":
			check(tree.CheckInvariants())
			fmt.Printf("ok: %d entries, height %d, invariants hold\n", tree.Size(), tree.Height())
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: htree {build|knn|range|box|explain|stats|verify|version} -db FILE -dim D [flags]")
	os.Exit(2)
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "htree:", msg)
	os.Exit(1)
}

func check(err error) {
	if err != nil {
		fatal(err.Error())
	}
}

// walConfig carries the -wal knobs into build.
type walConfig struct {
	on            bool
	fsyncEvery    int
	checkpointOps int
}

// walPath is where the log lives, next to the index file.
func walPath(db string) string { return db + ".wal" }

// openWAL stacks the write-ahead log over base, replaying any committed
// tail the log holds. Recovery is reported because it is the user-visible
// sign that the last session crashed.
func openWAL(base pagefile.File, db string, fsyncEvery int) (pagefile.File, error) {
	log, err := wal.OpenFileLog(walPath(db))
	if err != nil {
		return nil, err
	}
	f, rec, err := wal.Open(base, log, wal.Options{FsyncEvery: fsyncEvery})
	if err != nil {
		return nil, err
	}
	if rec.Txs > 0 || rec.Discarded > 0 || rec.TornBytes > 0 {
		fmt.Fprintf(os.Stderr, "htree: recovered %s: %d transactions replayed (%d records), %d uncommitted records discarded, %d torn bytes dropped\n",
			walPath(db), rec.Txs, rec.Replayed, rec.Discarded, rec.TornBytes)
	}
	return f, nil
}

// openRead opens an existing index for the read-only query commands: through
// a read-only memory mapping when -mmap is set (the query commands never
// write pages, so MmapFile's ErrReadOnly surface is unreachable), otherwise
// read-write through the ordinary disk file — with the WAL stacked on top
// when -wal is set, so a crashed build's committed tail is replayed before
// the query runs.
func openRead(path string, pageSize int, mmap, walOn bool, fsyncEvery int) (pagefile.File, error) {
	if mmap {
		return pagefile.OpenMmapFile(path, pageSize)
	}
	file, err := pagefile.OpenDiskFile(path, pageSize)
	if err != nil {
		return nil, err
	}
	if walOn {
		return openWAL(file, path, fsyncEvery)
	}
	return file, nil
}

func build(db string, dim, pageSize int, csvPath, dsName string, n int, seed int64, bulk bool, wc walConfig) {
	disk, err := pagefile.CreateDiskFile(db, pageSize)
	check(err)
	var file pagefile.File = disk
	if wc.on {
		file, err = openWAL(disk, db, wc.fsyncEvery)
		check(err)
	}
	defer file.Close()

	start := time.Now()
	count := 0
	var tree *core.Tree
	var bulkPts []geom.Point
	var bulkRids []core.RecordID
	if !bulk {
		tree, err = core.New(file, core.Config{Dim: dim, PageSize: pageSize})
		check(err)
	}
	insert := func(p geom.Point, rid core.RecordID) {
		if bulk {
			bulkPts = append(bulkPts, p)
			bulkRids = append(bulkRids, rid)
		} else {
			check(tree.Insert(p, rid))
			if wc.on && wc.checkpointOps > 0 && (count+1)%wc.checkpointOps == 0 {
				check(tree.Flush())
			}
		}
		count++
	}
	switch {
	case csvPath != "":
		f, err := os.Open(csvPath)
		check(err)
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			parts := strings.Split(text, ",")
			if len(parts) != dim+1 {
				fatal(fmt.Sprintf("line %d: want rid plus %d coords, got %d fields", line, dim, len(parts)))
			}
			rid, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
			check(err)
			p := make(geom.Point, dim)
			for d := 0; d < dim; d++ {
				v, err := strconv.ParseFloat(strings.TrimSpace(parts[d+1]), 32)
				check(err)
				p[d] = float32(v)
			}
			insert(p, core.RecordID(rid))
		}
		check(sc.Err())
	case dsName == "colhist":
		for i, p := range dataset.ColHist(n, dim, seed) {
			insert(p, core.RecordID(i))
		}
	case dsName == "fourier":
		for i, p := range dataset.Fourier(n, dim, seed) {
			insert(p, core.RecordID(i))
		}
	default:
		fatal("build needs -csv or -dataset {colhist|fourier}")
	}
	if bulk {
		tree, err = core.BulkLoad(file, core.Config{Dim: dim, PageSize: pageSize}, bulkPts, bulkRids)
		check(err)
	}
	check(tree.Close())
	if wc.on {
		// Final checkpoint: flush every recovered-overlay page into the
		// index file and truncate the log, so the index stands alone.
		check(tree.Flush())
	}
	fmt.Printf("built %s: %d entries, height %d, %d pages, %v\n",
		db, count, tree.Height(), disk.NumPages(), time.Since(start).Round(time.Millisecond))
}

func parsePoint(s string, dim int) geom.Point {
	if s == "" {
		fatal("missing point (use -point/-lo/-hi v0,v1,...)")
	}
	parts := strings.Split(s, ",")
	if len(parts) != dim {
		fatal(fmt.Sprintf("point has %d coords, index dim is %d", len(parts), dim))
	}
	p := make(geom.Point, dim)
	for d, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 32)
		check(err)
		p[d] = float32(v)
	}
	return p
}

// parseBox takes the corners as typed: whether they form a box is the
// query's validation to say (core.ErrBadQuery), not a panic's.
func parseBox(lo, hi string, dim int) geom.Rect {
	return geom.Rect{Lo: parsePoint(lo, dim), Hi: parsePoint(hi, dim)}
}

func parseMetric(s string) dist.Metric {
	switch strings.ToUpper(s) {
	case "L1":
		return dist.L1()
	case "L2":
		return dist.L2()
	case "LINF":
		return dist.Linf()
	}
	if strings.HasPrefix(strings.ToUpper(s), "LP:") {
		p, err := strconv.ParseFloat(s[3:], 64)
		check(err)
		return dist.LpMetric{P: p}
	}
	fatal("unknown metric " + s)
	return nil
}

// runQuery answers q within deadline (0 = none) and prints the results in
// the kind's format. A budget-exhausted query prints a degraded-answer note
// and keeps its partial results; any other error is fatal.
func runQuery(tree *core.Tree, q core.Query, deadline time.Duration) {
	stats := tree.File().Stats()
	stats.Reset()
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	start := time.Now()
	ns, err := tree.Search(ctx, nil, q, nil)
	var be *core.ErrBudgetExceeded
	if errors.As(err, &be) {
		fmt.Printf("degraded: %v\n", be)
	} else {
		check(err)
	}
	for i, nb := range ns {
		switch q.Kind {
		case core.KNN:
			fmt.Printf("%2d. rid=%d dist=%.6f\n", i+1, nb.RID, nb.Dist)
		case core.Range:
			fmt.Printf("rid=%d dist=%.6f\n", nb.RID, nb.Dist)
		default:
			fmt.Printf("rid=%d\n", nb.RID)
		}
	}
	took := time.Since(start).Round(time.Microsecond)
	if q.Kind == core.KNN {
		fmt.Printf("(%d page reads, %v)\n", stats.Reads(), took)
	} else {
		fmt.Printf("(%d results, %d page reads, %v)\n", len(ns), stats.Reads(), took)
	}
}

func runExplain(tree *core.Tree, box geom.Rect) {
	_, ex, err := tree.ExplainBox(box)
	check(err)
	fmt.Print(ex.String())
}

func runStats(tree *core.Tree, file pagefile.File) {
	st, err := tree.Stats()
	check(err)
	fmt.Printf("entries:          %d\n", st.Entries)
	fmt.Printf("height:           %d\n", st.Height)
	fmt.Printf("data nodes:       %d\n", st.DataNodes)
	fmt.Printf("index nodes:      %d\n", st.IndexNodes)
	fmt.Printf("pages:            %d\n", file.NumPages())
	fmt.Printf("avg fanout:       %.1f (max %d)\n", st.AvgFanout, st.MaxFanout)
	fmt.Printf("avg data fill:    %.1f%% (min %.1f%%)\n", st.AvgDataFill*100, st.MinDataFill*100)
	fmt.Printf("overlapping kd:   %.1f%% of internal records\n", st.OverlapFraction*100)
	fmt.Printf("split dims used:  %d\n", st.SplitDimsUsed)
	fmt.Printf("ELS side table:   %d bytes\n", st.ELSBytes)
}
