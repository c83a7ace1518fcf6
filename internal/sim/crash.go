package sim

import (
	"context"
	"fmt"
	"math/rand"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/seqscan"
	"hybridtree/internal/wal"
)

// CrashConfig parameterizes the kill/reopen differential loop. The hybrid
// tree runs on wal.File(ChecksumFile(ChaosFile(CrashFile))) plus an
// in-memory log; the oracle is a sequential scan that applies only the
// operations the tree acknowledged. At every kill point both media crash
// (unsynced pages lost or torn, unsynced log tail shredded), the stack is
// reopened, the log replayed, and the recovered tree's five search methods
// are checked byte-for-byte against the oracle — the executable statement
// of "acknowledged means durable".
type CrashConfig struct {
	Trace    TraceConfig
	PageSize int
	// Kills is the number of kill points (default 200). The trace must be
	// long enough to feed them; RunCrash stops at whichever runs out last.
	Kills int
	// MeanSegment is the average number of ops between kills (default 8);
	// actual segment lengths are uniform in [1, 2*MeanSegment].
	MeanSegment int
	// CheckpointOps attempts a checkpoint (tree.Flush) every N acknowledged
	// mutations with fault injection live (0 = only the quiesced post-kill
	// checkpoint). Failures are tolerated — a failed checkpoint must leave
	// overlay and log intact, which the next kill verifies.
	CheckpointOps int
	// FsyncEvery is passed to wal.Options. Anything above 1 weakens the
	// acked⇒durable guarantee (the differential check would fail), so the
	// storm pins it to 1; it is configurable for experiments only.
	FsyncEvery int
	// FailSyncProb arms a one-shot log-fsync failure before a segment with
	// this probability (default 0.15), exercising the seal-rewind path: the
	// affected commit must fail, roll back, and never be acknowledged.
	FailSyncProb float64
	// Faults is the chaos profile on the inner page file. Sync-lost faults
	// are rejected: a device that lies about fsync defeats any write-ahead
	// log, so the profile would make the differential check meaningless.
	Faults    pagefile.ChaosProfile
	FaultSeed int64
	// KillSeed drives segment lengths, kill damage, and checkpoint jitter
	// independently of the trace and fault schedules.
	KillSeed int64
	// MaxLeaked bounds LeakedPages after each post-kill recovery Flush
	// (normally 0: the quiesced Flush retries every deferred free).
	MaxLeaked int
}

func (c CrashConfig) withDefaults() (CrashConfig, error) {
	c.Trace = c.Trace.withDefaults()
	if c.PageSize == 0 {
		c.PageSize = 512
	}
	if c.Kills == 0 {
		c.Kills = 200
	}
	if c.MeanSegment == 0 {
		c.MeanSegment = 8
	}
	if c.FsyncEvery == 0 {
		c.FsyncEvery = 1
	}
	if c.FailSyncProb == 0 {
		c.FailSyncProb = 0.15
	}
	if c.KillSeed == 0 {
		c.KillSeed = c.Trace.Seed + 2
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = c.Trace.Seed + 1
	}
	if c.Faults.SyncLost > 0 {
		return c, fmt.Errorf("sim: crash profile with SyncLost %g: a lying fsync is unrecoverable by design", c.Faults.SyncLost)
	}
	if c.Trace.Ops < c.Kills {
		c.Trace.Ops = c.Kills * c.MeanSegment
	}
	return c, nil
}

// CrashReport is the outcome of a clean (divergence-free) crash storm.
type CrashReport struct {
	Kills int
	Ops   int
	// Acked counts mutations the tree acknowledged (and the oracle
	// therefore mirrors); Rejected counts mutations that failed and were
	// rolled back — including commits whose log fsync was forced to fail.
	Acked, Rejected int
	// Replay totals accumulated across every recovery.
	TxsReplayed, RecordsReplayed, RecordsDiscarded, TornBytes int
	// Checkpoints attempted with faults live, and how many failed.
	Checkpoints, CheckpointFailures int
	// Queries checked against the oracle; Tolerated are the ones that
	// surfaced an injected storage error instead of a result.
	Queries, Tolerated int
	FinalSize          int
	ChaosCounts        pagefile.ChaosCounts
	// Digest folds every acknowledgement, recovery summary and check
	// result; two runs of the same config must match bit-for-bit.
	Digest uint64
}

// RunCrash runs the kill/reopen differential loop and returns a
// *Divergence error the moment recovery disagrees with the oracle.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	trace := GenTrace(cfg.Trace)
	killRng := rand.New(rand.NewSource(cfg.KillSeed))
	dim, ps := cfg.Trace.Dim, cfg.PageSize
	space := geom.UnitCube(dim)
	metric := dist.L2()

	inner := pagefile.NewCrashFile(ps + pagefile.ChecksumOverhead)
	chaos := pagefile.NewChaosFile(inner, cfg.Faults, cfg.FaultSeed)
	chaos.SetEnabled(false)
	sum := pagefile.NewChecksumFile(chaos)
	log := wal.NewMemLog()
	wopts := wal.Options{FsyncEvery: cfg.FsyncEvery}
	wf, _, err := wal.Open(sum, log, wopts)
	if err != nil {
		return nil, fmt.Errorf("sim: wal open: %w", err)
	}
	tree, err := core.New(wf, core.Config{Dim: dim, PageSize: ps})
	if err != nil {
		return nil, fmt.Errorf("sim: tree: %w", err)
	}
	oracle, err := seqscan.New(pagefile.NewMemFile(ps), dim)
	if err != nil {
		return nil, fmt.Errorf("sim: oracle: %w", err)
	}
	chaos.SetEnabled(true)

	rep := &CrashReport{}
	dg := newDigest()
	dg.fold(uint64(cfg.Trace.Seed))
	dg.fold(uint64(cfg.FaultSeed))
	dg.fold(uint64(cfg.KillSeed))
	diverge := func(i int, detail string) error {
		return &Divergence{Index: "hybrid+wal", Seed: cfg.Trace.Seed, OpIndex: i,
			Op: trace[i], Detail: detail}
	}
	storageErr := func(err error) bool {
		return pagefile.IsTransient(err) || pagefile.IsCorrupt(err)
	}
	// check judges a complete answer against the oracle.
	check := func(i int, label string, q core.Query, got []core.Neighbor) error {
		detail, err := checkAnswer(oracle, q, got, false)
		if err != nil {
			return err
		}
		if detail != "" {
			return diverge(i, label+detail)
		}
		return nil
	}

	// checkRecovered is the five-method differential: box (collecting),
	// box (streaming count), range, exact k-NN, and approximate k-NN at
	// epsilon 0 (where "approximate" must mean "exact") — each compared
	// byte-for-byte against the oracle's replay of the acknowledged ops.
	// Runs quiesced: it is the measurement instrument, not the workload.
	checkRecovered := func(i int, t *core.Tree) error {
		q := randQuery(killRng, dim)
		radius := killRng.Float64() * 0.5
		k := 1 + killRng.Intn(10)
		for _, op := range []Op{
			{Kind: OpBox, Rect: space},
			{Kind: OpRange, Point: q, Radius: radius},
			{Kind: OpKNN, Point: q, K: k},
		} {
			query := op.Query(metric, core.Budget{})
			got, err := t.Search(context.Background(), nil, query, nil)
			if err != nil {
				return diverge(i, fmt.Sprintf("recovered %v failed: %v", query.Kind, err))
			}
			if err := check(i, "recovered ", query, got); err != nil {
				return err
			}
			foldAnswer(dg, query.Kind, got)
			if op.Kind == OpBox {
				n, err := t.CountBox(space)
				if err != nil {
					return diverge(i, fmt.Sprintf("recovered count failed: %v", err))
				}
				if n != len(got) {
					return diverge(i, fmt.Sprintf("recovered count %d, oracle has %d", n, len(got)))
				}
			}
		}
		got, err := t.SearchKNNApprox(q, k, metric, 0)
		if err != nil {
			return diverge(i, fmt.Sprintf("recovered approx knn failed: %v", err))
		}
		return check(i, "recovered approx (epsilon 0) ", Op{Kind: OpKNN, Point: q, K: k}.Query(metric, core.Budget{}), got)
	}

	ackedSinceCkpt := 0
	i := 0
	for kill := 0; kill < cfg.Kills && i < len(trace); kill++ {
		// Occasionally arm a one-shot log-fsync failure: the commit it hits
		// must fail, roll back, and stay un-acknowledged.
		if killRng.Float64() < cfg.FailSyncProb {
			log.FailNextSyncs(1)
		}
		segLen := 1 + killRng.Intn(2*cfg.MeanSegment)
		for n := 0; n < segLen && i < len(trace); n, i = n+1, i+1 {
			op := trace[i]
			rep.Ops++
			dg.fold(uint64(i))
			dg.fold(uint64(op.Kind))
			switch op.Kind {
			case OpInsert:
				if err := tree.Insert(op.Point, core.RecordID(op.RID)); err != nil {
					rep.Rejected++
					dg.fold(1)
					break
				}
				rep.Acked++
				ackedSinceCkpt++
				dg.fold(0)
				if err := oracle.Insert(op.Point, op.RID); err != nil {
					return rep, fmt.Errorf("sim: oracle insert: %w", err)
				}
			case OpDelete:
				found, err := tree.Delete(op.Point, core.RecordID(op.RID))
				if err != nil {
					rep.Rejected++
					dg.fold(1)
					break
				}
				rep.Acked++
				ackedSinceCkpt++
				dg.fold(0)
				dg.foldBool(found)
				wantFound, err := oracle.Delete(op.Point, op.RID)
				if err != nil {
					return rep, fmt.Errorf("sim: oracle delete: %w", err)
				}
				if found != wantFound {
					return rep, diverge(i, fmt.Sprintf("delete found=%v, oracle says %v", found, wantFound))
				}
			default: // a box, range or k-NN query
				rep.Queries++
				q := op.Query(metric, core.Budget{})
				got, err := tree.Search(context.Background(), nil, q, nil)
				if err != nil {
					if !storageErr(err) {
						return rep, diverge(i, fmt.Sprintf("%v failed: %v", q.Kind, err))
					}
					rep.Tolerated++
					dg.fold(4)
					break
				}
				if err := check(i, "", q, got); err != nil {
					return rep, err
				}
				dg.fold(uint64(len(got)))
			}
			// Periodic checkpoint with faults still live: it may fail (torn
			// flush, failed sync) but must never lose the overlay or the
			// log — the kill below proves it didn't.
			if cfg.CheckpointOps > 0 && ackedSinceCkpt >= cfg.CheckpointOps {
				ackedSinceCkpt = 0
				rep.Checkpoints++
				if err := tree.Flush(); err != nil {
					rep.CheckpointFailures++
					dg.fold(6)
				}
			}
		}

		// Kill: everything unsynced is lost or torn, in both media.
		log.FailNextSyncs(0)
		chaos.SetEnabled(false)
		inner.Crash(killRng.Int63())
		log.Crash(killRng.Int63())
		rep.Kills++

		wf, rec, err := wal.Open(sum, log, wopts)
		if err != nil {
			return rep, diverge(max(i-1, 0), fmt.Sprintf("wal recovery failed: %v", err))
		}
		rep.TxsReplayed += rec.Txs
		rep.RecordsReplayed += rec.Replayed
		rep.RecordsDiscarded += rec.Discarded
		rep.TornBytes += rec.TornBytes
		dg.fold(uint64(rec.Txs))
		dg.fold(uint64(rec.Replayed))
		tree, err = core.Open(wf, core.Config{Dim: dim, PageSize: ps})
		if err != nil {
			return rep, diverge(max(i-1, 0), fmt.Sprintf("reopen after crash failed: %v", err))
		}
		if err := checkRecovered(max(i-1, 0), tree); err != nil {
			return rep, err
		}
		if err := tree.CheckInvariants(); err != nil {
			return rep, diverge(max(i-1, 0), fmt.Sprintf("invariants after recovery: %v", err))
		}
		// Recovery checkpoint, quiesced: it must succeed and must leave no
		// leaked pages behind.
		if err := tree.Flush(); err != nil {
			return rep, diverge(max(i-1, 0), fmt.Sprintf("recovery flush failed: %v", err))
		}
		if leaked := tree.LeakedPages(); leaked > cfg.MaxLeaked {
			return rep, diverge(max(i-1, 0), fmt.Sprintf("%d leaked pages after recovery flush (max %d)", leaked, cfg.MaxLeaked))
		}
		chaos.SetEnabled(true)
	}

	chaos.SetEnabled(false)
	rep.ChaosCounts = chaos.Counts()
	if err := checkRecovered(len(trace)-1, tree); err != nil {
		return rep, err
	}
	if err := tree.CheckInvariants(); err != nil {
		return rep, diverge(len(trace)-1, fmt.Sprintf("final invariants: %v", err))
	}
	rep.FinalSize = oracle.Len()
	dg.fold(uint64(rep.FinalSize))
	dg.fold(uint64(rep.Acked))
	dg.fold(uint64(rep.Kills))
	rep.Digest = dg.sum()
	return rep, nil
}

func randQuery(rng *rand.Rand, dim int) geom.Point {
	p := make(geom.Point, dim)
	for d := range p {
		p[d] = rng.Float32()
	}
	return p
}
