package main

import (
	"runtime"
	"sync"
	"time"

	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
)

// Counters of the public obs registry the benchmark reads. The names are
// the ones core, wal, concurrent, pagefile and server register.
const (
	cNodeReads   = `index_node_reads_total{method="hybrid"}`
	cCacheHits   = `index_cache_hits_total{method="hybrid"}`
	cScanned     = "core_leaf_entries_scanned_total"
	cResults     = "core_results_total"
	cKDPrunes    = "core_kd_prunes_total"
	cELSPrunes   = "core_els_prunes_total"
	cDistPrunes  = "core_dist_prunes_total"
	cHeapPushes  = "core_heap_pushes_total"
	cSplitsData  = `core_splits_total{kind="data"}`
	cSplitsIndex = `core_splits_total{kind="index"}`
	cReinserts   = "core_reinserts_total"
	cRollbacks   = "core_rollbacks_total"
	cBatches     = "wal_group_commit_batches_total"
	cFsyncs      = "wal_fsyncs_total"
	cCkptPages   = "wal_checkpoint_pages_total"
	cRetries     = "pagefile_read_retries_total"
	cRequests    = "server_requests_total"
	cRequestsOK  = `server_request_outcomes_total{outcome="ok"}`
	gRetired     = "core_mvcc_retired_versions"
)

var countedNames = []string{
	cNodeReads, cCacheHits, cScanned, cResults, cKDPrunes, cELSPrunes, cDistPrunes, cHeapPushes,
	cSplitsData, cSplitsIndex, cReinserts, cRollbacks, cBatches, cFsyncs, cCkptPages,
	cRetries, cRequests, cRequestsOK,
}

// counts is a reading of everything counted at one instant.
type counts struct {
	reg      map[string]uint64
	file     pagefile.Stats
	logBytes int64
	mem      runtime.MemStats
}

// readCounts snapshots the registry, the page file's Stats and the log
// size. logSize may be nil (no WAL).
func readCounts(stats *pagefile.Stats, logSize func() int64) counts {
	c := counts{reg: make(map[string]uint64, len(countedNames)), file: stats.Snapshot()}
	r := obs.Default()
	for _, name := range countedNames {
		c.reg[name] = r.Counter(name).Value()
	}
	if logSize != nil {
		c.logBytes = logSize()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// delta is after − before for one registry counter.
func delta(before, after counts, name string) float64 {
	return float64(after.reg[name] - before.reg[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gaugeMax samples a registry gauge every 10 ms until stopped and reports
// the largest value seen: a gauge's peak is invisible to before/after
// deltas.
type gaugeMax struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  int64
}

func watchGauge(name string) *gaugeMax {
	g := &gaugeMax{stop: make(chan struct{})}
	gauge := obs.Default().Gauge(name)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			g.max = max(g.max, gauge.Value())
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// peak stops the sampler, waits for it and returns the maximum.
func (g *gaugeMax) peak() int64 {
	close(g.stop)
	g.wg.Wait()
	return g.max
}
