package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/server"
	"hybridtree/internal/wal"
)

var treeConfig = core.Config{Dim: dim, PageSize: pageSize}

// retryPolicy is the policy cmd/htreed layers above the page file.
var retryPolicy = pagefile.RetryPolicy{
	MaxAttempts: 3,
	Backoff:     200 * time.Microsecond,
	MaxBackoff:  5 * time.Millisecond,
	Jitter:      true,
	TripAfter:   16,
	ProbeAfter:  50 * time.Millisecond,
}

// drainTimeout is htreed's -drain-timeout default.
const drainTimeout = 15 * time.Second

func indexPath(dir string) string { return filepath.Join(dir, "index.ht") }
func walPath(dir string) string   { return indexPath(dir) + ".wal" }

// buildIndex bulk-loads the dataset into a fresh index file and closes it,
// the way `htree build -bulk` leaves a file for htreed to open.
func buildIndex(dir string, d *dataSet) error {
	disk, err := pagefile.CreateDiskFile(indexPath(dir), pageSize)
	if err != nil {
		return err
	}
	rids := make([]core.RecordID, len(d.base))
	for i := range rids {
		rids[i] = core.RecordID(i)
	}
	tree, err := core.BulkLoad(disk, treeConfig, d.base, rids)
	if err != nil {
		disk.Close()
		return fmt.Errorf("bulk load: %w", err)
	}
	if err := tree.Close(); err != nil {
		disk.Close()
		return fmt.Errorf("bulk load close: %w", err)
	}
	if err := disk.Sync(); err != nil {
		disk.Close()
		return err
	}
	return disk.Close()
}

// stack is one open index: the storage and serving layers cmd/htreed wires
// (serving) or the plain DiskFile → tree path of `htree knn` (not serving).
type stack struct {
	serving bool
	disk    *pagefile.DiskFile
	log     *wal.FileLog
	top     pagefile.File // what core sits on
	core    *core.Tree
	tree    *concurrent.Tree
	rec     wal.Recovery

	srv      *server.Server
	sampler  *obs.RuntimeSampler
	serveErr chan error
	addr     string
}

// openStack opens the index in dir. With serving it assembles htreed's
// stack, innermost out: DiskFile → RetryFile → wal.File (fsync every
// commit) → core → concurrent, with htreed's default tracer. A non-nil rec
// interposes the span-recording wrappers at the three interface seams:
// under the WAL (device boundary), around the log store, and between core
// and the WAL.
func openStack(dir string, serving bool, rec *recorder) (*stack, error) {
	disk, err := pagefile.OpenDiskFile(indexPath(dir), pageSize)
	if err != nil {
		return nil, err
	}
	s := &stack{serving: serving, disk: disk}
	var file pagefile.File = disk
	var ring *obs.Ring
	var slow *obs.SlowRecorder
	if serving {
		file = pagefile.NewRetryFile(file, retryPolicy)
	}
	if rec != nil {
		file = newDeviceSpanFile(file, rec)
	}
	if serving {
		s.log, err = wal.OpenFileLog(walPath(dir))
		if err != nil {
			disk.Close()
			return nil, err
		}
		var logStore wal.LogStore = s.log
		if rec != nil {
			logStore = &spanLog{inner: s.log, rec: rec}
		}
		wf, recovery, err := wal.Open(file, logStore, wal.Options{FsyncEvery: 1})
		if err != nil {
			s.kill()
			return nil, err
		}
		s.rec = recovery
		file = wf
		if rec != nil {
			file = newSpanTxFile(wf, rec)
		}
		ring = obs.NewRing(256)
		slow = obs.NewSlowRecorder(16, 0)
		core.SetDefaultTracer(obs.Tee(ring, slow))
		obs.RegisterBuildInfo(obs.Default())
		wal.RegisterMetrics()
	} else {
		core.SetDefaultTracer(nil)
	}
	s.top = file
	s.core, err = core.Open(file, treeConfig)
	if err != nil {
		s.kill()
		return nil, err
	}
	// concurrent.Open is core.Open + Wrap; keeping the core handle lets the
	// traced pass time the core boundary itself.
	s.tree = concurrent.Wrap(s.core)
	if serving {
		// htreed's flag defaults, with -wal and -writes on.
		s.srv = server.New(s.tree, server.Config{
			Dim:          dim,
			EnableWrites: true,
			MaxBodyBytes: 1 << 20,
			MaxConns:     1024,
			WriteSlots:   64,
			MaxDeadline:  30 * time.Second,
			ReadTimeout:  30 * time.Second,
			WriteTimeout: 30 * time.Second,
			IdleTimeout:  60 * time.Second,
			Ring:         ring,
			Slow:         slow,
		})
	}
	return s, nil
}

// startServer serves on a loopback port, as htreed does after opening.
func (s *stack) startServer() error {
	s.sampler = obs.StartRuntimeSampler(obs.Default(), 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return nil
}

// stopServer drains the server the way htreed's SIGTERM path does and
// waits for the accept loop to end. Executor and group committer are
// drained by Shutdown even when the listener never started.
func (s *stack) stopServer() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if s.serveErr != nil {
		if e := <-s.serveErr; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
			err = e
		}
		s.serveErr = nil
	}
	if s.sampler != nil {
		s.sampler.Stop()
		s.sampler = nil
	}
	return err
}

// kill stops serving and closes the file descriptors without a checkpoint,
// a tree close or a sync: what the files hold is what a killed process
// leaves behind (the OS cache survives; see the README on what that does
// and does not prove).
func (s *stack) kill() {
	s.stopServer()
	if s.log != nil {
		s.log.Close()
	}
	s.disk.Close()
}

// close is the graceful end: checkpoint (serving), tree metadata, files.
func (s *stack) close() error {
	if err := s.stopServer(); err != nil {
		s.kill()
		return err
	}
	if s.serving {
		if err := s.tree.Flush(); err != nil {
			s.kill()
			return fmt.Errorf("final checkpoint: %w", err)
		}
	}
	if err := s.tree.Close(); err != nil {
		s.kill()
		return err
	}
	return s.top.Close()
}

// fileBytes returns the size of the index file plus its log.
func fileBytes(dir string) (int64, error) {
	var total int64
	for _, p := range []string{indexPath(dir), walPath(dir)} {
		info, err := os.Stat(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
