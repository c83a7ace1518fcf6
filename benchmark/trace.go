package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hybridtree/internal/pagefile"
	"hybridtree/internal/wal"
)

// span is one timed call at a layer boundary. Parent is the span that was
// open when this one began (-1 for the top span of an operation); spans of
// one operation share Op. Times are ns since the recorder was made.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. The traced pass runs one client, so at
// most one operation is in flight and the spans of an operation nest in
// wall time even though goroutines hand the work along (client → handler
// → executor worker or group-commit worker): the innermost open span is
// the parent. A mutex-guarded stack is therefore enough, and cheap next to
// the calls being timed.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  []int32
	op    int32
	pass  string
}

func newRecorder() *recorder {
	// Room for a whole traced pass, so no span pays for growing the slice.
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<17)}
}

// startPass names the replay the following spans belong to and switches
// recording on or off; with recording off the wrappers only forward.
func (r *recorder) startPass(name string, on bool) {
	r.mu.Lock()
	r.pass = name
	r.open = r.open[:0]
	r.mu.Unlock()
	r.on.Store(on)
}

// nextOp starts a new operation id.
func (r *recorder) nextOp() {
	r.mu.Lock()
	r.op++
	r.mu.Unlock()
}

// begin opens a span; it returns -1 when recording is off (or r is nil),
// which end ignores.
func (r *recorder) begin(name string) int32 {
	if r == nil || !r.on.Load() {
		return -1
	}
	r.mu.Lock()
	id := int32(len(r.spans))
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, id)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Pass: r.pass, Name: name,
		// Stamped after the bookkeeping, so that is not charged to the span.
		Start: time.Since(r.epoch).Nanoseconds()})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = end
	// Pop through id: a span left open by an error path must not adopt
	// later spans as children.
	for n := len(r.open); n > 0; n-- {
		top := r.open[n-1]
		r.open = r.open[:n-1]
		if top == id {
			break
		}
	}
	r.mu.Unlock()
}

// passSpans returns the spans recorded under a pass name.
func (r *recorder) passSpans(pass string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Pass == pass {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONLines writes every span as one JSON object per line, followed by
// one summary line.
func (r *recorder) writeJSONLines(path string, summary any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	// An encode error is a write error, which Flush reports again.
	_ = enc.Encode(summary)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names of the storage seams. The wrappers below record these; the
// traced pass maps them onto the per-layer metrics.
const (
	spTxRead   = "tx.read"
	spTxWrite  = "tx.write"
	spTxAlloc  = "tx.alloc"
	spTxFree   = "tx.free"
	spTxBegin  = "tx.begin"
	spTxSeal   = "tx.seal"
	spTxAbort  = "tx.abort"
	spTxSync   = "tx.sync"
	spLogApp   = "log.append"
	spLogSync  = "log.sync"
	spLogTrunc = "log.truncate"
	spLogRead  = "log.contents"
	spDevRead  = "file.read"
	spDevWrite = "file.write"
	spDevAlloc = "file.alloc"
	spDevFree  = "file.free"
	spDevSync  = "file.sync"
)

// spanFile wraps a pagefile.File and records a span around every call that
// does work. Stats() is the inner file's own object, so access accounting
// is shared with (not duplicated by) the wrapper. names selects the span
// names, so one type serves both the device seam (under wal.File) and the
// core-facing seam (above it).
type spanFile struct {
	inner pagefile.File
	rec   *recorder
	read  string
	write string
	alloc string
	free  string
	sync  string
}

func newDeviceSpanFile(inner pagefile.File, rec *recorder) *spanFile {
	return &spanFile{inner: inner, rec: rec,
		read: spDevRead, write: spDevWrite, alloc: spDevAlloc, free: spDevFree, sync: spDevSync}
}

func (f *spanFile) PageSize() int          { return f.inner.PageSize() }
func (f *spanFile) NumPages() int          { return f.inner.NumPages() }
func (f *spanFile) Stats() *pagefile.Stats { return f.inner.Stats() }
func (f *spanFile) Close() error           { return f.inner.Close() }

func (f *spanFile) ReadPage(id pagefile.PageID, buf []byte) error {
	s := f.rec.begin(f.read)
	err := f.inner.ReadPage(id, buf)
	f.rec.end(s)
	return err
}

func (f *spanFile) ReadPageSeq(id pagefile.PageID, buf []byte) error {
	s := f.rec.begin(f.read)
	err := f.inner.ReadPageSeq(id, buf)
	f.rec.end(s)
	return err
}

func (f *spanFile) WritePage(id pagefile.PageID, data []byte) error {
	s := f.rec.begin(f.write)
	err := f.inner.WritePage(id, data)
	f.rec.end(s)
	return err
}

func (f *spanFile) Allocate() (pagefile.PageID, error) {
	s := f.rec.begin(f.alloc)
	id, err := f.inner.Allocate()
	f.rec.end(s)
	return id, err
}

func (f *spanFile) Free(id pagefile.PageID) error {
	s := f.rec.begin(f.free)
	err := f.inner.Free(id)
	f.rec.end(s)
	return err
}

func (f *spanFile) Sync() error {
	s := f.rec.begin(f.sync)
	err := f.inner.Sync()
	f.rec.end(s)
	return err
}

// spanTxFile is the core-facing wrapper around a pagefile.TxFile (the
// wal.File). It implements TxFile itself, so core still finds the
// write-ahead log through it and seals a transaction per mutation.
type spanTxFile struct {
	*spanFile
	tx pagefile.TxFile
}

func newSpanTxFile(inner pagefile.TxFile, rec *recorder) *spanTxFile {
	return &spanTxFile{
		spanFile: &spanFile{inner: inner, rec: rec,
			read: spTxRead, write: spTxWrite, alloc: spTxAlloc, free: spTxFree, sync: spTxSync},
		tx: inner,
	}
}

func (f *spanTxFile) BeginTx() {
	s := f.rec.begin(spTxBegin)
	f.tx.BeginTx()
	f.rec.end(s)
}

func (f *spanTxFile) SealTx() error {
	s := f.rec.begin(spTxSeal)
	err := f.tx.SealTx()
	f.rec.end(s)
	return err
}

func (f *spanTxFile) AbortTx() {
	s := f.rec.begin(spTxAbort)
	f.tx.AbortTx()
	f.rec.end(s)
}

// spanLog wraps the wal.LogStore.
type spanLog struct {
	inner wal.LogStore
	rec   *recorder
}

func (l *spanLog) Size() int64  { return l.inner.Size() }
func (l *spanLog) Close() error { return l.inner.Close() }

func (l *spanLog) Append(b []byte) error {
	s := l.rec.begin(spLogApp)
	err := l.inner.Append(b)
	l.rec.end(s)
	return err
}

func (l *spanLog) Sync() error {
	s := l.rec.begin(spLogSync)
	err := l.inner.Sync()
	l.rec.end(s)
	return err
}

func (l *spanLog) Truncate(n int64) error {
	s := l.rec.begin(spLogTrunc)
	err := l.inner.Truncate(n)
	l.rec.end(s)
	return err
}

func (l *spanLog) Contents() ([]byte, error) {
	s := l.rec.begin(spLogRead)
	b, err := l.inner.Contents()
	l.rec.end(s)
	return b, err
}

var (
	_ pagefile.File   = (*spanFile)(nil)
	_ pagefile.TxFile = (*spanTxFile)(nil)
	_ wal.LogStore    = (*spanLog)(nil)
)
