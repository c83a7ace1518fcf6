package main

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/wal"
)

// handSpans is one traced insert written out by hand:
//
//	client.rtt        [0, 1000]
//	  tx.write        [100, 150]
//	  tx.seal         [200, 800]
//	    log.append    [210, 260]
//	    log.sync      [300, 780]
//	  tx.read         [820, 900]
//	    file.read     [830, 890]
func handSpans() []span {
	return []span{
		{ID: 0, Parent: -1, Op: 1, Name: spRTT, Start: 0, End: 1000},
		{ID: 1, Parent: 0, Op: 1, Name: spTxWrite, Start: 100, End: 150},
		{ID: 2, Parent: 0, Op: 1, Name: spTxSeal, Start: 200, End: 800},
		{ID: 3, Parent: 2, Op: 1, Name: spLogApp, Start: 210, End: 260},
		{ID: 4, Parent: 2, Op: 1, Name: spLogSync, Start: 300, End: 780},
		{ID: 5, Parent: 0, Op: 1, Name: spTxRead, Start: 820, End: 900},
		{ID: 6, Parent: 5, Op: 1, Name: spDevRead, Start: 830, End: 890},
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	pt := analyze(handSpans())
	want := map[string]float64{
		spRTT: 1000 - 50 - 600 - 80, spTxWrite: 50, spTxSeal: 600 - 50 - 480,
		spLogApp: 50, spLogSync: 480, spTxRead: 80 - 60, spDevRead: 60,
	}
	if !reflect.DeepEqual(pt.self, want) {
		t.Errorf("self times = %v, want %v", pt.self, want)
	}
	var sum float64
	for _, v := range pt.self {
		sum += v
	}
	if pt.ops != 1 || pt.top[spRTT] != 1000 || sum != 1000 {
		t.Errorf("Σ self = %g over %d operations of %g, want 1000 = 1000 over 1", sum, pt.ops, pt.top[spRTT])
	}
	// Everything below core except the overlay lookup (tx.read self, 20).
	if got, want := pt.lower[spRTT], float64(50+70+50+480+60); got != want {
		t.Errorf("lower = %g, want %g", got, want)
	}
	if got, want := pt.upper(spRTT), float64(1000-710); got != want {
		t.Errorf("upper = %g, want %g", got, want)
	}
}

// TestLayerBudgetIdentity checks the budget's defining property on replays
// whose boundaries do and do not difference cleanly: the layer times plus
// the residual are the round trip, exactly.
func TestLayerBudgetIdentity(t *testing.T) {
	replay := func(top string, dur int64) passTimes {
		return analyze([]span{
			{ID: 0, Parent: -1, Op: 1, Name: top, Start: 0, End: dur},
			{ID: 1, Parent: 0, Op: 1, Name: spDevRead, Start: 10, End: 40},
		})
	}
	for _, c := range []struct {
		name                           string
		rtt, null, handler, exec, core int64
		wantResidual                   float64 // µs
	}{
		{"clean", 900e3, 100e3, 700e3, 600e3, 500e3, (900 - 100 - (700 - 600) - (600 - 500) - (500 - 0.03) - 0.03)},
		// The executor replay came out faster than the core replay: the
		// negative difference is clamped and shows up in the residual.
		{"noisy", 900e3, 100e3, 700e3, 480e3, 500e3, (900 - 100 - (700 - 480) - 0 - (500 - 0.03) - 0.03)},
	} {
		b := layerBudget(replay(spRTT, c.rtt), replay(spNull, c.null), replay(spHandler, c.handler),
			replay(spExec, c.exec), replay(spSearch, c.core))
		sum := 0.0
		for name, v := range b {
			if name != "client.rtt_us" && name != "trace.residual_us" {
				if v < 0 {
					t.Errorf("%s: layer %s = %g, want >= 0", c.name, name, v)
				}
				sum += v
			}
		}
		if got := sum + b["trace.residual_us"]; math.Abs(got-b["client.rtt_us"]) > 1e-9 {
			t.Errorf("%s: Σ layers + residual = %g, want rtt %g", c.name, got, b["client.rtt_us"])
		}
		if math.Abs(b["trace.residual_us"]-c.wantResidual) > 1e-6 {
			t.Errorf("%s: residual = %g µs, want %g", c.name, b["trace.residual_us"], c.wantResidual)
		}
		if b["pagefile.read_us"] != 0.03 {
			t.Errorf("%s: pagefile.read_us = %g, want 0.03", c.name, b["pagefile.read_us"])
		}
	}
}

func TestRecorderParentsAndOff(t *testing.T) {
	rec := newRecorder()
	if id := rec.begin("x"); id != -1 {
		t.Fatalf("begin while off = %d, want -1", id)
	}
	rec.end(-1) // must be a no-op
	rec.startPass("p", true)
	rec.nextOp()
	a := rec.begin("a")
	b := rec.begin("b")
	rec.end(b)
	c := rec.begin("c")
	rec.end(c)
	rec.end(a)
	rec.nextOp()
	d := rec.begin("d")
	rec.end(d)
	spans := rec.passSpans("p")
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	parents := []int32{-1, a, a, -1}
	ops := []int32{1, 1, 1, 2}
	for i, s := range spans {
		if s.Parent != parents[i] || s.Op != ops[i] || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d op %d", i, s, parents[i], ops[i])
		}
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x")) // wrappers may hold a nil recorder
}

// callLog is a File, TxFile and LogStore that records which methods ran.
type callLog struct {
	calls []string
	stats pagefile.Stats
	fail  error
}

func (c *callLog) hit(name string) error                     { c.calls = append(c.calls, name); return c.fail }
func (c *callLog) PageSize() int                             { c.hit("PageSize"); return 4096 }
func (c *callLog) NumPages() int                             { c.hit("NumPages"); return 7 }
func (c *callLog) Stats() *pagefile.Stats                    { c.hit("Stats"); return &c.stats }
func (c *callLog) Close() error                              { return c.hit("Close") }
func (c *callLog) ReadPage(pagefile.PageID, []byte) error    { return c.hit("ReadPage") }
func (c *callLog) ReadPageSeq(pagefile.PageID, []byte) error { return c.hit("ReadPageSeq") }
func (c *callLog) WritePage(pagefile.PageID, []byte) error   { return c.hit("WritePage") }
func (c *callLog) Allocate() (pagefile.PageID, error)        { return 3, c.hit("Allocate") }
func (c *callLog) Free(pagefile.PageID) error                { return c.hit("Free") }
func (c *callLog) Sync() error                               { return c.hit("Sync") }
func (c *callLog) BeginTx()                                  { c.hit("BeginTx") }
func (c *callLog) SealTx() error                             { return c.hit("SealTx") }
func (c *callLog) AbortTx()                                  { c.hit("AbortTx") }
func (c *callLog) Append([]byte) error                       { return c.hit("Append") }
func (c *callLog) Size() int64                               { c.hit("Size"); return 42 }
func (c *callLog) Truncate(int64) error                      { return c.hit("Truncate") }
func (c *callLog) Contents() ([]byte, error)                 { return []byte("x"), c.hit("Contents") }
func (c *callLog) sorted() []string {
	s := append([]string(nil), c.calls...)
	sort.Strings(s)
	return s
}
func methodNames(v any) (names []string) { return methodsOf(reflect.TypeOf(v).Elem()) }
func methodsOf(t reflect.Type) (names []string) {
	for i := 0; i < t.NumMethod(); i++ {
		names = append(names, t.Method(i).Name)
	}
	return names
}

// TestWrappersForwardEveryMethod drives every method of the three wrapped
// interfaces (enumerated by reflection, so a method added to an interface
// fails here until the wrapper forwards it) and checks each reached the
// inner value once, errors and results intact.
func TestWrappersForwardEveryMethod(t *testing.T) {
	boom := errors.New("boom")
	rec := newRecorder()
	rec.startPass("t", true)

	drive := func(v reflect.Value, iface reflect.Type) {
		for i := 0; i < iface.NumMethod(); i++ {
			m := v.MethodByName(iface.Method(i).Name)
			args := make([]reflect.Value, m.Type().NumIn())
			for a := range args {
				args[a] = reflect.Zero(m.Type().In(a))
			}
			out := m.Call(args)
			for _, o := range out {
				if err, ok := o.Interface().(error); ok && !errors.Is(err, boom) {
					t.Errorf("%s: error %v, want the inner error", iface.Method(i).Name, err)
				}
			}
		}
	}

	inner := &callLog{fail: boom}
	dev := newDeviceSpanFile(inner, rec)
	drive(reflect.ValueOf(dev), reflect.TypeOf((*pagefile.File)(nil)).Elem())
	if want := methodNames((*pagefile.File)(nil)); !reflect.DeepEqual(inner.sorted(), want) {
		t.Errorf("File wrapper forwarded %v, want %v", inner.sorted(), want)
	}
	if dev.Stats() != &inner.stats {
		t.Error("Stats() is not the inner file's object")
	}
	if dev.NumPages() != 7 || dev.PageSize() != 4096 {
		t.Error("NumPages/PageSize not forwarded")
	}
	if _, isTx := pagefile.File(dev).(pagefile.TxFile); isTx {
		t.Error("the device wrapper must not look transactional: core would seal transactions on a plain file")
	}

	inner = &callLog{fail: boom}
	tx := newSpanTxFile(inner, rec)
	drive(reflect.ValueOf(tx), reflect.TypeOf((*pagefile.TxFile)(nil)).Elem())
	if want := methodNames((*pagefile.TxFile)(nil)); !reflect.DeepEqual(inner.sorted(), want) {
		t.Errorf("TxFile wrapper forwarded %v, want %v", inner.sorted(), want)
	}

	inner = &callLog{fail: boom}
	lg := &spanLog{inner: inner, rec: rec}
	drive(reflect.ValueOf(lg), reflect.TypeOf((*wal.LogStore)(nil)).Elem())
	if want := methodNames((*wal.LogStore)(nil)); !reflect.DeepEqual(inner.sorted(), want) {
		t.Errorf("LogStore wrapper forwarded %v, want %v", inner.sorted(), want)
	}
	if lg.Size() != 42 {
		t.Error("Size not forwarded")
	}
}

// TestCoreFindsWALThroughWrapper opens a real tree on wal.File behind the
// TxFile wrapper: an insert must seal a transaction (a tx.seal span with
// log.append and log.sync beneath it) and survive a kill-style reopen.
func TestCoreFindsWALThroughWrapper(t *testing.T) {
	rec := newRecorder()
	mem := pagefile.NewMemFile(pageSize)
	log := wal.NewMemLog()
	wf, _, err := wal.Open(newDeviceSpanFile(mem, rec), &spanLog{inner: log, rec: rec}, wal.Options{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.New(newSpanTxFile(wf, rec), treeConfig)
	if err != nil {
		t.Fatal(err)
	}
	p := make(geom.Point, dim)
	p[0] = 0.5
	rec.startPass("insert", true)
	if err := tree.Insert(p, 99); err != nil {
		t.Fatal(err)
	}
	rec.startPass("", false)
	self := analyze(rec.passSpans("insert")).self
	for _, name := range []string{spTxBegin, spTxWrite, spTxSeal, spLogApp, spLogSync} {
		if _, ok := self[name]; !ok {
			t.Errorf("no %s span: core did not run the insert as a WAL transaction (spans: %v)", name, self)
		}
	}
	for _, s := range rec.passSpans("insert") {
		if s.Name == spLogSync && rec.spans[s.Parent].Name != spTxSeal {
			t.Errorf("log.sync's parent is %s, want tx.seal", rec.spans[s.Parent].Name)
		}
	}

	// No checkpoint, no close: only the synced log carries the insert.
	wf2, recov, err := wal.Open(mem, log, wal.Options{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if recov.Txs == 0 {
		t.Fatal("recovery replayed no transaction")
	}
	reopened, err := core.Open(wf2, treeConfig)
	if err != nil {
		t.Fatal(err)
	}
	if rids, err := reopened.SearchPoint(p); err != nil || len(rids) != 1 || rids[0] != 99 {
		t.Errorf("after recovery SearchPoint = %v, %v; want [99]", rids, err)
	}
}
