package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestNilTraceIsNoOp pins the contract every hot path relies on: a nil
// *Trace absorbs every recording call without panicking or allocating.
func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if got := tr.Visit(-1, 1, false, true); got != -1 {
		t.Fatalf("nil Visit returned %d, want -1", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		span := tr.Visit(-1, 1, false, true)
		tr.KDLeft(span)
		tr.KDRight(span)
		tr.KDPrune(span)
		tr.ELSHit(span)
		tr.ELSPrune(span)
		tr.DistPrune(span)
		tr.Descend(span)
		tr.Scan(span, 5)
		tr.Hit(span)
		tr.CountSplit()
		tr.CountReinsert()
		tr.MarkRolledBack()
		tr.SetResults(3)
		tr.SetError(errors.New("x"))
		tr.FinishSince(time.Time{})
	})
	if allocs != 0 {
		t.Fatalf("nil trace allocated %v per run", allocs)
	}
	if Nop().StartTrace("box") != nil {
		t.Fatal("Nop tracer returned a non-nil trace")
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("box")
	root := tr.Visit(-1, 10, false, false)
	tr.KDLeft(root)
	tr.KDPrune(root)
	tr.Descend(root)
	tr.Descend(root)
	c1 := tr.Visit(root, 11, true, true)
	tr.Scan(c1, 8)
	tr.Hit(c1)
	c2 := tr.Visit(root, 12, true, true)
	tr.Scan(c2, 4)
	tr.SetResults(1)
	tr.FinishSince(tr.Start)

	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
	if tr.Spans[root].Level != 0 || tr.Spans[c1].Level != 1 || tr.Spans[c2].Level != 1 {
		t.Fatalf("levels wrong: %+v", tr.Spans)
	}
	if tr.Spans[c1].Parent != root || tr.Spans[c2].Parent != root {
		t.Fatalf("parents wrong: %+v", tr.Spans)
	}
	s := tr.String()
	for _, want := range []string{"node 10", "node 11", "node 12", "scanned=8 hits=1", "kd(L=1 R=0 pruned=1)"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// JSON renderer round-trips the span tree.
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 3 || back.Spans[1].Node != 11 || back.Op != "box" || back.Results != 1 {
		t.Fatalf("JSON round trip = %+v", back)
	}
}

// TestRingWraparound fills a ring past its capacity and checks that the
// retained window is exactly the newest traces, newest first.
func TestRingWraparound(t *testing.T) {
	const capacity = 4
	r := NewRing(capacity)
	if cap(r.buf) != capacity {
		t.Fatalf("cap = %d", cap(r.buf))
	}
	const n = 11
	for i := 0; i < n; i++ {
		tr := r.StartTrace("box")
		tr.SetResults(i)
		tr.FinishSince(tr.Start)
	}
	if r.Total() != n {
		t.Fatalf("total = %d, want %d", r.Total(), n)
	}
	got := r.Snapshot()
	if len(got) != capacity {
		t.Fatalf("snapshot has %d traces, want %d", len(got), capacity)
	}
	for i, tr := range got {
		if want := n - 1 - i; tr.Results != want {
			t.Errorf("snapshot[%d].Results = %d, want %d", i, tr.Results, want)
		}
		if want := uint64(n - i); tr.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, tr.Seq, want)
		}
	}
	// A partially filled ring also snapshots newest-first.
	r2 := NewRing(8)
	for i := 0; i < 3; i++ {
		tr := r2.StartTrace("knn")
		tr.SetResults(i)
		tr.FinishSince(tr.Start)
	}
	got2 := r2.Snapshot()
	if len(got2) != 3 || got2[0].Results != 2 || got2[2].Results != 0 {
		t.Fatalf("partial snapshot wrong: %+v", got2)
	}
}
