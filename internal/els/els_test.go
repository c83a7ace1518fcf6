package els

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridtree/internal/geom"
)

func TestEncodeDecodeConservative(t *testing.T) {
	outer := geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})
	live := geom.NewRect(geom.Point{0.1, 0.3}, geom.Point{0.4, 0.9})
	for _, bits := range []int{1, 2, 4, 8, 16} {
		e := encode(outer, live, bits)
		dec := decode(outer, e, bits)
		if !dec.ContainsRect(live) {
			t.Fatalf("bits=%d: decoded %v does not contain live %v", bits, dec, live)
		}
		if !outer.ContainsRect(dec) {
			t.Fatalf("bits=%d: decoded %v escapes outer", bits, dec)
		}
	}
}

func TestPrecisionImproves(t *testing.T) {
	outer := geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})
	live := geom.NewRect(geom.Point{0.33, 0.21}, geom.Point{0.4, 0.27})
	prevArea := outer.Area()
	for _, bits := range []int{1, 2, 4, 8, 12} {
		dec := decode(outer, encode(outer, live, bits), bits)
		a := dec.Area()
		if a > prevArea+1e-12 {
			t.Fatalf("bits=%d: area %g worse than previous %g", bits, a, prevArea)
		}
		prevArea = a
	}
	// With many bits the decoded rect should be close to the live rect.
	dec := decode(outer, encode(outer, live, 16), 16)
	if dec.Area() > live.Area()*1.01+1e-9 {
		t.Fatalf("16-bit decode too loose: %g vs %g", dec.Area(), live.Area())
	}
}

func TestEncodingSize(t *testing.T) {
	// 2 boundaries * dim * bits, rounded up to bytes — the paper's
	// 2*num_dimensions*ELSPRECISION accounting (Figure 4).
	outer := geom.UnitCube(64)
	e := encode(outer, outer, 4)
	if got, want := len(e), 2*64*4/8; got != want {
		t.Fatalf("encoded size = %d bytes, want %d", got, want)
	}
	e3 := encode(geom.UnitCube(3), geom.UnitCube(3), 3)
	if got, want := len(e3), (2*3*3+7)/8; got != want {
		t.Fatalf("encoded size = %d bytes, want %d", got, want)
	}
}

func TestDegenerateOuter(t *testing.T) {
	outer := geom.NewRect(geom.Point{0.5, 0}, geom.Point{0.5, 1})
	live := outer.Clone()
	dec := decode(outer, encode(outer, live, 4), 4)
	if !dec.ContainsRect(live) {
		t.Fatalf("degenerate outer: decoded %v misses live %v", dec, live)
	}
}

func TestTable(t *testing.T) {
	outer := geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})
	tab := NewTable(4)
	if !tab.Enabled() || tab.bits != 4 {
		t.Fatal("table misconfigured")
	}
	// Unknown id falls back to outer.
	r, ok := tab.Get(7, outer)
	if ok || !r.Equal(outer) {
		t.Fatal("unknown id should return outer")
	}
	live := geom.NewRect(geom.Point{0.2, 0.2}, geom.Point{0.3, 0.3})
	tab.Set(7, outer, live)
	r, ok = tab.Get(7, outer)
	if !ok || !r.ContainsRect(live) {
		t.Fatalf("get = %v,%v", r, ok)
	}
	if r.Area() >= outer.Area() {
		t.Fatal("encoded live rect should be tighter than outer")
	}
	if tab.MemoryBytes() != 2*2*4/8 {
		t.Fatalf("memory = %d", tab.MemoryBytes())
	}
	tab.Delete(7)
	if tab.Len() != 0 {
		t.Fatal("delete failed")
	}
}

func TestTableDisabled(t *testing.T) {
	outer := geom.UnitCube(2)
	tab := NewTable(0)
	if tab.Enabled() {
		t.Fatal("0 bits should disable")
	}
	tab.Set(1, outer, geom.NewRect(geom.Point{0.4, 0.4}, geom.Point{0.5, 0.5}))
	r, ok := tab.Get(1, outer)
	if ok || !r.Equal(outer) {
		t.Fatal("disabled table must return outer")
	}
	tab.EnlargeToInclude(1, outer, geom.Point{0.9, 0.9})
	if tab.Len() != 0 {
		t.Fatal("disabled table must store nothing")
	}
}

func TestTableBitsRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTable(17) should panic")
		}
	}()
	NewTable(17)
}

func TestEnlargeToInclude(t *testing.T) {
	outer := geom.UnitCube(2)
	tab := NewTable(8)
	p1 := geom.Point{0.25, 0.25}
	p2 := geom.Point{0.75, 0.5}
	tab.EnlargeToInclude(1, outer, p1)
	r, _ := tab.Get(1, outer)
	if !r.Contains(p1) {
		t.Fatalf("live %v misses %v", r, p1)
	}
	tab.EnlargeToInclude(1, outer, p2)
	r, _ = tab.Get(1, outer)
	if !r.Contains(p1) || !r.Contains(p2) {
		t.Fatalf("live %v misses a point", r)
	}
}

// Property: decoded rectangle always contains the live rectangle and stays
// inside outer, for random rects and precisions.
func TestConservativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(16)
		bits := 1 + rng.Intn(16)
		olo, ohi := make(geom.Point, dim), make(geom.Point, dim)
		llo, lhi := make(geom.Point, dim), make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			a, b := rng.Float32(), rng.Float32()
			if a > b {
				a, b = b, a
			}
			olo[d], ohi[d] = a, b
			// live inside outer
			u, v := rng.Float32(), rng.Float32()
			if u > v {
				u, v = v, u
			}
			llo[d] = a + u*(b-a)
			lhi[d] = a + v*(b-a)
		}
		outer := geom.Rect{Lo: olo, Hi: ohi}
		live := geom.Rect{Lo: llo, Hi: lhi}
		dec := decode(outer, encode(outer, live, bits), bits)
		return dec.ContainsRect(live) && outer.ContainsRect(dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSetCopiesOnWriteOnlyOnChange: a Set whose encoding equals the stored
// one leaves the published chunk shared; one that changes it clones the
// chunk once per generation, leaves the snapshot and any captured
// encoding as they were, and the clone takes later changes in place until
// the next Publish.
func TestSetCopiesOnWriteOnlyOnChange(t *testing.T) {
	outer := geom.UnitCube(4)
	live := geom.NewRect(geom.Point{0.2, 0.2, 0.2, 0.2}, geom.Point{0.3, 0.3, 0.3, 0.3})
	tab := NewTable(4)
	tab.Set(3, outer, live)
	snap := tab.Publish()
	before, _ := snap.Get(3, outer)
	before = before.Clone()
	captured, _ := tab.stored(3)
	capturedCopy := append(encoded(nil), captured...)

	// 0.21 and 0.29 fall in the same 1/16 cells as 0.2 and 0.3.
	tab.Set(3, outer, geom.NewRect(geom.Point{0.21, 0.2, 0.2, 0.2}, geom.Point{0.29, 0.3, 0.3, 0.3}))
	if tab.chunks[0] != snap.chunks[0] {
		t.Fatal("an unchanged encoding cloned the published chunk")
	}

	tab.Set(3, outer, geom.NewRect(geom.Point{0.2, 0.2, 0.2, 0.2}, geom.Point{0.6, 0.3, 0.3, 0.3}))
	clone := tab.chunks[0]
	if clone == snap.chunks[0] {
		t.Fatal("a changed encoding was written into the published chunk")
	}
	if got, _ := snap.Get(3, outer); !got.Equal(before) {
		t.Fatalf("snapshot entry moved: %v, want %v", got, before)
	}
	if string(captured) != string(capturedCopy) {
		t.Fatal("a captured encoding was overwritten")
	}
	if got, _ := tab.Get(3, outer); !got.Contains(geom.Point{0.55, 0.25, 0.25, 0.25}) {
		t.Fatalf("table entry %v misses the grown rectangle", got)
	}

	tab.Set(4, outer, live)
	if tab.chunks[0] != clone {
		t.Fatal("a second change in one generation cloned the chunk again")
	}
	tab.Publish()
	tab.Set(4, outer, geom.NewRect(geom.Point{0.5, 0.5, 0.5, 0.5}, geom.Point{0.6, 0.6, 0.6, 0.6}))
	if tab.chunks[0] == clone {
		t.Fatal("Publish did not seal the chunk")
	}
}

// decode expands an encoding back to a rectangle in outer's coordinates.
func decode(outer geom.Rect, e encoded, bits int) geom.Rect {
	dim := outer.Dim()
	out := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	decodeTo(out.Lo, out.Hi, outer, e, bits)
	return out
}
