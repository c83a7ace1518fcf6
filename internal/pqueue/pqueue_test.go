package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinOrdering(t *testing.T) {
	var q Min[string]
	q.Push("c", 3)
	q.Push("a", 1)
	q.Push("b", 2)
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	for i, want := range []string{"a", "b", "c"} {
		v, pri := q.Pop()
		if v != want || pri != float64(i+1) {
			t.Fatalf("pop = %q at %g, want %q at %d", v, pri, want, i+1)
		}
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty")
	}
}

// Property: popping everything yields priorities in ascending order,
// matching a plain sort.
func TestMinSortsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		var q Min[int]
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			p := rng.Float64()
			want[i] = p
			q.Push(i, p)
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			_, p := q.Pop()
			if p != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMinInterleaved(t *testing.T) {
	var q Min[int]
	q.Push(1, 5)
	q.Push(2, 1)
	if v, p := q.Pop(); v != 2 || p != 1 {
		t.Fatalf("pop = %d,%g", v, p)
	}
	q.Push(3, 0.5)
	q.Push(4, 10)
	if v, _ := q.Pop(); v != 3 {
		t.Fatalf("pop = %d, want 3", v)
	}
	if v, _ := q.Pop(); v != 1 {
		t.Fatalf("pop = %d, want 1", v)
	}
	if v, _ := q.Pop(); v != 4 {
		t.Fatalf("pop = %d, want 4", v)
	}
}

func TestKBestKeepsSmallest(t *testing.T) {
	q := NewKBest[int](3)
	for i, p := range []float64{9, 2, 7, 1, 8, 3} {
		q.Offer(i, p)
	}
	if !q.Full() {
		t.Fatal("should be full")
	}
	vals, pris := q.Sorted()
	if len(vals) != 3 {
		t.Fatalf("len = %d", len(vals))
	}
	wantP := []float64{1, 2, 3}
	wantV := []int{3, 1, 5}
	for i := range wantP {
		if pris[i] != wantP[i] || vals[i] != wantV[i] {
			t.Fatalf("sorted[%d] = (%d,%g), want (%d,%g)", i, vals[i], pris[i], wantV[i], wantP[i])
		}
	}
}

func TestKBestBound(t *testing.T) {
	q := NewKBest[int](2)
	if q.Offer(1, 5) != true || q.Offer(2, 3) != true {
		t.Fatal("offers below capacity must be kept")
	}
	if q.Bound() != 5 {
		t.Fatalf("bound = %g, want 5", q.Bound())
	}
	if q.Offer(3, 6) {
		t.Fatal("worse-than-bound offer must be rejected")
	}
	if !q.Offer(4, 1) {
		t.Fatal("better offer must be kept")
	}
	if q.Bound() != 3 {
		t.Fatalf("bound = %g, want 3", q.Bound())
	}
}

func TestKBestPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKBest(0) should panic")
		}
	}()
	NewKBest[int](0)
}

// Property: KBest(k) over a random stream returns exactly the k smallest
// priorities in ascending order.
func TestKBestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(20)
		q := NewKBest[int](k)
		all := make([]float64, n)
		for i := 0; i < n; i++ {
			all[i] = rng.Float64()
			q.Offer(i, all[i])
		}
		sort.Float64s(all)
		want := all
		if n > k {
			want = all[:k]
		}
		_, pris := q.Sorted()
		if len(pris) != len(want) {
			return false
		}
		for i := range want {
			if pris[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
