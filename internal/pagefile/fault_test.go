package pagefile

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// The ChaosFile fuse's budget must hold exactly under concurrent spending:
// with N goroutines hammering reads, precisely the armed number succeed.
func TestFaultFileConcurrentBudget(t *testing.T) {
	inner := NewMemFile(64)
	id, err := inner.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1000
	f := NewChaosFile(inner, ChaosProfile{}, 1)
	f.SetRemaining(budget)
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 300; i++ {
				switch err := f.ReadPage(id, buf); {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrInjected):
					failed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() != budget {
		t.Fatalf("successes = %d, want exactly %d", ok.Load(), budget)
	}
	if failed.Load() != 8*300-budget {
		t.Fatalf("failures = %d, want %d", failed.Load(), 8*300-budget)
	}
}

// Heal-after-N: the budget is spent, the next N operations fail, and then
// the file recovers permanently — the shape recovery-path tests need.
func TestFaultFileHealAfter(t *testing.T) {
	inner := NewMemFile(64)
	id, err := inner.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	f := NewChaosFile(inner, ChaosProfile{}, 1)
	f.SetRemaining(2)
	f.setHealAfter(3)
	for i := 0; i < 2; i++ {
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatalf("op %d during budget: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := f.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d during failure burst: err = %v, want ErrInjected", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatalf("op %d after heal: %v", i, err)
		}
	}
}

// SetRemaining rearms the fuse at any time.
func TestFaultFileRearm(t *testing.T) {
	inner := NewMemFile(64)
	id, err := inner.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	f := NewChaosFile(inner, ChaosProfile{}, 1)
	f.SetRemaining(0)
	if err := f.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	f.SetRemaining(1)
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected after budget respent", err)
	}
}

// setHealAfter sets heal-after-N mode: once the fuse's budget is spent, the
// next n operations fail and the fuse then disarms for good. n == 0
// restores the default fail-forever behavior.
func (f *ChaosFile) setHealAfter(n int) {
	f.mu.Lock()
	f.healAfter = n
	f.mu.Unlock()
}
