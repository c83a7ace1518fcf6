package obs

import "testing"

func TestOutcomesRecord(t *testing.T) {
	r := NewRegistry()
	o := NewOutcomes(r, "test_outcomes_total")
	o.Record(OutcomeOK)
	o.Record(OutcomeOK)
	o.Record(OutcomeDegraded)
	o.Record(OutcomeKind(99)) // out of range folds into error

	if got := o.get(OutcomeOK).Value(); got != 2 {
		t.Fatalf("ok = %d, want 2", got)
	}
	if got := o.get(OutcomeDegraded).Value(); got != 1 {
		t.Fatalf("degraded = %d, want 1", got)
	}
	if got := o.get(OutcomeError).Value(); got != 1 {
		t.Fatalf("error = %d, want 1", got)
	}
	if got := r.Counter(`test_outcomes_total{outcome="degraded"}`).Value(); got != 1 {
		t.Fatalf("registry lookup = %d, want 1", got)
	}
}

func TestOutcomeKindString(t *testing.T) {
	want := []string{"ok", "cancelled", "timeout", "shed", "degraded", "error"}
	if len(want) != NumOutcomes {
		t.Fatalf("NumOutcomes = %d, want %d", NumOutcomes, len(want))
	}
	for k, name := range want {
		if got := OutcomeKind(k).String(); got != name {
			t.Fatalf("OutcomeKind(%d).String() = %q, want %q", k, got, name)
		}
	}
	if got := OutcomeKind(-1).String(); got != "unknown" {
		t.Fatalf("OutcomeKind(-1).String() = %q, want unknown", got)
	}
}

// get returns the counter for one outcome kind.
func (o *Outcomes) get(k OutcomeKind) *Counter {
	if k < 0 || int(k) >= NumOutcomes {
		k = OutcomeError
	}
	return o.counters[k]
}
