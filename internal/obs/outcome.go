package obs

// OutcomeKind classifies how a request resolved. Every request ends in
// exactly one outcome — the taxonomy is exhaustive and mutually exclusive,
// so the per-outcome counters of an Outcomes bundle sum to the number of
// requests issued.
type OutcomeKind int

const (
	// OutcomeOK: the request completed with full results.
	OutcomeOK OutcomeKind = iota
	// OutcomeCancelled: the caller's context was cancelled mid-flight.
	OutcomeCancelled
	// OutcomeTimeout: the context deadline or the query's wall-time budget
	// expired.
	OutcomeTimeout
	// OutcomeShed: admission control rejected the request before it ran.
	OutcomeShed
	// OutcomeDegraded: a resource budget was exhausted and the request
	// returned a valid partial result (best-found-so-far).
	OutcomeDegraded
	// OutcomeError: the request failed for any other reason.
	OutcomeError

	// NumOutcomes is the number of outcome kinds.
	NumOutcomes = int(OutcomeError) + 1
)

var outcomeNames = [NumOutcomes]string{"ok", "cancelled", "timeout", "shed", "degraded", "error"}

// String returns the outcome's label ("ok", "cancelled", ...).
func (k OutcomeKind) String() string {
	if k < 0 || int(k) >= NumOutcomes {
		return "unknown"
	}
	return outcomeNames[k]
}

// Outcomes is a per-outcome counter bundle resolved once and indexed by
// OutcomeKind, so recording an outcome on the hot path is a single array
// load plus an atomic add — no map lookups, no label formatting.
type Outcomes struct {
	counters [NumOutcomes]*Counter
}

// NewOutcomes resolves base{outcome="..."} counters for every outcome kind
// in r, e.g. NewOutcomes(r, "core_query_outcomes_total").
func NewOutcomes(r *Registry, base string) *Outcomes {
	o := &Outcomes{}
	for k := 0; k < NumOutcomes; k++ {
		o.counters[k] = r.Counter(base + `{outcome="` + outcomeNames[k] + `"}`)
	}
	return o
}

// Record counts one request resolving with outcome k. Out-of-range kinds
// count as OutcomeError rather than panicking on the request path.
func (o *Outcomes) Record(k OutcomeKind) {
	if k < 0 || int(k) >= NumOutcomes {
		k = OutcomeError
	}
	o.counters[k].Inc()
}
