package perf

import (
	"fmt"
	"io"
)

// Finding levels.
const (
	LevelGate = "gate" // fails the build
	LevelInfo = "info" // printed, does not fail
)

// Finding is one comparator verdict about one benchmark metric.
type Finding struct {
	Level  string `json:"level"`
	Bench  string `json:"bench"`
	Metric string `json:"metric"`
	Msg    string `json:"msg"`
}

// Report is the comparator's output: every finding, gates first is NOT
// guaranteed — use Gates()/Failed() for the pass/fail decision.
type Report struct {
	Findings []Finding `json:"findings"`
}

// Gates returns the gate-level findings.
func (r *Report) Gates() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Level == LevelGate {
			out = append(out, f)
		}
	}
	return out
}

// Failed reports whether any gate-level finding is present.
func (r *Report) Failed() bool { return len(r.Gates()) > 0 }

// Write renders the report, one finding per line.
func (r *Report) Write(w io.Writer) {
	for _, f := range r.Findings {
		fmt.Fprintf(w, "[%s] %s %s: %s\n", f.Level, f.Bench, f.Metric, f.Msg)
	}
}

func (r *Report) add(level, bench, metric, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Level: level, Bench: bench, Metric: metric, Msg: fmt.Sprintf(format, args...)})
}

// Rule is one comparator check over the snapshot of a single run.
type Rule interface {
	Apply(cur *Snapshot, rep *Report)
}

// RatioRule compares two metrics measured in the *same* run — immune to
// machine drift, so it always gates. Either benchmark missing from the
// snapshot is itself a gate: the rule exists precisely because the pair
// must be measured together.
type RatioRule struct {
	Name      string // label for findings
	NumBench  string
	NumMetric string
	DenBench  string
	DenMetric string
	MaxRatio  float64 // gate when num/den > MaxRatio
}

func (rr RatioRule) Apply(cur *Snapshot, rep *Report) {
	num, numOK := cur.Metric(rr.NumBench, rr.NumMetric)
	den, denOK := cur.Metric(rr.DenBench, rr.DenMetric)
	if !numOK || !denOK {
		rep.add(LevelGate, rr.Name, rr.NumMetric, "required benchmark pair incomplete (num %q: %v, den %q: %v)",
			rr.NumBench, numOK, rr.DenBench, denOK)
		return
	}
	if den.Median == 0 {
		rep.add(LevelGate, rr.Name, rr.NumMetric, "denominator %q is 0; ratio undefined", rr.DenBench)
		return
	}
	ratio := num.Median / den.Median
	if ratio > rr.MaxRatio {
		rep.add(LevelGate, rr.Name, rr.NumMetric, "ratio %.3f exceeds max %.3f (%s=%.4g / %s=%.4g)",
			ratio, rr.MaxRatio, rr.NumBench, num.Median, rr.DenBench, den.Median)
		return
	}
	rep.add(LevelInfo, rr.Name, rr.NumMetric, "ratio %.3f within max %.3f", ratio, rr.MaxRatio)
}

// AllocRule gates on allocation count, which is deterministic and
// machine-independent: allocs/op above the absolute ceiling MaxAllocs
// gates, and so does the benchmark being absent from the run.
type AllocRule struct {
	Bench     string
	MaxAllocs float64
}

func (a AllocRule) Apply(cur *Snapshot, rep *Report) {
	got, ok := cur.Metric(a.Bench, "allocs/op")
	if !ok {
		rep.add(LevelGate, a.Bench, "allocs/op", "benchmark missing or not reporting allocations")
		return
	}
	if got.Median > a.MaxAllocs {
		rep.add(LevelGate, a.Bench, "allocs/op", "%.0f allocs/op exceeds ceiling %.0f", got.Median, a.MaxAllocs)
		return
	}
	rep.add(LevelInfo, a.Bench, "allocs/op", "%.0f allocs/op", got.Median)
}

// Compare runs every rule over the snapshot of one run.
func Compare(current *Snapshot, rules []Rule) *Report {
	rep := &Report{}
	for _, r := range rules {
		r.Apply(current, rep)
	}
	return rep
}
