// Package perf pins what one `go test -bench` run can decide by itself: a
// versioned, machine-readable snapshot of the run with an environment
// fingerprint, plus same-run rules (a ratio between two benchmarks, an
// allocation ceiling) that turn it into gate/info findings. Wall-clock
// numbers are compared across commits only by benchmark/ (DESIGN.md §12).
package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"hybridtree/internal/obs"
)

// SchemaVersion is the current snapshot schema.
const SchemaVersion = 1

// Env fingerprints the machine and build a snapshot was measured on.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// SameMachine reports whether two fingerprints plausibly describe the same
// hardware class, i.e. whether nanosecond readings are comparable. Nothing
// in this package asks; benchmark/'s -compare does.
func (e Env) SameMachine(o Env) bool {
	return e.GOOS == o.GOOS && e.GOARCH == o.GOARCH && e.CPUModel == o.CPUModel && e.NumCPU == o.NumCPU
}

// Stat summarizes the repeats of one metric. Median is the comparison
// value; P10/P90 bound the observed spread so a human reading the artifact
// can judge noise.
type Stat struct {
	Median float64 `json:"median"`
	P10    float64 `json:"p10,omitempty"`
	P90    float64 `json:"p90,omitempty"`
}

// Benchmark is one benchmark's aggregated results: its canonical name
// (package-qualified, Benchmark prefix and GOMAXPROCS suffix stripped, e.g.
// "internal/core.SearchKNNTracerOff"), how many repeats contributed, and a
// Stat per reported metric ("ns/op", "allocs/op", "B/op", plus any custom
// b.ReportMetric units).
type Benchmark struct {
	Name    string          `json:"name"`
	Repeats int             `json:"repeats"`
	Metrics map[string]Stat `json:"metrics"`
}

// Snapshot is one benchmark run rendered machine-readable: the schema
// version, where it ran, and what it measured.
type Snapshot struct {
	SchemaVersion int         `json:"schema_version"`
	Env           Env         `json:"env"`
	Benchmarks    []Benchmark `json:"benchmarks"`
}

// CaptureEnv fingerprints the current process: VCS commit and toolchain from
// the build info, platform from the runtime, CPU model from the OS.
func CaptureEnv() Env {
	commit, goVersion := obs.BuildVersion()
	return Env{
		Commit:     commit,
		GoVersion:  goVersion,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel returns the CPU model string, best-effort: /proc/cpuinfo on
// Linux, empty elsewhere (the fingerprint then keys on GOOS/GOARCH/NumCPU).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ":"); ok {
			switch strings.TrimSpace(k) {
			case "model name", "Processor", "cpu model":
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// NewSnapshot assembles a current-schema snapshot of benchmarks measured in
// this process's environment, sorted by name for diff-stable artifacts.
func NewSnapshot(benchmarks []Benchmark) *Snapshot {
	sort.Slice(benchmarks, func(i, j int) bool { return benchmarks[i].Name < benchmarks[j].Name })
	return &Snapshot{SchemaVersion: SchemaVersion, Env: CaptureEnv(), Benchmarks: benchmarks}
}

// Validate checks structural invariants: current schema, a non-empty
// fingerprint, distinct benchmark names, and every benchmark carrying at
// least one metric with at least one repeat.
func (s *Snapshot) Validate() error {
	if s.SchemaVersion != SchemaVersion {
		return fmt.Errorf("perf: snapshot schema %d, want %d", s.SchemaVersion, SchemaVersion)
	}
	if s.Env.GOOS == "" || s.Env.GOARCH == "" || s.Env.GoVersion == "" {
		return fmt.Errorf("perf: snapshot env fingerprint incomplete: %+v", s.Env)
	}
	seen := make(map[string]bool, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("perf: benchmark with empty name")
		}
		if seen[b.Name] {
			return fmt.Errorf("perf: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Repeats < 1 {
			return fmt.Errorf("perf: benchmark %q has %d repeats", b.Name, b.Repeats)
		}
		if len(b.Metrics) == 0 {
			return fmt.Errorf("perf: benchmark %q has no metrics", b.Name)
		}
	}
	return nil
}

// Metric returns the named benchmark's stat for metric, if both exist.
func (s *Snapshot) Metric(bench, metric string) (Stat, bool) {
	for _, b := range s.Benchmarks {
		if b.Name == bench {
			st, ok := b.Metrics[metric]
			return st, ok
		}
	}
	return Stat{}, false
}

// WriteFile renders the snapshot as indented JSON at path.
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
