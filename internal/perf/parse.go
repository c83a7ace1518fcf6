package perf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseGoBench parses `go test -bench` text output (one or more packages,
// -count repeats welcome) into aggregated Benchmarks. Result lines look
// like:
//
//	pkg: hybridtree/internal/core
//	BenchmarkSearchKNNTracerOff-8  	 30000  41024 ns/op  0 B/op  0 allocs/op
//
// Names are canonicalized to "<pkg>.<name>" with the module prefix, the
// "Benchmark" prefix and the "-GOMAXPROCS" suffix stripped:
// "internal/core.SearchKNNTracerOff". Repeated lines for the same benchmark
// (from -count=N) fold into one Benchmark with median/p10/p90 per metric.
func ParseGoBench(r io.Reader) ([]Benchmark, error) {
	type samples map[string][]float64 // metric unit -> one value per repeat
	byName := make(map[string]samples)
	var order []string
	pkg := ""

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = shortPkg(strings.TrimSpace(v))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is: name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. "BenchmarkFoo---FAIL" status lines
		}
		name := canonicalName(pkg, fields[0])
		ss, ok := byName[name]
		if !ok {
			ss = make(samples)
			byName[name] = ss
			order = append(order, name)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			ss[unit] = append(ss[unit], val)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("perf: no benchmark result lines found")
	}

	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		ss := byName[name]
		b := Benchmark{Name: name, Metrics: make(map[string]Stat, len(ss))}
		for unit, vals := range ss {
			if len(vals) > b.Repeats {
				b.Repeats = len(vals)
			}
			b.Metrics[unit] = summarize(vals)
		}
		out = append(out, b)
	}
	return out, nil
}

// shortPkg strips the module path prefix so names survive a module rename:
// "hybridtree/internal/core" -> "internal/core".
func shortPkg(p string) string {
	if i := strings.Index(p, "/internal/"); i >= 0 {
		return p[i+1:]
	}
	if i := strings.Index(p, "/cmd/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// canonicalName turns a raw result-line name into the snapshot's canonical
// form: Benchmark prefix off, trailing -GOMAXPROCS off, package prepended.
func canonicalName(pkg, raw string) string {
	name := strings.TrimPrefix(raw, "Benchmark")
	// The -N suffix applies to the top-level name segment, not sub-benchmark
	// paths; trimming the final -digits run after the last '/' is safe
	// because Go appends it unconditionally.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if pkg != "" {
		return pkg + "." + name
	}
	return name
}

// summarize reduces one metric's repeats to median/p10/p90.
func summarize(vals []float64) Stat {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return Stat{Median: percentile(s, 0.5), P10: percentile(s, 0.1), P90: percentile(s, 0.9)}
}

// percentile interpolates the q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + (sorted[i+1]-sorted[i])*frac
}
