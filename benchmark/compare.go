package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(vs, n=4)
// (the default "exclusive" method) computes them, which is what the driver
// applies to its ten runs. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// side is one report's observations of one metric on one workload.
type side struct {
	median float64
	spread float64 // share of the median
}

// observe folds the runs of a metric. With four or more runs the spread is
// the interquartile range over runs; with fewer it is the widest in-run
// segment spread (max − min over the five segments), the only spread a
// single run knows.
func observe(vals []value) side {
	var xs []float64
	for _, v := range vals {
		xs = append(xs, v.Value)
	}
	s := side{median: median(xs)}
	if s.median == 0 {
		return s
	}
	if len(xs) >= 4 {
		q1, q3 := quartiles(xs)
		s.spread = (q3 - q1) / math.Abs(s.median)
		return s
	}
	for _, v := range vals {
		if v.Min != 0 || v.Max != 0 {
			s.spread = max(s.spread, (v.Max-v.Min)/math.Abs(s.median))
		}
	}
	return s
}

// judge applies a metric's bound. worse is how much worse new is than old
// as a share of old, in the metric's own direction (negative = better).
func judge(def metricDef, old, new side) (verdict string, worse float64) {
	if old.median == 0 {
		return verdictUnresolved, 0
	}
	worse = (new.median - old.median) / math.Abs(old.median)
	if def.higher {
		worse = -worse
	}
	switch {
	case old.spread > def.bound || new.spread > def.bound:
		return verdictUnresolved, worse
	case worse > def.bound:
		return verdictWorse, worse
	case worse < -def.bound:
		return verdictBetter, worse
	}
	return verdictSame, worse
}

type row struct {
	workload string
	def      metricDef
	old, new side
	verdict  string
	worse    float64
}

// compareReports judges every end-to-end metric of every workload present
// in both reports, and the failure counts.
func compareReports(oldRep, newRep *report) (rows []row, failRise []string) {
	collect := func(rep *report) (map[string]map[string][]value, map[string][2]int) {
		byMetric := map[string]map[string][]value{}
		fails := map[string][2]int{}
		for _, r := range rep.Runs {
			if byMetric[r.Workload] == nil {
				byMetric[r.Workload] = map[string][]value{}
			}
			for name, v := range r.EndToEnd {
				byMetric[r.Workload][name] = append(byMetric[r.Workload][name], v)
			}
			f := fails[r.Workload]
			fails[r.Workload] = [2]int{f[0] + r.Failed, f[1] + r.Attempted}
		}
		return byMetric, fails
	}
	oldM, oldF := collect(oldRep)
	newM, newF := collect(newRep)
	for _, w := range workloads {
		if oldM[w.name] == nil || newM[w.name] == nil {
			continue
		}
		for _, def := range endToEnd {
			ov, nv := oldM[w.name][def.name], newM[w.name][def.name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			r := row{workload: w.name, def: def, old: observe(ov), new: observe(nv)}
			r.verdict, r.worse = judge(def, r.old, r.new)
			rows = append(rows, r)
		}
		of, nf := oldF[w.name], newF[w.name]
		if ratio(float64(nf[0]), float64(nf[1])) > ratio(float64(of[0]), float64(of[1])) {
			failRise = append(failRise, fmt.Sprintf("%s: failed %d/%d -> %d/%d", w.name, of[0], of[1], nf[0], nf[1]))
		}
	}
	return rows, failRise
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &rep, nil
}

// compareFiles prints one row per (workload, metric) and returns the exit
// code: non-zero on any worse row or any rise in failures.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !oldRep.Env.SameMachine(newRep.Env) || oldRep.FSType != newRep.FSType {
		fmt.Fprintf(stdout, "note: the reports come from different machines or filesystems (%s/%s vs %s/%s); timings are not comparable\n",
			oldRep.Env.CPUModel, oldRep.FSType, newRep.Env.CPUModel, newRep.FSType)
	}
	fmt.Fprintf(stdout, "old: %s (commit %s, %d runs)  new: %s (commit %s, %d runs)\n",
		oldPath, oldRep.Env.Commit, len(oldRep.Runs), newPath, newRep.Env.Commit, len(newRep.Runs))
	fmt.Fprintf(stdout, "%-18s %-14s %12s %12s %22s %7s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "new/old (base = old)", "bound", "spread o", "spread n", "verdict")
	rows, failRise := compareReports(oldRep, newRep)
	exit := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-18s %-14s %12.6g %12.6g %11.4f of %-7.4g %6.1f%% %7.1f%% %7.1f%%  %s\n",
			r.workload, r.def.name, r.old.median, r.new.median, ratio(r.new.median, r.old.median), r.old.median,
			100*r.def.bound, 100*r.old.spread, 100*r.new.spread, r.verdict)
		if r.verdict == verdictWorse {
			exit = 1
		}
	}
	for _, f := range failRise {
		fmt.Fprintln(stdout, "failures rose:", f)
		exit = 1
	}
	return exit
}
