package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic builds a report of five runs of one workload whose metrics are
// base scaled by factor, each run wobbling by ±noise around that.
func synthetic(workload string, factor, noise float64, failed int) *report {
	rep := &report{Schema: 1, FSType: "ext4"}
	base := map[string]float64{"setup_s": 3, "qps": 3000, "p50_ms": 0.6, "p99_ms": 1.5,
		"cpu_ms_per_op": 0.6, "heap_mb": 14, "space_amp": 1.4}
	for run := 0; run < 5; run++ {
		wobble := 1 + noise*float64(run-2)/2
		r := result{Workload: workload, Attempted: 1000, Failed: failed, Correct: failed == 0, EndToEnd: values{}}
		for _, def := range endToEnd {
			v := base[def.name] * wobble
			if def.higher {
				v /= factor // a factor above 1 is worse in every metric's own direction
			} else {
				v *= factor
			}
			r.EndToEnd[def.name] = value{Value: v, Unit: def.unit}
		}
		rep.Runs = append(rep.Runs, r)
	}
	return rep
}

func verdicts(t *testing.T, oldRep, newRep *report) map[string]string {
	t.Helper()
	rows, _ := compareReports(oldRep, newRep)
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want one per end-to-end metric (%d)", len(rows), len(endToEnd))
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r.def.name] = r.verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	const w = "knn64-serve"
	old := synthetic(w, 1, 0.01, 0)

	// 12 % worse: beyond the tight bounds, within the wide ones. A metric
	// where higher is better is divided by the factor, so it moves by
	// 1 − 1/1.12 = 10.7 % of its base.
	got := verdicts(t, old, synthetic(w, 1.12, 0.01, 0))
	for _, def := range endToEnd {
		moved := 0.12
		if def.higher {
			moved = 1 - 1/1.12
		}
		want := verdictSame
		if moved > def.bound {
			want = verdictWorse
		}
		if got[def.name] != want {
			t.Errorf("+12%% %s (bound %g): %s, want %s", def.name, def.bound, got[def.name], want)
		}
	}

	// 12 % better.
	got = verdicts(t, old, synthetic(w, 1/1.12, 0.01, 0))
	for _, def := range endToEnd {
		moved := 1 - 1/1.12
		if def.higher {
			moved = 0.12
		}
		want := verdictSame
		if moved > def.bound {
			want = verdictBetter
		}
		if got[def.name] != want {
			t.Errorf("-12%% %s (bound %g): %s, want %s", def.name, def.bound, got[def.name], want)
		}
	}

	// Same medians, but runs spread ±30 %: nothing can be resolved.
	for name, v := range verdicts(t, old, synthetic(w, 1, 0.6, 0)) {
		if v != verdictUnresolved {
			t.Errorf("noisy %s: %s, want %s", name, v, verdictUnresolved)
		}
	}
}

func TestCompareSingleRunsUseSegmentSpread(t *testing.T) {
	one := func(min, max float64) *report {
		r := result{Workload: "knn64-serve", Attempted: 10, EndToEnd: values{
			"qps": {Value: 3000, Unit: "op/s", Min: min, Max: max}}}
		return &report{Runs: []result{r}}
	}
	rows, _ := compareReports(one(2950, 3050), one(2950, 3050))
	if len(rows) != 1 || rows[0].verdict != verdictSame {
		t.Errorf("steady single runs: %+v, want same", rows)
	}
	rows, _ = compareReports(one(2950, 3050), one(2000, 3500))
	if rows[0].verdict != verdictUnresolved {
		t.Errorf("a run whose segments spread 50%%: %s, want unresolved", rows[0].verdict)
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const w = "insert64-durable"
	base := write("base.json", synthetic(w, 1, 0.01, 0))
	same := write("same.json", synthetic(w, 1.02, 0.01, 0))
	worse := write("worse.json", synthetic(w, 1.3, 0.01, 0))
	lossy := write("lossy.json", synthetic(w, 1, 0.01, 1))

	var out, errOut bytes.Buffer
	if code := compareFiles(base, same, &out, &errOut); code != 0 {
		t.Errorf("2%% drift: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "of 3000") {
		t.Errorf("ratio is not printed with its base:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(base, worse, &out, &errOut); code == 0 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30%% worse: exit %d, want non-zero and a worse row\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, lossy, &out, &errOut); code == 0 || !strings.Contains(out.String(), "failures rose") {
		t.Errorf("a failed operation: exit %d, want non-zero\n%s", code, out.String())
	}
	if code := compareFiles(base, filepath.Join(dir, "missing.json"), &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
