package bench

import (
	"fmt"
	"strings"
	"testing"
)

// small returns an Options scale that keeps harness tests fast while still
// building multi-level trees.
func small() Options {
	return Options{FourierN: 12000, ColHistN: 9000, Queries: 15, PageSize: 4096, Seed: 1}
}

func TestFig5abShape(t *testing.T) {
	figA, figB, err := Fig5ab(small())
	if err != nil {
		t.Fatal(err)
	}
	eda := figA.get("EDA-optimal")
	vam := figA.get("VAM")
	if eda == nil || vam == nil {
		t.Fatal("missing series")
	}
	if len(eda.Y) != len(ColHistDims) {
		t.Fatalf("series length %d", len(eda.Y))
	}
	// Paper shape: EDA consistently at or below VAM. Allow a small noise
	// band at the lowest dimensionality where both are cheap.
	for i := range eda.Y {
		if eda.Y[i] > vam.Y[i]*1.15 {
			t.Errorf("dim %g: EDA %.1f worse than VAM %.1f", figA.X[i], eda.Y[i], vam.Y[i])
		}
	}
	if figB.get("EDA-optimal") == nil {
		t.Fatal("missing CPU series")
	}
	var sb strings.Builder
	figA.Print(&sb)
	figB.Print(&sb)
	t.Log(sb.String())
}

func TestFig5cShape(t *testing.T) {
	fig, err := Fig5c(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(ColHistDims) {
		t.Fatalf("got %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		// Paper shape: no-ELS (bits=0) is the worst; 4 bits captures most
		// of the gain; adding more bits never hurts much.
		noELS := s.Y[0]
		fourBits := yAt(fig, s.Label, 4)
		sixteen := yAt(fig, s.Label, 16)
		if fourBits > noELS {
			t.Errorf("%s: 4-bit ELS (%.1f) worse than no ELS (%.1f)", s.Label, fourBits, noELS)
		}
		if sixteen > fourBits*1.05+1 {
			t.Errorf("%s: 16-bit (%.1f) worse than 4-bit (%.1f)", s.Label, sixteen, fourBits)
		}
		// The drop must be material (dead space exists on clustered data).
		if noELS > 0 && (noELS-fourBits)/noELS < 0.02 {
			t.Logf("note %s: ELS gain only %.1f%%", s.Label, 100*(noELS-fourBits)/noELS)
		}
	}
	var sb strings.Builder
	fig.Print(&sb)
	t.Log(sb.String())
}

func yAt(fig *Figure, label string, x float64) float64 {
	s := fig.get(label)
	for i, xv := range fig.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return -1
}

func TestFig6ColHistShape(t *testing.T) {
	figIO, figCPU, err := Fig6(small(), "COLHIST")
	if err != nil {
		t.Fatal(err)
	}
	hybrid := figIO.get("Hybrid Tree")
	hb := figIO.get("hB-tree")
	sr := figIO.get("SR-tree")
	for i := range figIO.X {
		// Headline result: the hybrid tree beats both competitors on I/O
		// at every dimensionality. At this test's reduced scale the
		// SR-tree is still shallow, so allow a 10% noise band against it;
		// the default-scale runs in EXPERIMENTS.md show the strict win.
		if hybrid.Y[i] >= hb.Y[i] {
			t.Errorf("dim %g: hybrid IO %.4f not better than hB %.4f", figIO.X[i], hybrid.Y[i], hb.Y[i])
		}
		if hybrid.Y[i] >= sr.Y[i]*1.10 {
			t.Errorf("dim %g: hybrid IO %.4f not within 10%% of SR %.4f", figIO.X[i], hybrid.Y[i], sr.Y[i])
		}
	}
	// The hB-vs-SR ordering and the scan-line crossing are scale- and
	// data-dependent (see EXPERIMENTS.md); at this test's reduced scale we
	// report them without failing.
	last := len(figIO.X) - 1
	if hb.Y[last] >= sr.Y[last] {
		t.Logf("note: hB %.4f vs SR %.4f at 64-d (paper order needs its real data; FOURIER reproduces it)", hb.Y[last], sr.Y[last])
	}
	for i := range figIO.X {
		if hybrid.Y[i] >= 0.1 {
			t.Logf("note: hybrid IO %.4f above the 0.1 scan line at dim %g (crosses below at larger N)", hybrid.Y[i], figIO.X[i])
		}
	}
	var sb strings.Builder
	figIO.Print(&sb)
	figCPU.Print(&sb)
	t.Log(sb.String())
}

func TestFig6FourierShape(t *testing.T) {
	figIO, _, err := Fig6(small(), "FOURIER")
	if err != nil {
		t.Fatal(err)
	}
	hybrid := figIO.get("Hybrid Tree")
	sr := figIO.get("SR-tree")
	hb := figIO.get("hB-tree")
	for i := range figIO.X {
		// On FOURIER the paper's full ordering reproduces: hybrid < hB < SR.
		if hybrid.Y[i] >= sr.Y[i] {
			t.Errorf("dim %g: hybrid %.4f not better than SR %.4f", figIO.X[i], hybrid.Y[i], sr.Y[i])
		}
		if hybrid.Y[i] >= hb.Y[i] {
			t.Errorf("dim %g: hybrid %.4f not better than hB %.4f", figIO.X[i], hybrid.Y[i], hb.Y[i])
		}
		if hb.Y[i] >= sr.Y[i] {
			t.Errorf("dim %g: hB %.4f not better than SR %.4f", figIO.X[i], hb.Y[i], sr.Y[i])
		}
	}
	var sb strings.Builder
	figIO.Print(&sb)
	t.Log(sb.String())
}

func TestFig7abShape(t *testing.T) {
	figIO, _, err := Fig7ab(small())
	if err != nil {
		t.Fatal(err)
	}
	hybrid := figIO.get("Hybrid Tree")
	sr := figIO.get("SR-tree")
	if len(hybrid.Y) != 6 {
		t.Fatalf("expected 6 sizes, got %d", len(hybrid.Y))
	}
	for i := range figIO.X {
		if hybrid.Y[i] >= sr.Y[i] {
			t.Errorf("n=%gK: hybrid %.4f not better than SR %.4f", figIO.X[i], hybrid.Y[i], sr.Y[i])
		}
	}
	// Paper: hybrid's normalized cost does not blow up with N (sublinear
	// absolute growth). Require the largest size to be within 2x of the
	// smallest normalized cost.
	first, last := hybrid.Y[0], hybrid.Y[len(hybrid.Y)-1]
	if last > first*2 {
		t.Errorf("hybrid normalized IO grew from %.4f to %.4f with N", first, last)
	}
	var sb strings.Builder
	figIO.Print(&sb)
	t.Log(sb.String())
}

func TestFig7cdShape(t *testing.T) {
	figIO, figCPU, err := Fig7cd(small())
	if err != nil {
		t.Fatal(err)
	}
	hybrid := figIO.get("Hybrid Tree")
	sr := figIO.get("SR-tree")
	if figIO.get("linear scan") == nil || figCPU.get("linear scan") == nil {
		t.Fatal("missing scan reference")
	}
	for i := range figIO.X {
		// Same 10% small-scale noise band as the Figure 6 check.
		if hybrid.Y[i] >= sr.Y[i]*1.10 {
			t.Errorf("dim %g: hybrid L1 %.4f not within 10%% of SR %.4f", figIO.X[i], hybrid.Y[i], sr.Y[i])
		}
	}
	var sb strings.Builder
	figIO.Print(&sb)
	t.Log(sb.String())
}

func TestTable1(t *testing.T) {
	o := small()
	tab, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	t.Log(out)
	// The hybrid row must show identical fanout at 16-d and 64-d is not
	// required (utilization varies), but the *capacity* independence is
	// checked in core tests; here require the audit found redundancy in hB
	// and cascades in KDB.
	if !strings.Contains(out, "cascades") {
		t.Error("KDB cascade audit missing")
	}
	if !strings.Contains(out, "ref ratio") {
		t.Error("hB redundancy audit missing")
	}
}

func TestTable2(t *testing.T) {
	tab, err := Table2(small())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tab.Print(&sb)
	t.Log(sb.String())
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
}

func TestAblations(t *testing.T) {
	o := small()
	fig, err := AblationSplitPosition(o)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fig.Print(&sb)

	fig2, err := AblationQuerySide(o)
	if err != nil {
		t.Fatal(err)
	}
	fig2.Print(&sb)

	tab, err := AblationELSMemory(o)
	if err != nil {
		t.Fatal(err)
	}
	tab.Print(&sb)
	t.Log(sb.String())
	// The paper's <1% ELS overhead claim is stated for 8K pages and 4-bit
	// precision; verify it under exactly those parameters.
	checked := false
	for _, row := range tab.Rows {
		if row[1] != "8192" || row[2] != "4" {
			continue
		}
		checked = true
		var v float64
		if _, err := fmt.Sscanf(row[5], "%f%%", &v); err != nil {
			t.Fatalf("unparseable overhead %q", row[5])
		}
		if v >= 1.0 {
			t.Errorf("ELS overhead %s at dim %s exceeds 1%% (8K pages, 4 bits)", row[5], row[0])
		}
	}
	if !checked {
		t.Fatal("no 8K/4-bit rows in the ELS memory table")
	}
}
