package bench

import (
	"strings"
	"testing"
)

func TestFigurePrintGolden(t *testing.T) {
	fig := &Figure{
		Title:  "Test figure",
		XLabel: "dims",
		YLabel: "cost",
		X:      []float64{8, 16},
		Series: []Series{
			{Label: "alpha", Y: []float64{1.5, 2.25}},
			{Label: "a-much-longer-label", Y: []float64{0.125}},
		},
	}
	var sb strings.Builder
	fig.Print(&sb)
	out := sb.String()
	want := []string{
		"Test figure",
		"y-axis: cost",
		"alpha",
		"a-much-longer-label",
		"1.5",
		"2.25",
		"0.125",
		"-", // missing point rendered as a dash
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
	// Header and rows must align: every line the same number of columns.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
	// The long label's column must be wide enough to keep rows aligned.
	header := lines[3]
	if !strings.Contains(header, "a-much-longer-label") {
		t.Fatalf("header mangled: %q", header)
	}
}

func TestFigureGet(t *testing.T) {
	fig := &Figure{Series: []Series{{Label: "x"}, {Label: "y"}}}
	if fig.get("y") == nil || fig.get("nope") != nil {
		t.Fatal("Get misbehaves")
	}
}

func TestTablePrintGolden(t *testing.T) {
	tab := &Table{
		Title:   "Test table",
		Columns: []string{"a", "long-column"},
		Rows: [][]string{
			{"wide-cell-content", "x"},
			{"y", "z"},
		},
	}
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	for _, w := range []string{"Test table", "long-column", "wide-cell-content"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
	// Column widths adapt to the widest cell: the second column of row 2
	// must start at the same offset as the header's second column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	head := lines[2]
	row2 := lines[4]
	if strings.Index(head, "long-column") != strings.Index(row2, "z") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestOptionsPresets(t *testing.T) {
	d := Defaults()
	p := Paper()
	if p.FourierN != 400000 || p.ColHistN != 70000 {
		t.Fatalf("paper preset = %+v", p)
	}
	if d.FourierN >= p.FourierN {
		t.Fatal("defaults should be smaller than paper scale")
	}
	// Zero options fill in defaults.
	var o Options
	o = o.withDefaults()
	if o.FourierN != d.FourierN || o.Queries != d.Queries || o.PageSize != d.PageSize || o.Seed != d.Seed {
		t.Fatalf("withDefaults = %+v", o)
	}
	// Explicit values survive.
	o2 := Options{ColHistN: 123, Queries: 7}.withDefaults()
	if o2.ColHistN != 123 || o2.Queries != 7 {
		t.Fatalf("withDefaults clobbered explicit values: %+v", o2)
	}
}

func TestFig6RejectsUnknownDataset(t *testing.T) {
	if _, _, err := Fig6(small(), "NOPE"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// get returns the series with the given label, or nil.
func (f *Figure) get(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}
