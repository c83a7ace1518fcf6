package bench

import (
	"fmt"
	"io"
	"strings"
)

// Series is one labeled line of a figure: y values over the shared x axis.
type Series struct {
	Label string
	Y     []float64
}

// Figure is a reproduced paper figure: named series over a common x axis,
// printable as an aligned text table (one row per x value).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Print writes the figure as an aligned table.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", f.Title)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", len(f.Title)))
	fmt.Fprintf(w, "y-axis: %s\n", f.YLabel)
	widths := make([]int, len(f.Series))
	for i, s := range f.Series {
		widths[i] = len(s.Label) + 2
		if widths[i] < 16 {
			widths[i] = 16
		}
	}
	fmt.Fprintf(w, "%14s", f.XLabel)
	for i, s := range f.Series {
		fmt.Fprintf(w, "%*s", widths[i], s.Label)
	}
	fmt.Fprintln(w)
	for i, x := range f.X {
		fmt.Fprintf(w, "%14g", x)
		for si, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(w, "%*.6g", widths[si], s.Y[i])
			} else {
				fmt.Fprintf(w, "%*s", widths[si], "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// Table is a reproduced paper table: free-form rows under named columns.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Print writes the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "\n%s\n", t.Title)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", len(t.Title)))
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(w, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
}
