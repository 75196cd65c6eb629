// Package report renders experiment results as aligned ASCII tables,
// (x, y) series, and CSV — the formats the benchmark harness prints when
// regenerating the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Table is a simple column-aligned table.
type Table struct {
	// Title is printed above the table.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the cells, already formatted.
	Rows [][]string
	// Notes are printed below the table, one per line.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals,
// large values with thousands grouping, small values with 3 significant
// decimals.
func FormatFloat(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Write(&b)
	return b.String()
}

// WriteCSV renders the table as CSV (header + rows, no title/notes).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// Series is one named (x, y) data series, the unit of figure reproduction.
type Series struct {
	// Name labels the series (e.g. "pc = 0.999").
	Name string
	// X and Y are the coordinates, parallel slices.
	X, Y []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing axes, mirroring one paper figure.
type Figure struct {
	// Title, XLabel and YLabel annotate the figure.
	Title, XLabel, YLabel string
	// Series are the plotted lines.
	Series []*Series
	// Notes are printed below the figure's table, one per line.
	Notes []string
}

// Table renders the figure as a table with one x column and one column
// per series, and the figure's notes, suitable for terminal output and
// regression capture.
func (f *Figure) Table() *Table {
	t := &Table{Title: f.Title, Notes: slices.Clone(f.Notes)}
	t.Header = append(t.Header, f.XLabel)
	for _, s := range f.Series {
		name := s.Name
		if name == "" {
			name = f.YLabel
		}
		t.Header = append(t.Header, name)
	}
	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := make(map[float64]int)
	for _, s := range f.Series {
		for _, x := range s.X {
			if _, ok := seen[x]; !ok {
				seen[x] = len(xs)
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		row := []string{FormatFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = FormatFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// String renders the figure as its table form.
func (f *Figure) String() string { return f.Table().String() }
