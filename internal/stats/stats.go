// Package stats provides the aggregation and formatting helpers the
// experiment harness uses to report the paper's figures: speedups,
// harmonic means, normalized cycle stacks, and aligned text tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// HarmonicMeanSpeedup returns the harmonic mean of per-benchmark speedups,
// the aggregation the paper reports ("the overall average speedup is 1.29
// (harmonic mean)", §6.1). A NaN input (an unmeasurable speedup, e.g.
// blp.Speedup against a zero-cycle run) propagates to a NaN mean rather
// than being silently averaged in or dropped, so a poisoned series is
// visible in the output.
func HarmonicMeanSpeedup(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	var inv float64
	for _, s := range speedups {
		if math.IsNaN(s) {
			return math.NaN()
		}
		if s <= 0 {
			return 0
		}
		inv += 1 / s
	}
	return float64(len(speedups)) / inv
}

// Table accumulates rows and renders them with aligned columns, suitable
// for terminal output and for pasting next to the paper's figures.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// Rows returns the formatted cells, row-major, in insertion order — the
// machine-readable form of exactly what String renders, so a JSON export
// and the text table can never disagree.
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
