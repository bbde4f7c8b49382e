// Package experiments contains one harness per table/figure of the paper's
// evaluation (§6): each builds the figure's dataset, runs the workload under
// the three systems, and returns both structured results (for tests and
// benchmarks) and printable tables with the same rows/series the paper
// reports. The per-experiment index in DESIGN.md maps each harness to its
// figure.
package experiments

import (
	"fmt"
	"strings"
)

// Options tunes harness scale.
type Options struct {
	// Quick shrinks datasets so a harness finishes in roughly a second;
	// used by unit tests and the smoke benchmarks. Full-scale runs (the
	// default) regenerate the figures at the scaled-down sizes recorded
	// in DESIGN.md (§3).
	Quick bool
	// Seed offsets all dataset and noise seeds, for replication studies.
	Seed uint64
	// Parallelism bounds each workload run's report-generation worker
	// pool (0 = GOMAXPROCS, 1 = sequential). Results are identical for
	// any value; the knob only trades wall-clock for cores.
	Parallelism int
}

// Table is a printable result table: one per figure panel.
type Table struct {
	// ID names the panel, e.g. "fig4a".
	ID string
	// Title describes the panel, e.g. "avg budget vs knob1".
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
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
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// f formats a float compactly for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
