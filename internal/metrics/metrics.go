// Package metrics provides the measurement and reporting layer shared
// by the experiment harness and the live runtime: humanized throughput
// numbers (the paper reports "98.9k words/sec"), scaling efficiency (§1
// footnote 1), aligned paper-vs-measured tables, the per-step
// StepStats / per-loop LoopStats the persistent runtime emits (loss,
// step time, pushed and wire bytes, compute/comm/sync-wait phases,
// overlap fraction), and the shard-map / partition-decision renderers
// the runner and parallax-info print.
package metrics

import (
	"fmt"
	"strings"
)

// Humanize renders a throughput the way the paper's tables do: "5.8k",
// "274k", "437k", plain integers below 1000.
func Humanize(v float64) string {
	switch {
	case v >= 100_000:
		return fmt.Sprintf("%.0fk", v/1000)
	case v >= 10_000:
		return fmt.Sprintf("%.1fk", v/1000)
	case v >= 1_000:
		return fmt.Sprintf("%.1fk", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// HumanBytes renders byte counts ("1.2 GB").
func HumanBytes(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2f GB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1f MB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f KB", v/1e3)
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

// NormalizedThroughput is Figure 9's y-axis: throughput relative to one
// GPU.
func NormalizedThroughput(throughputN, throughput1 float64) float64 {
	if throughput1 <= 0 {
		return 0
	}
	return throughputN / throughput1
}

// Table accumulates rows and renders an aligned plain-text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote line rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Rows returns the row count.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Ratio formats a speedup like the paper's "2.8x".
func Ratio(num, den float64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", num/den)
}
