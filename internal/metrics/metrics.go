// Package metrics provides the one quantile estimator and plain-text
// rendering (tables and series) for the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Every latency and pause percentile the system reports is a
// *nearest-rank* quantile: the smallest observed value x such that at
// least p% of the observations are at most x, the conventional reading of
// "p999" for SLO reporting. The choice is load-bearing for the fleet's
// property tests: the nearest-rank p-quantile of merged series is provably
// sandwiched between the minimum and maximum of the per-series
// p-quantiles (DESIGN.md §13), a bound that linearly interpolated sample
// quantiles violate on small inputs.

// Percentile returns the nearest-rank p-quantile (0..100) of values, which
// need not be sorted: Quantile of a sorted copy. It returns NaN for an
// empty slice.
func Percentile(values []float64, p float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return Quantile(s, p)
}

// Quantile returns the nearest-rank p-quantile (p in 0..100) of an
// ascending series: the element at rank ceil(p/100 * n). It returns NaN
// for an empty series; p <= 0 (or NaN) selects the minimum, p >= 100 the
// maximum. p is read to a millionth of a percent and the rank is computed
// in integers: in floats, 99.9/100·1000 is 999.0000000000001, and the
// p999 of 1000 samples would be their maximum.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if !(p > 0) {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	const scale = 100 * 1e6
	pm := uint64(math.Round(p * 1e6))
	hi, lo := bits.Mul64(pm, uint64(n))
	q, rem := bits.Div64(hi, lo, scale) // hi < pm <= scale, so no overflow
	r := int(q)
	if rem != 0 {
		r++
	}
	r = min(max(r, 1), n)
	return sorted[r-1]
}

// Table is a rectangular result table rendered as aligned plain text or
// CSV — the harness's equivalent of one paper table/figure panel.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly (3 significant decimals).
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Render returns the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
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
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table as comma-separated values (no quoting needed for
// the harness's numeric content; commas in cells are replaced).
func (t *Table) CSV() string {
	var b strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(clean(c))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(clean(cell))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
