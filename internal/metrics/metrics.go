// Package metrics collects latency samples and renders the CDFs, series
// and tables that the benchmark harness prints for each figure in the
// paper. It is deliberately simulation-agnostic: it only sees durations.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Series is a named collection of duration samples, e.g. one line on a
// figure ("Jitsu Xenstored") or one bar of a breakdown.
type Series struct {
	Name    string
	Samples []time.Duration
}

// Add appends one observation.
func (s *Series) Add(d time.Duration) { s.Samples = append(s.Samples, d) }

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Samples) }

// sorted returns a sorted copy, leaving Samples untouched.
func (s *Series) sorted() []time.Duration {
	c := make([]time.Duration, len(s.Samples))
	copy(c, s.Samples)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// Percentile returns the q-th (0..1) percentile by linear interpolation.
// Each call sorts a copy of the samples; when reading several quantiles
// of the same series together, build a Summarize() digest instead.
func (s *Series) Percentile(q float64) time.Duration {
	return percentile(s.sorted(), q)
}

// percentile interpolates the q-th quantile from an already-sorted
// sample set.
func percentile(c []time.Duration, q float64) time.Duration {
	if len(c) == 0 {
		return 0
	}
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	idx := q * float64(len(c)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + time.Duration(float64(c[lo+1]-c[lo])*frac)
}

// Summary is a sorted-once distribution digest: building one costs a
// single sort, after which every quantile read is an index. Use it
// wherever several quantiles of one series are read together (result
// tables, CDF plots) — Series.Percentile re-sorts on every call.
type Summary struct {
	Name   string
	sorted []time.Duration
}

// Summarize sorts the series once and returns the digest. Samples added
// to the series afterwards are not reflected.
func (s *Series) Summarize() *Summary {
	return &Summary{Name: s.Name, sorted: s.sorted()}
}

// Len returns the number of observations in the digest.
func (d *Summary) Len() int { return len(d.sorted) }

// Percentile returns the q-th (0..1) percentile without re-sorting.
func (d *Summary) Percentile(q float64) time.Duration { return percentile(d.sorted, q) }

// Min returns the smallest observation (0 when empty).
func (d *Summary) Min() time.Duration { return percentile(d.sorted, 0) }

// Max returns the largest observation (0 when empty).
func (d *Summary) Max() time.Duration { return percentile(d.sorted, 1) }

// P50 and P95 are the quantiles every results table reads.
func (d *Summary) P50() time.Duration { return percentile(d.sorted, 0.5) }
func (d *Summary) P95() time.Duration { return percentile(d.sorted, 0.95) }

// Mean returns the arithmetic mean.
func (d *Summary) Mean() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d.sorted {
		sum += v
	}
	return sum / time.Duration(len(d.sorted))
}

// Mean returns the arithmetic mean.
func (s *Series) Mean() time.Duration {
	if len(s.Samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.Samples {
		sum += v
	}
	return sum / time.Duration(len(s.Samples))
}

// Min returns the smallest observation (0 when empty).
func (s *Series) Min() time.Duration {
	c := s.sorted()
	if len(c) == 0 {
		return 0
	}
	return c[0]
}

// Max returns the largest observation (0 when empty).
func (s *Series) Max() time.Duration {
	c := s.sorted()
	if len(c) == 0 {
		return 0
	}
	return c[len(c)-1]
}

// FracBelow reports what fraction of samples are <= v.
func (s *Series) FracBelow(v time.Duration) float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	n := 0
	for _, x := range s.Samples {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(s.Samples))
}

// Summary is a one-line distribution description used in experiment logs.
func (s *Series) Summary() string {
	d := s.Summarize()
	return fmt.Sprintf("%s: n=%d min=%s p50=%s p90=%s p99=%s max=%s mean=%s",
		s.Name, d.Len(), fmtDur(d.Min()), fmtDur(d.Percentile(0.5)),
		fmtDur(d.Percentile(0.9)), fmtDur(d.Percentile(0.99)), fmtDur(d.Max()), fmtDur(d.Mean()))
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}

// Table renders aligned text tables for EXPERIMENTS.md and stdout.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable constructs a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = fmtDur(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	ncol := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// ASCIICDF renders series as a rough textual CDF plot: one row per
// quantile band, showing each series' value. Good enough to eyeball the
// figure shapes in a terminal.
func ASCIICDF(title string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (CDF) ==\n", title)
	tab := NewTable("", append([]string{"pct"}, names(series)...)...)
	digests := make([]*Summary, len(series))
	for i, s := range series {
		digests[i] = s.Summarize()
	}
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0} {
		row := []any{fmt.Sprintf("p%02.0f", q*100)}
		for _, d := range digests {
			row = append(row, d.Percentile(q))
		}
		tab.AddRow(row...)
	}
	b.WriteString(tab.String())
	return b.String()
}

func names(series []*Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}
