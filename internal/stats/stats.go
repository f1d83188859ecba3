// Package stats provides the metric plumbing for the simulator: latency
// accumulators, ratio helpers, weighted speedup, and fixed-width table
// rendering used by the experiment harness to print paper-style rows.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// LatencyAcc accumulates a latency distribution cheaply (sum, count, max).
type LatencyAcc struct {
	Sum   uint64
	Count uint64
	Max   uint64
}

// Add records one observation.
func (l *LatencyAcc) Add(v uint64) {
	l.Sum += v
	l.Count++
	if v > l.Max {
		l.Max = v
	}
}

// Mean returns the average, or 0 when empty.
func (l *LatencyAcc) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// Merge folds other into l.
func (l *LatencyAcc) Merge(other LatencyAcc) {
	l.Sum += other.Sum
	l.Count += other.Count
	if other.Max > l.Max {
		l.Max = other.Max
	}
}

// Ratio returns a/b, or 0 when b is zero. Used for hit rates, accuracies and
// coverages throughout the harness.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// SafeDiv returns a/b, or 0 when b is zero.
func SafeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// WeightedSpeedup computes sum_i(ipcShared[i]/ipcAlone[i]) — the system
// throughput metric the paper reports (Snavely & Tullsen).
func WeightedSpeedup(ipcShared, ipcAlone []float64) float64 {
	if len(ipcShared) != len(ipcAlone) {
		panic("stats: weighted speedup slice length mismatch")
	}
	var ws float64
	for i := range ipcShared {
		ws += SafeDiv(ipcShared[i], ipcAlone[i])
	}
	return ws
}

// Mean returns the arithmetic mean, or 0 when empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Table is a simple fixed-width table renderer for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is a named sequence of (label, value) points — one figure line.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Add appends a point.
func (s *Series) Add(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}

// Mean of the series values.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// String renders "name: label=value ..." for logs.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", s.Name)
	for i := range s.Labels {
		fmt.Fprintf(&b, " %s=%.3f", s.Labels[i], s.Values[i])
	}
	return b.String()
}

// SortedKeys returns map keys in sorted order, for deterministic iteration.
func SortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	//clipvet:orderfree collect-only; sorted before return
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
