// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 and Appendix D). Each Fig*/Table* function
// returns a Table whose rows mirror the series the paper plots; the
// cmd/benchfig tool prints them, and bench_test.go wraps them in
// testing.B benchmarks.
//
// Absolute numbers differ from the paper's (different hardware, synthetic
// data substitutes) but the shapes are preserved; the tables cmd/benchfig
// prints are the paper-vs-measured comparison for every artifact.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects the experiment size.
type Scale int

// Scales: CI finishes in seconds (unit-test and benchmark default),
// Small in minutes on a laptop, Paper replays the paper's dimensions
// (millions of series / participants; minutes to hours).
const (
	CI Scale = iota
	Small
	Paper
)

// ParseScale maps "ci", "small", "paper".
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "ci":
		return CI, nil
	case "small":
		return Small, nil
	case "paper":
		return Paper, nil
	}
	return CI, fmt.Errorf("experiments: unknown scale %q (want ci, small, paper)", s)
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case CI:
		return "ci"
	case Small:
		return "small"
	default:
		return "paper"
	}
}

// cerSize returns the number of CER series clustered at this scale.
func (s Scale) cerSize() int {
	switch s {
	case CI:
		return 6_000
	case Small:
		return 150_000
	default:
		return 3_000_000
	}
}

// numedSize returns the number of NUMED series.
func (s Scale) numedSize() int {
	switch s {
	case CI:
		return 6_000
	case Small:
		return 120_000
	default:
		return 1_200_000
	}
}

// k returns the initial number of centroids (the paper uses 50; CI runs
// shrink it so tiny datasets keep meaningful cluster sizes).
func (s Scale) k() int {
	if s == CI {
		return 10
	}
	return 50
}

// repetitions returns how many runs are averaged (the paper uses 10).
func (s Scale) repetitions() int {
	switch s {
	case CI:
		return 1
	case Small:
		return 3
	default:
		return 10
	}
}

// populations returns the gossip population grid of Figures 3(b)/4(a)/4(b).
func (s Scale) populations() []int {
	switch s {
	case CI:
		return []int{1_000, 10_000}
	case Small:
		return []int{1_000, 10_000, 100_000}
	default:
		return []int{1_000, 10_000, 100_000, 1_000_000}
	}
}

// keyBits returns the Damgård–Jurik modulus size for the local-cost
// experiments (the paper uses 1024).
func (s Scale) keyBits() int {
	switch s {
	case CI:
		return 256
	case Small:
		return 512
	default:
		return 1024
	}
}

// a3Replicas returns the duplication factor of the Appendix D dataset
// (paper: 100 → 750K points).
func (s Scale) a3Replicas() int {
	switch s {
	case CI:
		return 4
	case Small:
		return 20
	default:
		return 100
	}
}

// Params carries the experiment inputs.
type Params struct {
	Scale Scale
	Seed  uint64
}

// Table is a rendered experiment result.
type Table struct {
	ID      string // experiment identifier (fig2a, table2, ...)
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a free-form note printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
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
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as CSV (without notes).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// Registry maps experiment ids to their generators.
var Registry = map[string]func(Params) (*Table, error){
	"table2":   Table2,
	"fig2a":    Fig2a,
	"fig2b":    Fig2b,
	"fig2c":    Fig2c,
	"fig2d":    Fig2d,
	"fig2e":    Fig2e,
	"fig2f":    Fig2f,
	"fig3a":    Fig3a,
	"fig3b":    Fig3b,
	"fig4a":    Fig4a,
	"fig4b":    Fig4b,
	"fig5a":    Fig5a,
	"fig5b":    Fig5b,
	"fig6":     Fig6,
	"thm3":     Thm3,
	"ablation": Ablation,
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
