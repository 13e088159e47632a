// Package report renders experiment results as aligned text tables, ASCII
// bar charts (the terminal stand-ins for the paper's figures), CSV, and
// JSON.
// Deterministic by contract: bit-identical outputs across runs and
// processes (see DESIGN.md §11); machine-checked by simlint.
//
//simlint:deterministic
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Render writes the table to w. Ragged rows are handled: rows shorter than
// the header leave trailing columns empty, and rows wider than the header
// get their extra cells rendered under width-fitted (unnamed) columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			wd := len(c)
			if i < len(widths) { // always true after the width pass; belt and braces
				wd = widths[i]
			}
			fmt.Fprintf(w, "%-*s", wd, c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	total := len(widths)*2 - 2
	if total < 0 {
		total = 0
	}
	for _, wd := range widths {
		total += wd
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
}

// CSV writes headers and rows as comma-separated values, quoting cells that
// contain commas, quotes or line breaks (\n or \r — bare carriage returns
// corrupt unquoted records just like newlines do, RFC 4180 §2).
func CSV(w io.Writer, headers []string, rows [][]string) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n\r") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(headers)
	for _, r := range rows {
		writeRow(r)
	}
}

// CheckFormat reports whether Emit knows the format, so a command can
// refuse a mistyped -format before it simulates anything.
func CheckFormat(format string) error {
	switch format {
	case "", "table", "csv", "json":
		return nil
	}
	return fmt.Errorf("report: unknown format %q (want table, csv or json)", format)
}

// Emit renders the table's headers and rows in the given format: "table"
// (aligned text, the default), "csv", or "json". The title is printed only
// in table form.
func Emit(w io.Writer, format string, t Table) error {
	switch format {
	case "", "table":
		t.Render(w)
		return nil
	case "csv":
		CSV(w, t.Headers, t.Rows)
		return nil
	case "json":
		return JSON(w, t.Headers, t.Rows)
	}
	return CheckFormat(format)
}

// JSON writes rows as a JSON array of objects keyed by the headers,
// preserving header order within each object. All values are emitted as
// strings, mirroring the CSV encoding: cells missing from a short row
// become empty strings, and cells beyond the headers are kept (not
// dropped, matching CSV) under synthesized "colN" keys.
func JSON(w io.Writer, headers []string, rows [][]string) error {
	quote := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil { // cannot happen for strings; keep the emitter total
			return `""`
		}
		return string(b)
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for ri, row := range rows {
		var b strings.Builder
		b.WriteString("  {")
		n := len(headers)
		if len(row) > n {
			n = len(row)
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			key := fmt.Sprintf("col%d", i+1)
			if i < len(headers) {
				key = headers[i]
			}
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			b.WriteString(quote(key))
			b.WriteString(": ")
			b.WriteString(quote(cell))
		}
		b.WriteString("}")
		if ri < len(rows)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// Item is one bar of a Chart.
type Item struct {
	Label string
	Value float64
	Note  string // printed after the value, e.g. a speedup annotation
}

// Chart is a horizontal ASCII bar chart, the terminal rendering used for
// the paper's figures.
type Chart struct {
	Title string
	Unit  string // printed after each value
	Width int    // bar width in characters; 0 → 40
	// LogHint compresses huge ranges: when true, bars scale by log10.
	LogHint bool
	Items   []Item
}

// Add appends one bar.
func (c *Chart) Add(label string, value float64, note string) {
	c.Items = append(c.Items, Item{Label: label, Value: value, Note: note})
}

// String renders the chart.
func (c *Chart) String() string {
	var b strings.Builder
	c.Render(&b)
	return b.String()
}

// Render writes the chart to w.
func (c *Chart) Render(w io.Writer) {
	width := c.Width
	if width <= 0 {
		width = 40
	}
	if c.Title != "" {
		fmt.Fprintf(w, "%s\n", c.Title)
	}
	labelW := 0
	maxV := 0.0
	for _, it := range c.Items {
		if len(it.Label) > labelW {
			labelW = len(it.Label)
		}
		if it.Value > maxV {
			maxV = it.Value
		}
	}
	scale := func(v float64) int {
		if maxV <= 0 || v <= 0 {
			return 0
		}
		f := v / maxV
		if c.LogHint {
			// Map [maxV/1e6, maxV] to (0,1] logarithmically.
			f = 1 + math.Log10(v/maxV)/6
			if f < 0 {
				f = 0
			}
		}
		n := int(f*float64(width) + 0.5)
		if n > width {
			n = width
		}
		if n == 0 && v > 0 {
			n = 1
		}
		return n
	}
	for _, it := range c.Items {
		bar := strings.Repeat("█", scale(it.Value))
		fmt.Fprintf(w, "  %-*s |%-*s %g %s", labelW, it.Label, width, bar, round4(it.Value), c.Unit)
		if it.Note != "" {
			fmt.Fprintf(w, "  (%s)", it.Note)
		}
		fmt.Fprintln(w)
	}
}

func round4(v float64) float64 {
	switch {
	case v >= 1000:
		return float64(int64(v + 0.5))
	case v >= 1:
		return float64(int64(v*100+0.5)) / 100
	default:
		return float64(int64(v*10000+0.5)) / 10000
	}
}
