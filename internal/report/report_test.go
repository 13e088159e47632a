package report

import (
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"Device", "Time"}}
	tb.Add("Xeon", "1.5")
	tb.Add("RaspberryPi4", "12")
	out := tb.String()
	if !strings.Contains(out, "T\n") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d: %q", len(lines), out)
		}
	}
	// Columns align: "Time" starts at the same offset in header and rows.
	hdr := lines[1]
	off := strings.Index(hdr, "Time")
	for _, ln := range lines[3:] {
		cell := ln[off:]
		if !strings.HasPrefix(cell, "1.5") && !strings.HasPrefix(cell, "12") {
			t.Errorf("misaligned row: %q", ln)
		}
	}
}

func TestCSVQuoting(t *testing.T) {
	var b strings.Builder
	CSV(&b, []string{"a", "b"}, [][]string{{"x,y", `he said "hi"`}})
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestChartBarsScale(t *testing.T) {
	c := Chart{Title: "bw", Unit: "GB/s", Width: 10}
	c.Add("big", 10, "")
	c.Add("half", 5, "note")
	c.Add("zero", 0, "")
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	count := func(s string) int { return strings.Count(s, "█") }
	if count(lines[1]) != 10 {
		t.Errorf("max bar = %d blocks, want 10", count(lines[1]))
	}
	if got := count(lines[2]); got != 5 {
		t.Errorf("half bar = %d blocks, want 5", got)
	}
	if count(lines[3]) != 0 {
		t.Error("zero bar not empty")
	}
	if !strings.Contains(lines[2], "(note)") {
		t.Error("missing note")
	}
}

func TestChartLogHintCompresses(t *testing.T) {
	lin := Chart{Width: 60}
	lin.Add("a", 1000, "")
	lin.Add("b", 1, "")
	log := Chart{Width: 60, LogHint: true}
	log.Add("a", 1000, "")
	log.Add("b", 1, "")
	nbar := func(c Chart) int {
		lines := strings.Split(c.String(), "\n")
		return strings.Count(lines[1], "█")
	}
	if nbar(log) <= nbar(lin) {
		t.Errorf("log scaling did not widen the small bar: log=%d lin=%d", nbar(log), nbar(lin))
	}
}

func TestRound4(t *testing.T) {
	cases := map[float64]float64{
		1234.6:    1235,
		12.345678: 12.35,
		0.0123456: 0.0123,
	}
	for in, want := range cases {
		if got := round4(in); got != want {
			t.Errorf("round4(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestJSON(t *testing.T) {
	var b strings.Builder
	err := JSON(&b, []string{"device", "note"}, [][]string{
		{"Xeon", `says "hi", ok`},
		{"MangoPi"},                  // short row: missing cells become empty strings
		{"VisionFive", "x", "extra"}, // long row: extras kept under colN keys, like CSV
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]string
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("emitted invalid JSON: %v\n%s", err, b.String())
	}
	want := []map[string]string{
		{"device": "Xeon", "note": `says "hi", ok`},
		{"device": "MangoPi", "note": ""},
		{"device": "VisionFive", "note": "x", "col3": "extra"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSON = %v, want %v", got, want)
	}
	// Header order must be preserved in the serialized objects.
	if !strings.Contains(b.String(), `"device": "Xeon", "note"`) {
		t.Errorf("header order not preserved:\n%s", b.String())
	}
}

func TestEmit(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a"}, Rows: [][]string{{"1"}}}
	for _, format := range []string{"", "table", "csv", "json"} {
		var b strings.Builder
		if err := CheckFormat(format); err != nil {
			t.Errorf("CheckFormat(%q): %v", format, err)
		}
		if err := Emit(&b, format, tb); err != nil {
			t.Errorf("Emit(%q): %v", format, err)
		}
		if !strings.Contains(b.String(), "1") {
			t.Errorf("Emit(%q) lost the row:\n%s", format, b.String())
		}
	}
	if Emit(io.Discard, "xml", tb) == nil || CheckFormat("xml") == nil {
		t.Error("unknown format accepted")
	}
}

// TestTableRaggedRows is the regression test for the ragged-row panic: the
// width pass guarded i < len(widths) but line() indexed widths[i] unguarded,
// so any row wider than the header crashed Render.
func TestTableRaggedRows(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.Add("1")                                    // shorter than the header
	tb.Add("1", "2", "an-extra-wide-cell", "tail") // wider than the header
	tb.Add("longer-than-header", "2")
	out := tb.String() // must not panic
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count %d: %q", len(lines), out)
	}
	// lines: 0 header, 1 separator, 2 short row, 3 ragged row, 4 long row.
	if !strings.Contains(lines[3], "an-extra-wide-cell") {
		t.Errorf("extra cells dropped: %q", lines[3])
	}
	// Alignment still holds for the named columns: "b" and the row cells
	// under it start at the same offset.
	off := strings.Index(lines[0], "b")
	if lines[3][off] != '2' || lines[4][off] != '2' {
		t.Errorf("misaligned ragged table:\n%s", out)
	}
	// The separator spans the widened table.
	if w := len(lines[1]); w < len(strings.TrimRight(lines[3], " "))-6 {
		t.Errorf("separator width %d too short for rows: %q", w, out)
	}

	// Degenerate tables render without panicking too.
	empty := Table{}
	_ = empty.String()
	headerless := Table{Rows: [][]string{{"just", "cells"}}}
	if !strings.Contains(headerless.String(), "just") {
		t.Error("headerless table lost its rows")
	}
}

// TestCSVQuotesCarriageReturn: \r must be quoted like \n (RFC 4180), or a
// bare carriage return silently splits the record in many readers.
func TestCSVQuotesCarriageReturn(t *testing.T) {
	var b strings.Builder
	CSV(&b, []string{"a"}, [][]string{{"line\rbreak"}, {"crlf\r\nbreak"}})
	want := "a\n\"line\rbreak\"\n\"crlf\r\nbreak\"\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}
