package experiments

import (
	"strings"
	"testing"
)

// TestPct pins the percentage formatter, in particular the zero-denominator
// guard every summary row relies on.
func TestPct(t *testing.T) {
	cases := []struct {
		num, den int
		want     string
	}{
		{0, 0, "n/a"},
		{5, 0, "n/a"},
		{0, 10, "0.0%"},
		{1, 3, "33.3%"},
		{2, 3, "66.7%"},
		{10, 10, "100.0%"},
		{207, 100, "207.0%"},
	}
	for _, c := range cases {
		if got := pct(c.num, c.den); got != c.want {
			t.Errorf("pct(%d, %d) = %q, want %q", c.num, c.den, got, c.want)
		}
	}
}

// TestConfusionRecord drives record through all four quadrants.
func TestConfusionRecord(t *testing.T) {
	var c Confusion
	c.record(true, true)   // TP
	c.record(true, true)   // TP
	c.record(true, false)  // FP
	c.record(false, false) // TN
	c.record(false, true)  // FN
	if c.TP != 2 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v, want TP=2 FP=1 TN=1 FN=1", c)
	}
}

// TestRenderColumnWidths: every column must be padded to its widest cell,
// whether that is the header or a row value.
func TestRenderColumnWidths(t *testing.T) {
	table := &Table{
		ID:     "T",
		Title:  "widths",
		Header: []string{"wide-header", "x"},
		Rows: [][]string{
			{"a", "wide-cell-value"},
			{"b", "y"},
		},
	}
	lines := strings.Split(table.Render(), "\n")
	// Line 1 is the header, line 2 the separator, lines 3-4 the rows.
	if len(lines) < 5 {
		t.Fatalf("render produced %d lines:\n%s", len(lines), table.Render())
	}
	sep := lines[2]
	if want := strings.Repeat("-", len("wide-header")) + "  " + strings.Repeat("-", len("wide-cell-value")); sep != want {
		t.Errorf("separator %q, want %q", sep, want)
	}
	for _, row := range lines[3:5] {
		if idx := strings.Index(row, strings.TrimRight(row[len("wide-header")+2:], " ")); idx != len("wide-header")+2 {
			t.Errorf("second column misaligned in row %q", row)
		}
	}
}

// TestCSVNewlineQuoting: cells embedding newlines must be quoted, not split
// into extra records.
func TestCSVNewlineQuoting(t *testing.T) {
	table := &Table{
		Header: []string{"k", "v"},
		Rows:   [][]string{{"multi\nline", "plain"}},
	}
	want := "k,v\n\"multi\nline\",plain\n"
	if got := table.CSV(); got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

// TestItoa pins the row-literal helper.
func TestItoa(t *testing.T) {
	if got := itoa(-42); got != "-42" {
		t.Errorf("itoa(-42) = %q", got)
	}
	if got := itoa(0); got != "0" {
		t.Errorf("itoa(0) = %q", got)
	}
}
