package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// timingRows are the rows whose cells measure the host rather than the
// analysis: Section 6.1's three timings, Ablation 1's two passes and
// Ablation 5's two modes. Every cell after such a row's label that holds a
// digit is masked.
var timingRows = []string{
	"proxy check latency",
	"proxy checks per second",
	"collision analysis per pair",
	"full pipeline over population",
	"filter-only pass",
	"cached by code hash",
	"cold per pair",
}

// mask collapses every whitespace run and every rule under a header to
// one character (a timing cell sets its table's column widths) and masks
// the cells of the timing rows.
func mask(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		for i, f := range fields {
			if strings.Trim(f, "-") == "" {
				fields[i] = "-"
			}
		}
		for _, row := range timingRows {
			label := strings.Fields(row)
			if len(fields) <= len(label) || strings.Join(fields[:len(label)], " ") != row {
				continue
			}
			for i := len(label); i < len(fields); i++ {
				if strings.ContainsAny(fields[i], "0123456789") {
					fields[i] = "#"
				}
			}
		}
		b.WriteString(strings.Join(fields, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// runMD runs the command and returns its stdout.
func runMD(t *testing.T, args ...string) string {
	t.Helper()
	var stdout bytes.Buffer
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("experiments %v: %v", args, err)
	}
	return stdout.String()
}

// TestGoldenTables holds `experiments -quick -md` at the defaults (4,000
// contracts, seed 1) to its golden, timing rows masked; `go test
// ./cmd/experiments -update` rewrites it.
func TestGoldenTables(t *testing.T) {
	golden := filepath.Join("testdata", "golden", "quick-md.txt")
	got := runMD(t, "-quick", "-md")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if mask(got) != mask(string(want)) {
		t.Fatalf("experiments -quick -md differs from %s beyond the timing rows (-update rewrites it):\n got %s\nwant %s", golden, got, want)
	}
}

// TestExperimentsMDMeasuredOutput holds EXPERIMENTS.md's "## Measured
// output" section to what `experiments -md` prints now, timing rows
// masked: the section is regenerated, never edited by hand.
func TestExperimentsMDMeasuredOutput(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(doc), "\n## Measured output\n")
	if i < 0 {
		t.Fatal("EXPERIMENTS.md has no \"## Measured output\" section")
	}
	want := string(doc[i+1:])
	if got := runMD(t, "-md"); mask(got) != mask(want) {
		t.Fatalf("experiments -md differs from EXPERIMENTS.md's measured output beyond the timing rows; regenerate it with the command in its header:\n got %s\nwant %s", got, want)
	}
}
