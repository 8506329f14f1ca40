package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestGoldenBatchTables holds the batch mode's tables for `-contracts 4000
// -seed 1` to their golden; `go test ./cmd/landscape -update` rewrites it.
// The batch mode prints no timing, so the comparison is byte for byte.
// -stream has no golden: which logic a live-streamed proxy reports depends
// on scheduling, so experiments' TestLiveStreamingLandscapeInvariants holds
// its upgrade-invariant rows instead.
func TestGoldenBatchTables(t *testing.T) {
	args := []string{"-contracts", "4000", "-seed", "1"}
	var stdout bytes.Buffer
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("landscape %v: %v", args, err)
	}
	golden := filepath.Join("testdata", "golden", "contracts4000-seed1.txt")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("landscape %v differs from %s (-update rewrites it):\n got %s\nwant %s", args, golden, stdout.Bytes(), want)
	}
}
