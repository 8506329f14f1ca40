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

// TestGoldenOutput holds the follower's event log (`-v`, deployments
// included) and its closing stats (`-json`) over the seed-7 five-proxy
// timeline to their goldens; `go test ./cmd/proxwatch -update` rewrites
// them. Neither output carries a timing field, so both compare byte for
// byte.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"seed7-proxies5-v.txt", []string{"-seed", "7", "-proxies", "5", "-v"}},
		{"seed7-proxies5.json", []string{"-seed", "7", "-proxies", "5", "-json"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout bytes.Buffer
			if err := run(tc.args, &stdout, io.Discard); err != nil {
				t.Fatalf("proxwatch %v: %v", tc.args, err)
			}
			golden := filepath.Join("testdata", "golden", tc.golden)
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
				t.Fatalf("proxwatch %v differs from %s (-update rewrites it):\n got %s\nwant %s", tc.args, golden, stdout.Bytes(), want)
			}
		})
	}
}
