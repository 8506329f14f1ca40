package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// timingFields are the summary fields that measure the host rather than
// the analysis. A bare name is that field in any object; "a[].b" is field b
// of every element of array a.
var timingFields = []string{"wall_ms", "contracts_per_sec", "busy_ms", "stages[].workers"}

// cacheCounters are the pipeline counters a cache bound may move: with
// fewer records resident, more contracts are emulated or promoted and fewer
// hit.
var cacheCounters = []string{
	"emulations", "cache_hits", "cache_hit_rate",
	"structural_hits", "static_summaries", "structural_rejects",
}

// strip re-encodes a JSON document without the named fields, keeping the
// order and the literal text of everything else, indented as the command
// prints it.
func strip(t *testing.T, doc []byte, names []string) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var out bytes.Buffer
	if err := stripValue(dec, "", names, &out); err != nil {
		t.Fatalf("strip: %v\n%s", err, doc)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, out.Bytes(), "", "  "); err != nil {
		t.Fatalf("indent: %v", err)
	}
	return append(indented.Bytes(), '\n')
}

// stripValue copies the next value from dec to out; path names the value
// ("pipeline.stages[].workers") for matching against names.
func stripValue(dec *json.Decoder, path string, names []string, out *bytes.Buffer) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch tok {
	case json.Delim('{'):
		out.WriteByte('{')
		for n := 0; dec.More(); {
			key, err := dec.Token()
			if err != nil {
				return err
			}
			field := strings.TrimPrefix(path+"."+key.(string), ".")
			if dropped(field, names) {
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					return err
				}
				continue
			}
			if n++; n > 1 {
				out.WriteByte(',')
			}
			k, _ := json.Marshal(key)
			out.Write(k)
			out.WriteByte(':')
			if err := stripValue(dec, field, names, out); err != nil {
				return err
			}
		}
		out.WriteByte('}')
		_, err = dec.Token()
		return err
	case json.Delim('['):
		out.WriteByte('[')
		for n := 0; dec.More(); n++ {
			if n > 0 {
				out.WriteByte(',')
			}
			if err := stripValue(dec, path+"[]", names, out); err != nil {
				return err
			}
		}
		out.WriteByte(']')
		_, err = dec.Token()
		return err
	}
	v, err := json.Marshal(tok)
	out.Write(v)
	return err
}

func dropped(field string, names []string) bool {
	for _, n := range names {
		if field == n || strings.HasSuffix(field, "."+n) {
			return true
		}
	}
	return false
}

// runJSON runs the command and returns its stdout.
func runJSON(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout bytes.Buffer
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("proxion %v: %v", args, err)
	}
	return stdout.Bytes()
}

// TestGoldenJSON holds `proxion -contracts 3000 -seed 7 -json` to its
// golden summary, timings stripped; `go test ./cmd/proxion -update`
// rewrites it. The same scan under an eight-record cache bound must agree
// on every field but the cache counters.
func TestGoldenJSON(t *testing.T) {
	golden := filepath.Join("testdata", "golden", "contracts3000-seed7.json")
	got := strip(t, runJSON(t, "-contracts", "3000", "-seed", "7", "-json"), timingFields)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("proxion -json differs from %s (-update rewrites it):\n got %s\nwant %s", golden, got, want)
	}

	bounded := runJSON(t, "-contracts", "3000", "-seed", "7", "-json", "-cache-capacity", "8")
	skip := append(append([]string{}, timingFields...), cacheCounters...)
	if got, want := strip(t, bounded, skip), strip(t, want, skip); !bytes.Equal(got, want) {
		t.Fatalf("-cache-capacity 8 differs beyond the cache counters:\n got %s\nwant %s", got, want)
	}
}
