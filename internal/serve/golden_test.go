package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenBodies is the pinned digest list of TestGoldenBodies.
var goldenBodies = filepath.Join("testdata", "golden", "bodies-contracts300-seed7.txt")

// TestGoldenBodies pins the bytes the service writes for the population
// `proxiond -contracts 300 -seed 7` serves. A cold pass asks /v1/verdict
// for about 120 of its addresses (and one without code), one at a time, so
// the analyses and the store's appends run in a fixed order; then each
// address's /v1/collisions and /v1/static, one /v1/verdicts and one
// /v1/scan over them all. Every body is one `route addr status sha256`
// line, and the store directory after the cold pass one more. `go test
// ./internal/serve -run GoldenBodies -update` rewrites the file; diff it.
func TestGoldenBodies(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 7, Contracts: 300})
	dir := t.TempDir()
	srv, err := New(Config{
		Reader:       pop.Chain,
		Sources:      pop.Registry,
		StoreDir:     dir,
		StoreOptions: store.Options{NoSync: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	all := pop.Chain.Contracts()
	const picked = 120
	addrs := make([]etypes.Address, 0, picked+1)
	for k := 0; k < picked; k++ {
		addrs = append(addrs, all[k*len(all)/picked])
	}
	addrs = append(addrs, etypes.MustAddress("0xda000000000000000000000000000000000fffff"))

	var lines []string
	record := func(route, addr string, resp *http.Response, ctype string) {
		t.Helper()
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", route, addr, err)
		}
		if got := resp.Header.Get("Content-Type"); got != ctype {
			t.Errorf("%s %s: Content-Type %q, want %q", route, addr, got, ctype)
		}
		lines = append(lines, fmt.Sprintf("%s %s %d %x", route, addr, resp.StatusCode, sha256.Sum256(body)))
	}
	get := func(route string, a etypes.Address) {
		t.Helper()
		resp, err := http.Get(ts.URL + route + "?addr=" + a.Hex())
		if err != nil {
			t.Fatalf("GET %s %s: %v", route, a.Hex(), err)
		}
		record(route, a.Hex(), resp, "application/json")
	}

	for _, a := range addrs {
		get("/v1/verdict", a)
	}
	lines = append(lines, "store - - "+dirDigest(t, dir))
	for _, a := range addrs {
		get("/v1/collisions", a)
		get("/v1/static", a)
	}

	hexes := make([]string, len(addrs))
	for i, a := range addrs {
		hexes[i] = a.Hex()
	}
	batch, _ := json.Marshal(map[string]any{"addresses": hexes})
	for _, b := range []struct{ route, ctype string }{
		{"/v1/verdicts", "application/json"},
		{"/v1/scan", "application/x-ndjson"},
	} {
		resp, err := http.Post(ts.URL+b.route, "application/json", bytes.NewReader(batch))
		if err != nil {
			t.Fatalf("POST %s: %v", b.route, err)
		}
		record(b.route, "-", resp, b.ctype)
	}

	got := []byte(strings.Join(lines, "\n") + "\n")
	if *update {
		if err := os.WriteFile(goldenBodies, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenBodies)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("bodies differ from %s (-update rewrites it); first at line %d:\n got %s\nwant %s", goldenBodies, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("bodies differ from %s (-update rewrites it): %d lines, want %d", goldenBodies, len(gl), len(wl))
	}
}

// dirDigest hashes every file of dir, by name in order, name and bytes.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", n, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
