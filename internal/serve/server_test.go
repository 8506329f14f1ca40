package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// The endpoint tests hold the service to the engine's own answers: every
// verdict served over HTTP must equal what a direct single-threaded
// AnalyzeStream over the same chain produces for the same address.

// testCorpus generates a small deterministic labeled corpus.
func testCorpus(t *testing.T, seed int64, contracts int) *gen.Corpus {
	t.Helper()
	return gen.Generate(gen.Config{Seed: seed, Contracts: contracts})
}

// referenceItems analyzes every corpus address with a fresh detector in
// one sequential stream, returning items keyed by address.
func referenceItems(t *testing.T, c *gen.Corpus) map[etypes.Address]proxion.Item {
	t.Helper()
	det := proxion.NewDetector(c.Chain)
	out := make(map[etypes.Address]proxion.Item)
	det.AnalyzeStream(proxion.SliceSource(c.Chain.Contracts()), c.Registry,
		proxion.SinkFunc(func(it proxion.Item) { out[it.Report.Address] = it }),
		proxion.AnalyzeOptions{})
	return out
}

// newTestServer builds a server over the corpus and wraps it in an
// httptest server. Both are torn down with the test.
func newTestServer(t *testing.T, c *gen.Corpus, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Reader = c.Chain
	cfg.Sources = c.Registry
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// getJSON fetches url and decodes the response into out, failing on a
// non-200 status.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// verdictJSON canonicalizes a Verdict for comparison.
func verdictJSON(t *testing.T, v Verdict) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestVerdictEndpointMatchesReference(t *testing.T) {
	c := testCorpus(t, 7, 48)
	ref := referenceItems(t, c)
	_, ts := newTestServer(t, c, Config{Shards: 3})

	for _, addr := range c.Chain.Contracts() {
		var got Verdict
		getJSON(t, ts.URL+"/v1/verdict?addr="+addr.Hex(), &got)
		want := verdictOf(ref[addr].Report)
		if verdictJSON(t, got) != verdictJSON(t, want) {
			t.Fatalf("verdict for %s diverges from the engine:\n got:  %+v\n want: %+v", addr.Hex(), got, want)
		}
	}
}

func TestBatchVerdictsMatchIndividual(t *testing.T) {
	c := testCorpus(t, 11, 32)
	ref := referenceItems(t, c)
	_, ts := newTestServer(t, c, Config{Shards: 4})

	addrs := c.Chain.Contracts()
	var hexes []string
	for _, a := range addrs {
		hexes = append(hexes, a.Hex())
	}
	body, _ := json.Marshal(map[string]any{"addresses": hexes})
	resp, err := http.Post(ts.URL+"/v1/verdicts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/verdicts: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Verdicts []Verdict `json:"verdicts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Verdicts) != len(addrs) {
		t.Fatalf("batch returned %d verdicts for %d addresses", len(out.Verdicts), len(addrs))
	}
	// Responses come back in request order.
	for i, a := range addrs {
		want := verdictOf(ref[a].Report)
		if verdictJSON(t, out.Verdicts[i]) != verdictJSON(t, want) {
			t.Fatalf("batch verdict %d (%s) diverges:\n got:  %+v\n want: %+v", i, a.Hex(), out.Verdicts[i], want)
		}
	}
}

func TestScanStreamsNDJSONInOrder(t *testing.T) {
	c := testCorpus(t, 13, 24)
	ref := referenceItems(t, c)
	_, ts := newTestServer(t, c, Config{Shards: 2})

	addrs := c.Chain.Contracts()
	var hexes []string
	for _, a := range addrs {
		hexes = append(hexes, a.Hex())
	}
	body, _ := json.Marshal(map[string]any{"addresses": hexes})
	resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/scan: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want NDJSON", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	i := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var got Verdict
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d not JSON: %v (%q)", i, err, line)
		}
		if i >= len(addrs) {
			t.Fatalf("more NDJSON lines than addresses")
		}
		want := verdictOf(ref[addrs[i]].Report)
		if verdictJSON(t, got) != verdictJSON(t, want) {
			t.Fatalf("scan line %d diverges:\n got:  %+v\n want: %+v", i, got, want)
		}
		i++
	}
	if i != len(addrs) {
		t.Fatalf("scan emitted %d lines for %d addresses", i, len(addrs))
	}
}

func TestCollisionsEndpointMatchesReference(t *testing.T) {
	c := testCorpus(t, 17, 48)
	ref := referenceItems(t, c)
	_, ts := newTestServer(t, c, Config{Shards: 3})

	checked := 0
	for _, addr := range c.Chain.Contracts() {
		var got CollisionReport
		getJSON(t, ts.URL+"/v1/collisions?addr="+addr.Hex(), &got)
		want := collisionsOf(ref[addr])
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Fatalf("collision report for %s diverges:\n got:  %s\n want: %s", addr.Hex(), g, w)
		}
		if len(want.Functions) > 0 || len(want.Storage) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("corpus produced no colliding pairs; the test is vacuous")
	}
}

func TestStatsEndpointAggregates(t *testing.T) {
	c := testCorpus(t, 19, 40)
	_, ts := newTestServer(t, c, Config{Shards: 4})
	addrs := c.Chain.Contracts()
	for _, a := range addrs {
		var v Verdict
		getJSON(t, ts.URL+"/v1/verdict?addr="+a.Hex(), &v)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Total.Contracts != len(addrs) {
		t.Fatalf("stats total contracts=%d, want %d", stats.Total.Contracts, len(addrs))
	}
	// One detector, one entry, whatever the bound: the total with the live
	// engine counters attached.
	if len(stats.Shards) != 1 {
		t.Fatalf("stats reports %d engine summaries, want 1", len(stats.Shards))
	}
	engine := stats.Shards[0].Summary
	if engine.Pipeline == nil {
		t.Fatalf("engine summary carries no pipeline snapshot")
	}
	if engine.Contracts != len(addrs) || engine.Pipeline.Contracts != int64(len(addrs)) {
		t.Fatalf("engine summary counts %d contracts (%d scanned), want %d",
			engine.Contracts, engine.Pipeline.Contracts, len(addrs))
	}
	if stats.Counters.Requests != int64(len(addrs)) || stats.Counters.Analyses != int64(len(addrs)) {
		t.Fatalf("counters off: %+v", stats.Counters)
	}
	// The corpus-wide proxy count must match the engine's own summary.
	det := proxion.NewDetector(c.Chain)
	b := proxion.NewSummaryBuilder()
	det.AnalyzeStream(proxion.SliceSource(addrs), c.Registry, b, proxion.AnalyzeOptions{})
	want := b.Summary(nil)
	if stats.Total.Proxies != want.Proxies ||
		stats.Total.PairsWithStorageCollisions != want.PairsWithStorageCollisions ||
		stats.Total.PairsWithFunctionCollisions != want.PairsWithFunctionCollisions {
		t.Fatalf("total summary diverges from reference:\n got:  %+v\n want: %+v", stats.Total, want)
	}
}

func TestRepeatQueriesServeFromResultCache(t *testing.T) {
	c := testCorpus(t, 23, 16)
	srv, ts := newTestServer(t, c, Config{Shards: 2})
	addr := c.Chain.Contracts()[0]
	for i := 0; i < 5; i++ {
		var v Verdict
		getJSON(t, ts.URL+"/v1/verdict?addr="+addr.Hex(), &v)
	}
	ctr := srv.Counters()
	if ctr.Analyses != 1 {
		t.Fatalf("5 repeat queries cost %d analyses, want 1", ctr.Analyses)
	}
	if ctr.ResultCacheHits != 4 {
		t.Fatalf("result cache hits=%d, want 4", ctr.ResultCacheHits)
	}
}

func TestBadRequests(t *testing.T) {
	c := testCorpus(t, 29, 8)
	_, ts := newTestServer(t, c, Config{Shards: 1})
	for _, url := range []string{
		ts.URL + "/v1/verdict",
		ts.URL + "/v1/verdict?addr=zzz",
		ts.URL + "/v1/collisions?addr=0x123", // odd-length hex
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", url, resp.StatusCode)
		}
	}
	// Batch bodies: bad JSON, empty list, GET method.
	resp, _ := http.Post(ts.URL+"/v1/verdicts", "application/json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/v1/verdicts", "application/json", strings.NewReader(`{"addresses":[]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/v1/scan")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/scan: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	c := testCorpus(t, 31, 8)
	_, ts := newTestServer(t, c, Config{Shards: 2})
	var out struct {
		OK     bool `json:"ok"`
		Shards int  `json:"shards"`
	}
	getJSON(t, ts.URL+"/healthz", &out)
	if !out.OK || out.Shards != 2 {
		t.Fatalf("healthz: %+v", out)
	}
}

func TestClosedServerFailsFast(t *testing.T) {
	c := testCorpus(t, 37, 8)
	cfg := Config{Reader: c.Chain, Sources: c.Registry, Shards: 2}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := srv.Lookup(c.Chain.Contracts()[0]); err == nil {
		t.Fatalf("Lookup on a closed server succeeded")
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestCloseDrainsEnqueuedWork(t *testing.T) {
	c := testCorpus(t, 41, 24)
	cfg := Config{Reader: c.Chain, Sources: c.Registry, Shards: 2}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addrs := c.Chain.Contracts()
	done := make(chan error, len(addrs))
	for _, a := range addrs {
		go func(a etypes.Address) {
			_, err := srv.Lookup(a)
			done <- err
		}(a)
	}
	for range addrs {
		if err := <-done; err != nil {
			t.Fatalf("Lookup during load: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := srv.Counters().Analyses; got != int64(len(addrs)) {
		t.Fatalf("analyses=%d, want %d", got, len(addrs))
	}
}
