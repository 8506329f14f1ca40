package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// TestSoakSmoke runs a small soak end to end: the full streaming path with
// retirement on, checking the measurement plumbing (latency histogram,
// heap sampler, counters) rather than performance.
func TestSoakSmoke(t *testing.T) {
	res, err := RunSoak(SoakOptions{
		Contracts:     2000,
		Seed:          1,
		Window:        256,
		CacheCapacity: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scale != 2000 || res.Seed != 1 || res.SchemaVersion != SchemaVersion || res.Host.GoVersion == "" {
		t.Fatalf("report header: %+v", res)
	}
	if res.CreatedAt != "" {
		t.Errorf("RunSoak stamped CreatedAt (%q); that is the CLI's job", res.CreatedAt)
	}
	// The generator adds support contracts (shared logics, libraries) on
	// top of the configured population.
	if got := res.Counters["contracts"]; got < 2000 {
		t.Fatalf("contracts counter = %d, want >= 2000", got)
	}
	if res.Counters["proxies_detected"] == 0 {
		t.Fatal("soak detected no proxies")
	}
	if res.Counters["proxies_summarized"] != res.Counters["proxies_detected"] {
		t.Fatalf("summary saw %d proxies, snapshot %d",
			res.Counters["proxies_summarized"], res.Counters["proxies_detected"])
	}
	if res.Counters["retired"] == 0 {
		t.Fatal("retirement never ran")
	}
	if res.ItemP99NsPerOp <= 0 || res.ItemP50NsPerOp <= 0 {
		t.Fatalf("latency percentiles missing: p50=%v p99=%v", res.ItemP50NsPerOp, res.ItemP99NsPerOp)
	}
	if res.ItemP99NsPerOp < res.ItemP50NsPerOp {
		t.Fatalf("p99 %v < p50 %v", res.ItemP99NsPerOp, res.ItemP50NsPerOp)
	}
	if res.PeakHeapBytes <= 0 {
		t.Fatal("heap sampler recorded nothing")
	}
	if res.WallNs <= 0 || res.OpsPerSec <= 0 {
		t.Fatalf("wall time %d ns, %v contracts/s", res.WallNs, res.OpsPerSec)
	}
}

// TestReportRoundTrip: WriteFile writes the soak report as JSON that decodes
// back to it, under the key names the nightly artifacts have always used.
func TestReportRoundTrip(t *testing.T) {
	rep := &SoakReport{
		SchemaVersion:  SchemaVersion,
		Seed:           5,
		CreatedAt:      "2026-08-06T00:00:00Z",
		Host:           hostInfo(),
		Scale:          1000,
		WallNs:         2_500_000_000,
		OpsPerSec:      400,
		ItemP50NsPerOp: 90_000,
		ItemP99NsPerOp: 1_400_000,
		PeakHeapBytes:  64 << 20,
		PeakRSSBytes:   96 << 20,
		Counters:       map[string]int64{"contracts": 1000, "retired": 744},
	}
	path := filepath.Join(t.TempDir(), "BENCH_soak.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back SoakReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Errorf("round trip changed the report:\n  out: %+v\n  in:  %+v", rep, back)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schema_version", "seed", "created_at", "host", "scale", "wall_ns", "ops_per_sec",
		"item_p50_ns_per_op", "item_p99_ns_per_op", "peak_heap_bytes", "peak_rss_bytes", "counters"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("report lacks key %q: %s", k, raw)
		}
	}
	if len(keys) != 12 {
		t.Errorf("report has %d keys, want 12: %s", len(keys), raw)
	}
}

// TestSoakCountersDeterministic: the statically derived counters RunSoak
// reports — label count, bytecode filter verdicts — must agree exactly
// across runs of the same (seed, scale) with different windows and cache
// bounds. Emulation-derived counters (proxies detected, pairs analyzed)
// are excluded: the generator applies upgrades concurrently with
// analysis, so a borderline proxy can be probed before or after its
// implementation slot changes depending on window timing (the live-stream
// caveat in DESIGN.md); "retired" is a function of the retirement window,
// which the two runs deliberately differ on.
func TestSoakCountersDeterministic(t *testing.T) {
	a, err := RunSoak(SoakOptions{Contracts: 1200, Seed: 7, Window: 128, CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(SoakOptions{Contracts: 1200, Seed: 7, Window: 512})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]map[string]int64{"A": a.Counters, "B": b.Counters} {
		if c["retired"] == 0 {
			t.Fatalf("run %s: retirement never ran", name)
		}
		if c["proxies_detected"] == 0 || c["pairs_analyzed"] == 0 {
			t.Fatalf("run %s: analysis found nothing: %v", name, c)
		}
		if c["proxies_summarized"] != c["proxies_detected"] {
			t.Fatalf("run %s: summary saw %d proxies, engine detected %d",
				name, c["proxies_summarized"], c["proxies_detected"])
		}
	}
	for _, key := range []string{"contracts", "no_code", "filter_rejected"} {
		if a.Counters[key] != b.Counters[key] {
			t.Fatalf("counter %q is scheduling-dependent: %d vs %d\nrun A: %v\nrun B: %v",
				key, a.Counters[key], b.Counters[key], a.Counters, b.Counters)
		}
	}
}

// TestSoakRejectsUnsafeRetireWindow: a retirement lag shorter than the
// analysis window could drop contracts mid-analysis and must be refused.
func TestSoakRejectsUnsafeRetireWindow(t *testing.T) {
	_, err := RunSoak(SoakOptions{Contracts: 100, Window: 1024, RetireWindow: 64})
	if err == nil {
		t.Fatal("soak accepted retire window < engine window")
	}
}

// TestSoakFullScale is the nightly million-contract soak, gated behind
// SOAK_CONTRACTS so the normal suite stays fast. It asserts the tentpole
// claim: live memory is a function of the window sizes, not the corpus —
// a 1M-contract run at the default windows measures ~0.6 GiB peak heap
// (with forced-GC live heap an order of magnitude below that; the gap is
// GC pacing over a high allocation rate, not retention). The ceiling
// (default 2 GiB, override via SOAK_MAX_HEAP_MB) leaves headroom for GC
// scheduling variance while still failing on any return to
// corpus-proportional retention.
//
//	SOAK_CONTRACTS=1000000 go test ./internal/bench/ -run TestSoakFullScale -v -timeout 2h
func TestSoakFullScale(t *testing.T) {
	scale := os.Getenv("SOAK_CONTRACTS")
	if scale == "" {
		t.Skip("set SOAK_CONTRACTS (e.g. 1000000) to run the full-scale soak")
	}
	n, err := strconv.Atoi(scale)
	if err != nil || n <= 0 {
		t.Fatalf("bad SOAK_CONTRACTS %q", scale)
	}
	maxHeap := int64(2048)
	if s := os.Getenv("SOAK_MAX_HEAP_MB"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			maxHeap = v
		}
	}

	res, err := RunSoak(SoakOptions{
		Contracts:     n,
		Seed:          1,
		CacheCapacity: 1 << 16,
		Progress:      os.Stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak %d contracts: wall %.1fs, %.0f contracts/s, item p50 %.2fms p99 %.2fms, peak heap %s, peak RSS %s, retired %d",
		n, float64(res.WallNs)/1e9, res.OpsPerSec,
		res.ItemP50NsPerOp/1e6, res.ItemP99NsPerOp/1e6,
		fmtBytes(res.PeakHeapBytes), fmtBytes(res.PeakRSSBytes), res.Counters["retired"])

	if got := res.PeakHeapBytes; got > maxHeap<<20 {
		t.Fatalf("peak heap %s exceeds the %d MiB soak ceiling — streaming memory is no longer bounded",
			fmtBytes(got), maxHeap)
	}
	if res.Counters["contracts"] < int64(n) {
		t.Fatalf("analyzed %d contracts, want >= %d", res.Counters["contracts"], n)
	}
	if res.Counters["retired"] == 0 {
		t.Fatal("full-scale soak never retired a contract")
	}
}
