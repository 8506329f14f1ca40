package pipeline_test

import (
	"math"
	"testing"

	"repro/internal/pipeline"
)

// TestSnapshotCounters checks the derived snapshot fields, and that Stats
// leaves a stream's own fields — wall clock, rate, stage rows — unset.
func TestSnapshotCounters(t *testing.T) {
	var st pipeline.Stats
	for i := 0; i < 10; i++ {
		st.Scanned.Add(1)
		if i%2 == 0 {
			st.CacheHits.Add(1)
		} else {
			st.Emulations.Add(1)
		}
	}

	snap := st.Snapshot()
	if snap.Contracts != 10 {
		t.Errorf("contracts = %d, want 10", snap.Contracts)
	}
	if snap.CacheHits != 5 || snap.Emulations != 5 {
		t.Errorf("hits/emulations = %d/%d, want 5/5", snap.CacheHits, snap.Emulations)
	}
	if snap.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", snap.CacheHitRate)
	}
	if snap.WallMS != 0 || snap.ContractsPerSec != 0 || snap.Stages != nil {
		t.Errorf("Stats.Snapshot set a stream's fields: wall %v, rate %v, stages %v",
			snap.WallMS, snap.ContractsPerSec, snap.Stages)
	}
}

// TestSnapshotZeroItems snapshots counters that never moved, with the stage
// rows of a stream whose workers found nothing to do: every derived field
// must come out zero and finite — in particular the cache hit rate, whose
// denominator (hits + emulations) is zero on a run that never probed
// anything — and the zero rows must export as zero counts.
func TestSnapshotZeroItems(t *testing.T) {
	var st pipeline.Stats
	snap := st.Snapshot()
	snap.Stages = []pipeline.StageSnapshot{{Name: "a", Workers: 3}, {Name: "b", Workers: 2}}
	if snap.Contracts != 0 {
		t.Errorf("contracts = %d, want 0", snap.Contracts)
	}
	for name, v := range map[string]float64{
		"cache_hit_rate":    snap.CacheHitRate,
		"contracts_per_sec": snap.ContractsPerSec,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on a zero-item run, want finite", name, v)
		}
		if v != 0 {
			t.Errorf("%s = %v on a zero-item run, want 0", name, v)
		}
	}
	k := snap.Counters()
	for _, key := range []string{"stage_a_processed", "stage_b_processed"} {
		if v, ok := k[key]; !ok || v != 0 {
			t.Errorf("Counters[%q] = %d (present %v), want 0", key, v, ok)
		}
	}
}

// TestSnapshotCountersExport pins the deterministic-export hook: Counters must
// carry every run-wide counter plus a stage_<name>_processed entry per
// stage, and must exclude every wall-clock-derived field — the map is what
// the benchmark compares byte-for-byte across runs, so nothing
// scheduling-dependent may leak into it.
func TestSnapshotCountersExport(t *testing.T) {
	const n = 40
	var st pipeline.Stats
	for i := 0; i < n; i++ {
		st.Scanned.Add(1)
		st.Emulations.Add(1)
		st.ProxiesDetected.Add(1)
	}
	snap := st.Snapshot()
	snap.WallMS, snap.ContractsPerSec = 12.5, 3200
	snap.Stages = []pipeline.StageSnapshot{
		{Name: "alpha", Workers: 2, Processed: n, BusyMS: 2},
		{Name: "beta", Workers: 2, Processed: n, BusyMS: 2},
	}

	got := snap.Counters()
	want := map[string]int64{
		"contracts":             n,
		"no_code":               0,
		"filter_rejected":       0,
		"emulations":            n,
		"cache_hits":            0,
		"structural_hits":       0,
		"static_summaries":      0,
		"structural_rejects":    0,
		"emulation_aborts":      0,
		"proxies_detected":      n,
		"pairs_analyzed":        0,
		"get_storage_at_calls":  0,
		"unresolved":            0,
		"read_retries":          0,
		"breaker_trips":         0,
		"stage_alpha_processed": n,
		"stage_beta_processed":  n,
	}
	if len(got) != len(want) {
		t.Errorf("Counters exported %d keys, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("Counters[%q] = %d, want %d", k, got[k], w)
		}
	}
	for _, banned := range []string{"wall_ms", "contracts_per_sec", "cache_hit_rate"} {
		if _, ok := got[banned]; ok {
			t.Errorf("Counters leaked wall-clock-derived key %q", banned)
		}
	}
}
