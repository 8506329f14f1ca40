package pipeline_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// TestSnapshotZeroItems snapshots a multi-stage run whose workers found
// nothing to do: every derived snapshot field must come out zero and
// finite — in particular the cache hit rate, whose denominator (hits +
// emulations) is zero on a run that never probed anything.
func TestSnapshotZeroItems(t *testing.T) {
	e := pipeline.New()
	stA := e.NewStage("a", 3)
	stB := e.NewStage("b", 2)
	var st pipeline.Stats

	for w := 0; w < 3; w++ {
		e.Go(func() {
			stA.Add(0, 0)
			stB.Add(0, 0)
		})
	}
	e.Wait()

	snap := e.Snapshot(&st)
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
	if len(snap.Stages) != 2 {
		t.Fatalf("snapshot has %d stages, want 2", len(snap.Stages))
	}
	for _, s := range snap.Stages {
		if s.Processed != 0 {
			t.Errorf("stage %s processed %d on an empty stream", s.Name, s.Processed)
		}
	}
}

// TestSnapshotCountersExport pins the deterministic-export hook: Counters must
// carry every run-wide counter plus a stage_<name>_processed entry per
// stage, and must exclude every wall-clock-derived field — the map is what
// the benchmark gate compares byte-for-byte across runs, so nothing
// scheduling-dependent may leak into it.
func TestSnapshotCountersExport(t *testing.T) {
	const n = 40
	e := pipeline.New()
	stA := e.NewStage("alpha", 2)
	stB := e.NewStage("beta", 2)
	var st pipeline.Stats

	for w := 0; w < 2; w++ {
		e.Go(func() {
			for i := 0; i < n/2; i++ {
				st.Scanned.Add(1)
				st.Emulations.Add(1)
				st.ProxiesDetected.Add(1)
			}
			stA.Add(n/2, time.Millisecond)
			stB.Add(n/2, time.Millisecond)
		})
	}
	e.Wait()

	got := e.Snapshot(&st).Counters()
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
		"histories_recovered":   0,
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

// TestWallFreezesAfterWait: Wall is live while running and frozen once
// Wait returns, so a snapshot taken later reports the run, not the gap.
func TestWallFreezesAfterWait(t *testing.T) {
	e := pipeline.New()
	e.Go(func() {})
	e.Wait()
	a := e.Wall()
	b := e.Wall()
	if a != b {
		t.Fatalf("Wall moved after Wait: %v then %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("frozen wall = %v, want > 0", a)
	}
}
