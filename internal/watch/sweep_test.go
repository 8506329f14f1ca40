package watch_test

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/gen/oracle"
	"repro/internal/watch"
)

// sweepSeeds returns the seed matrix: the pinned PR set by default,
// widened by WATCH_SWEEP extra random-ish seeds for the nightly run.
func sweepSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 7, 42}
	env := os.Getenv("WATCH_SWEEP")
	if env == "" {
		return seeds
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 0 {
		t.Fatalf("bad WATCH_SWEEP=%q: %v", env, err)
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(1000+i*7919))
	}
	return seeds
}

// sweepEntry is one matrix cell of the watch report artifact.
type sweepEntry struct {
	Seed       int64               `json:"seed"`
	Chaos      bool                `json:"chaos"`
	Mismatches int                 `json:"mismatches"`
	Stats      watch.StatsSnapshot `json:"stats"`
}

// TestWatchSweep runs the follower timeline matrix: every seed replayed
// block-by-block through the watch-parity oracle, fault-free and under
// the below-budget Mixed chaos profile. When WATCH_REPORT names a file,
// the per-cell follower stats are written there as JSON — the artifact
// the CI watch job uploads. They carry the follower's cost and health
// (head, lag_blocks, delta_reads, cells_checked, audit_runs,
// audit_mismatches); the oracle audits after every block, so every cell
// must show audits and no mismatch.
func TestWatchSweep(t *testing.T) {
	var report []sweepEntry
	for _, seed := range sweepSeeds(t) {
		for _, chaos := range []bool{false, true} {
			run := oracle.WatchParity(gen.TimelineConfig{Seed: seed}, chaos)
			report = append(report, sweepEntry{
				Seed: seed, Chaos: chaos,
				Mismatches: len(run.Mismatches), Stats: run.Stats,
			})
			if len(run.Mismatches) > 0 {
				t.Errorf("seed %d chaos=%v: %d mismatch(es):", seed, chaos, len(run.Mismatches))
				for _, m := range run.Mismatches {
					t.Errorf("  %s", m)
				}
			}
			if st := run.Stats; st.AuditRuns == 0 || st.AuditMismatches != 0 ||
				st.DeltaReads < st.BlocksFollowed || st.LagBlocks != 0 {
				t.Errorf("seed %d chaos=%v: stats %+v — want audits run, none mismatched, a delta read per block, no lag", seed, chaos, st)
			}
		}
	}
	if path := os.Getenv("WATCH_REPORT"); path != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatalf("marshal watch report: %v", err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatalf("write watch report: %v", err)
		}
		t.Logf("watch report: %d matrix cells -> %s", len(report), path)
	}
}
