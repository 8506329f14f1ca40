package bench

import (
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/keccak"
)

// TestSuiteShape: both profiles expose the same stable workload names
// (quick baselines must gate quick runs), calibration is present, and
// names are unique.
func TestSuiteShape(t *testing.T) {
	quick, full := Suite(Quick), Suite(Full)
	if len(quick) != len(full) {
		t.Fatalf("quick has %d workloads, full %d", len(quick), len(full))
	}
	seen := make(map[string]bool)
	for i, w := range quick {
		if w.Name != full[i].Name {
			t.Errorf("workload %d name differs across profiles: %q vs %q", i, w.Name, full[i].Name)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Setup == nil || w.Scale <= 0 || w.Batch <= 0 {
			t.Errorf("workload %q underspecified: %+v", w.Name, w)
		}
	}
	if !seen[CalibrationName] {
		t.Fatalf("suite lacks the calibration workload %q", CalibrationName)
	}
}

// TestCalibrationRunsTheFrozenReference: the machine-speed yardstick must
// be the same work at every commit, so its op may not touch the production
// Keccak kernel at all (whose speed is a thing the suite measures): it
// hashes with the frozen reference permutation in keccakref.
func TestCalibrationRunsTheFrozenReference(t *testing.T) {
	w, ok := FindWorkload(Quick, CalibrationName)
	if !ok {
		t.Fatalf("suite lacks %q", CalibrationName)
	}
	inst := w.Setup(1, w.Scale)
	if runs := keccak.CountSponges(func() { inst.Op(); inst.Op() }); runs != 0 {
		t.Fatalf("calibration op ran the production kernel %d times; it must hash with keccakref", runs)
	}
	if got := inst.Counters()["bytes_hashed"]; got != int64(w.Scale) {
		t.Fatalf("bytes_hashed = %d, want %d", got, w.Scale)
	}
}

// TestRunnerSampling pins the measurement contract on a synthetic
// workload: ops executed = (warmup + samples) x batch, and the summary
// fields are populated and ordered (min <= median <= p95).
func TestRunnerSampling(t *testing.T) {
	var ops int
	w := Workload{
		Name:  "synthetic/count",
		Scale: 7,
		Batch: 3,
		Setup: func(seed int64, scale int) Instance {
			return Instance{
				Op: func() { ops++; time.Sleep(10 * time.Microsecond) },
				Counters: func() map[string]int64 {
					return map[string]int64{"ops_seen": int64(ops)}
				},
			}
		},
	}
	rep, err := RunSuite([]Workload{w}, Options{Profile: Quick, Samples: 4, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wantOps := (2 + 4) * 3; ops != wantOps {
		t.Errorf("op ran %d times, want %d (2 warmup + 4 sample batches of 3)", ops, wantOps)
	}
	res := rep.Workload("synthetic/count")
	if res == nil {
		t.Fatal("result missing")
	}
	if res.Samples != 4 || res.Batch != 3 || res.Scale != 7 {
		t.Errorf("result meta = %+v", res)
	}
	if !(res.MinNsPerOp > 0 && res.MinNsPerOp <= res.MedianNsPerOp && res.MedianNsPerOp <= res.P95NsPerOp) {
		t.Errorf("sample summary out of order: min %v median %v p95 %v",
			res.MinNsPerOp, res.MedianNsPerOp, res.P95NsPerOp)
	}
	if res.OpsPerSec <= 0 {
		t.Errorf("ops/sec = %v", res.OpsPerSec)
	}
	if res.Counters["ops_seen"] == 0 {
		t.Errorf("counters not captured: %v", res.Counters)
	}
	if rep.SchemaVersion != SchemaVersion || rep.Profile != string(Quick) || rep.Host.GoVersion == "" {
		t.Errorf("report header incomplete: %+v", rep)
	}
	if rep.CreatedAt != "" {
		t.Errorf("runner stamped CreatedAt (%q); that is the CLI's job", rep.CreatedAt)
	}
}

// testScale shrinks a workload's input for test runtime; the determinism
// property under test is scale-independent.
func testScale(name string, scale int) int {
	switch {
	case strings.HasPrefix(name, "pipeline/"):
		return 150
	case strings.HasPrefix(name, "detector/"), strings.HasPrefix(name, "collision/"):
		return 12
	case strings.HasPrefix(name, "evm/"):
		return 500
	}
	return scale
}

// TestWorkloadCounterDeterminism is the acceptance property behind the
// whole subsystem: for every catalogue workload, two completely
// independent setups with the same seed must report identical
// deterministic counters — on a concurrent pipeline, under any
// scheduling. A failure here means BENCH_*.json counter trajectories
// would be noise.
func TestWorkloadCounterDeterminism(t *testing.T) {
	for _, w := range Suite(Quick) {
		w := w
		t.Run(strings.ReplaceAll(w.Name, "/", "_"), func(t *testing.T) {
			scale := testScale(w.Name, w.Scale)
			runOnce := func() map[string]int64 {
				inst := w.Setup(7, scale)
				inst.Op()
				if inst.Counters == nil {
					return nil
				}
				return inst.Counters()
			}
			a, b := runOnce(), runOnce()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("counters differ across identical runs:\n  first:  %v\n  second: %v", a, b)
			}
			if len(a) == 0 {
				t.Errorf("workload reports no deterministic counters")
			}
		})
	}
}

// TestPipelineWorkloadsAgreeAcrossWorkerCounts: the 1-worker, 2-worker and
// GOMAXPROCS pipeline variants analyze the same corpus, so every
// deterministic counter must agree across them — worker count may only
// change timings. (The no-cache ablation legitimately differs: its
// emulation/cache split is the ablation.)
func TestPipelineWorkloadsAgreeAcrossWorkerCounts(t *testing.T) {
	counters := func(name string) map[string]int64 {
		w, ok := FindWorkload(Quick, name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		inst := w.Setup(3, 150)
		inst.Op()
		return inst.Counters()
	}
	oneW := counters("pipeline/stream-1w")
	twoW := counters("pipeline/stream-2w")
	maxW := counters("pipeline/stream-maxw")
	if !reflect.DeepEqual(oneW, twoW) || !reflect.DeepEqual(oneW, maxW) {
		t.Errorf("worker count changed deterministic counters:\n  1w: %v\n  2w: %v\n  maxw: %v",
			oneW, twoW, maxW)
	}
	if oneW["cache_hits"] == 0 {
		t.Errorf("cached pipeline saw no cache hits on the clone-heavy landscape: %v", oneW)
	}

	noCache := counters("pipeline/stream-maxw-nocache")
	if noCache["cache_hits"] != 0 {
		t.Errorf("no-cache ablation recorded cache hits: %v", noCache)
	}
	if noCache["emulations"] <= oneW["emulations"] {
		t.Errorf("ablation did not pay extra emulations: nocache %d vs cached %d",
			noCache["emulations"], oneW["emulations"])
	}
}

// TestEVMLoopStepAccounting pins the interp workload's derived step count
// against the loop structure and checks the emulation actually completes
// (the error sentinel is -1).
func TestEVMLoopStepAccounting(t *testing.T) {
	w, ok := FindWorkload(Quick, "evm/interp-loop")
	if !ok {
		t.Fatal("evm/interp-loop missing")
	}
	inst := w.Setup(1, 100)
	inst.Op()
	c := inst.Counters()
	if c["evm_steps"] == -1 {
		t.Fatal("EVM loop aborted with an error")
	}
	if want := int64(1 + 10*100 + 1); c["evm_steps"] != want {
		t.Errorf("evm_steps = %d, want %d", c["evm_steps"], want)
	}
	if c["loop_iterations"] != 100 {
		t.Errorf("loop_iterations = %d, want 100", c["loop_iterations"])
	}
}

// TestReportRoundTrip: WriteFile/LoadReport preserve the report, and
// Filename renders the canonical timestamped name.
func TestReportRoundTrip(t *testing.T) {
	rep, err := RunSuite([]Workload{Suite(Quick)[0]}, Options{Samples: 2, Warmup: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep.CreatedAt = "2026-08-06T00:00:00Z"
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip changed the report:\n  out: %+v\n  in:  %+v", rep, back)
	}

	name := Filename(time.Date(2026, 8, 6, 12, 34, 56, 0, time.UTC))
	if name != "BENCH_20260806T123456Z.json" {
		t.Errorf("Filename = %q", name)
	}
	if ok, _ := regexp.MatchString(`^BENCH_\d{8}T\d{6}Z\.json$`, name); !ok {
		t.Errorf("Filename %q does not match the BENCH_<timestamp>.json convention", name)
	}
}
