package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSuiteShape: workload names are unique and every workload is fully
// specified.
func TestSuiteShape(t *testing.T) {
	seen := make(map[string]bool)
	for _, w := range Suite() {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Setup == nil || w.Scale <= 0 || w.Batch <= 0 {
			t.Errorf("workload %q underspecified: %+v", w.Name, w)
		}
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
	rep, err := RunSuite([]Workload{w}, Options{Samples: 4, Warmup: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wantOps := (2 + 4) * 3; ops != wantOps {
		t.Errorf("op ran %d times, want %d (2 warmup + 4 sample batches of 3)", ops, wantOps)
	}
	if len(rep.Workloads) != 1 {
		t.Fatalf("report holds %d workloads, want 1", len(rep.Workloads))
	}
	res := rep.Workloads[0]
	if res.Name != "synthetic/count" || res.Samples != 4 || res.Batch != 3 || res.Scale != 7 {
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
	if rep.SchemaVersion != SchemaVersion || rep.Host.GoVersion == "" {
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
	case strings.HasPrefix(name, "evm/"):
		return 500
	}
	return scale
}

// TestWorkloadCounterDeterminism is the acceptance property behind the
// suite: for every catalogue workload, two completely independent setups
// with the same seed must report identical deterministic counters — on a
// concurrent pipeline, under any scheduling. A failure here means
// BENCH_*.json counter trajectories would be noise.
func TestWorkloadCounterDeterminism(t *testing.T) {
	for _, w := range Suite() {
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

// TestEVMLoopStepAccounting pins the interp workload's derived step count
// against the loop structure and checks the emulation actually completes
// (the error sentinel is -1).
func TestEVMLoopStepAccounting(t *testing.T) {
	var loop *Workload
	for _, w := range Suite() {
		if w.Name == "evm/interp-loop" {
			loop = &w
		}
	}
	if loop == nil {
		t.Fatal("evm/interp-loop missing")
	}
	inst := loop.Setup(1, 100)
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

// TestReportRoundTrip: WriteFile writes the report as JSON that decodes
// back to it, and Filename renders the canonical timestamped name.
func TestReportRoundTrip(t *testing.T) {
	w := Workload{Name: "synthetic/noop", Scale: 1, Batch: 2, Setup: func(int64, int) Instance {
		return Instance{Op: func() {}, Counters: func() map[string]int64 { return map[string]int64{"n": 1} }}
	}}
	rep, err := RunSuite([]Workload{w}, Options{Samples: 2, Warmup: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep.CreatedAt = "2026-08-06T00:00:00Z"
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
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
