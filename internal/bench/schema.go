// Package bench holds the repository's two performance instruments.
//
//   - The paired comparison (ab.go, `proxbench ab`): a change measured
//     against its parent revision in alternated pairs of bench/e2e runs,
//     each row judged against the bounds BENCHMARK.json fixes. It is the
//     pull-request gate and the protocol every performance claim rests on.
//   - A small suite of seeded workloads that bench/e2e does not measure —
//     the resilient client's fault-free overhead and the raw interpreter
//     loops — and the bounded-memory streaming soak, each run with warmup
//     and repeated samples into a versioned JSON report.
//
// A suite report carries two kinds of numbers. Timings (median/p95/min ns
// per op, allocations) depend on the host. Counters (contracts scanned,
// emulations, cache hits, EVM steps) are deterministic: for a fixed seed
// and scale two runs must produce identical values on any machine, and the
// package's tests hold every workload to that.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// SchemaVersion identifies the report layout; bump it on any incompatible
// change to Report or WorkloadResult.
const SchemaVersion = 2

// Report is one suite or soak run, the unit written to BENCH_*.json files.
type Report struct {
	SchemaVersion int `json:"schema_version"`

	// Seed drove every workload's corpus generation.
	Seed int64 `json:"seed"`

	// CreatedAt is stamped by the CLI at write time (RFC 3339, UTC). The
	// runner itself never reads the clock for anything but durations, so
	// reports stay reproducible modulo this one field.
	CreatedAt string `json:"created_at,omitempty"`

	// Host describes the measuring machine, for humans reading trajectories.
	Host Host `json:"host"`

	Workloads []WorkloadResult `json:"workloads"`
}

// Host records the environment a report was measured on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// WorkloadResult is the measurement of one workload within a run.
type WorkloadResult struct {
	Name  string `json:"name"`
	Scale int    `json:"scale"`
	// Batch is how many ops each timing sample aggregated.
	Batch int `json:"batch"`
	// Samples is the number of timing samples taken after warmup.
	Samples int `json:"samples"`

	// MedianNsPerOp/P95NsPerOp/MinNsPerOp summarize the per-op nanosecond
	// samples.
	MedianNsPerOp float64 `json:"median_ns_per_op"`
	P95NsPerOp    float64 `json:"p95_ns_per_op"`
	MinNsPerOp    float64 `json:"min_ns_per_op"`

	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`

	// Counters are the workload's deterministic outputs: identical for equal
	// (seed, scale) on every machine. See the package comment.
	Counters map[string]int64 `json:"counters,omitempty"`

	// The fields below are soak-only (RunSoak): a single long streaming run
	// measured for per-item latency and peak memory rather than repeated
	// timing samples. They are omitempty, so suite reports leave them out.

	// WallNs is the soak run's total wall time.
	WallNs int64 `json:"wall_ns,omitempty"`
	// ItemP50NsPerOp / ItemP99NsPerOp are per-contract end-to-end latency
	// percentiles (source hand-off to sink emission), read from a
	// log-bucketed histogram — resolution is ~±25% of the value, which is
	// plenty for regression trajectories.
	ItemP50NsPerOp float64 `json:"item_p50_ns_per_op,omitempty"`
	ItemP99NsPerOp float64 `json:"item_p99_ns_per_op,omitempty"`
	// PeakHeapBytes is the maximum runtime.MemStats.HeapInuse observed by
	// the soak's sampler; PeakRSSBytes is the kernel's VmHWM for the whole
	// process (0 where /proc is unavailable).
	PeakHeapBytes int64 `json:"peak_heap_bytes,omitempty"`
	PeakRSSBytes  int64 `json:"peak_rss_bytes,omitempty"`
}

// Filename renders the canonical BENCH_<timestamp>.json name for a run.
func Filename(t time.Time) string {
	return "BENCH_" + t.UTC().Format("20060102T150405Z") + ".json"
}

// WriteFile writes the report as indented JSON with a trailing newline.
func (r *Report) WriteFile(path string) error { return writeJSON(path, r) }

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
