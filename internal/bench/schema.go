// Package bench holds the repository's two performance instruments.
//
//   - The paired comparison (ab.go, `proxbench ab`): a change measured
//     against its parent revision in alternated pairs of bench/e2e runs,
//     each row judged against the bounds BENCHMARK.json fixes. It is the
//     pull-request gate and the protocol every performance claim rests on.
//   - The bounded-memory streaming soak (soak.go, `proxbench soak`): one
//     long landscape stream measured for per-contract latency and peak
//     memory into a versioned JSON report.
//
// The measurements bench/e2e does not take — the resilient client's
// fault-free overhead and the raw interpreter loops — are plain Go
// benchmarks in this package's test files: go test -bench . ./internal/bench.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// SchemaVersion identifies the soak report layout; bump it on any
// incompatible change to SoakReport.
const SchemaVersion = 3

// SoakReport is one soak run, the unit `proxbench soak` writes.
type SoakReport struct {
	SchemaVersion int `json:"schema_version"`

	// Seed drove the corpus generation.
	Seed int64 `json:"seed"`

	// CreatedAt is stamped by the CLI at write time (RFC 3339, UTC). The
	// soak itself never reads the clock for anything but durations, so
	// reports stay reproducible modulo this one field and the timings.
	CreatedAt string `json:"created_at,omitempty"`

	// Host describes the measuring machine, for humans reading trajectories.
	Host Host `json:"host"`

	// Scale is the configured corpus size (SoakOptions.Contracts); the
	// generator's support contracts come on top, see Counters["contracts"].
	Scale int `json:"scale"`

	// WallNs is the run's total wall time; OpsPerSec the contracts analyzed
	// per second of it.
	WallNs    int64   `json:"wall_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`

	// ItemP50NsPerOp / ItemP99NsPerOp are per-contract end-to-end latency
	// percentiles (source hand-off to sink emission), read from a
	// log-bucketed histogram — resolution is ~±25% of the value, which is
	// plenty for regression trajectories.
	ItemP50NsPerOp float64 `json:"item_p50_ns_per_op"`
	ItemP99NsPerOp float64 `json:"item_p99_ns_per_op"`

	// PeakHeapBytes is the maximum runtime.MemStats.HeapInuse observed by
	// the soak's sampler; PeakRSSBytes is the kernel's VmHWM for the whole
	// process (0 where /proc is unavailable).
	PeakHeapBytes int64 `json:"peak_heap_bytes"`
	PeakRSSBytes  int64 `json:"peak_rss_bytes"`

	// Counters are the run's scheduling-independent outputs (see RunSoak).
	Counters map[string]int64 `json:"counters"`
}

// Host records the environment a report was measured on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// hostInfo captures the measuring environment.
func hostInfo() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// WriteFile writes the report as indented JSON with a trailing newline.
func (r *SoakReport) WriteFile(path string) error { return writeJSON(path, r) }

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
