package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// Options configures one suite run.
type Options struct {
	// Seed drives every workload's set-up; the deterministic counters in
	// the resulting report are a pure function of (code, seed, scales).
	Seed int64
	// Samples is the number of timed batches per workload (0 = 5).
	Samples int
	// Warmup is the number of untimed batches before them (0 = 1).
	Warmup int
	// Progress, when non-nil, receives one line per workload as it
	// completes — the CLI points it at stderr.
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 5
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	return o
}

// Run executes the whole workload suite and assembles the report.
// CreatedAt is left empty; the caller stamps it (the runner itself touches
// the clock only to measure durations, keeping reports reproducible).
func Run(opts Options) (*Report, error) {
	return RunSuite(Suite(), opts)
}

// RunSuite measures an explicit workload list under the given options.
func RunSuite(ws []Workload, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Seed:          opts.Seed,
		Host:          HostInfo(),
	}
	for _, w := range ws {
		res, err := measure(w, opts)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, res)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "  %-32s median %12s  p95 %12s  (%d samples x %d ops)\n",
				w.Name, fmtNs(res.MedianNsPerOp), fmtNs(res.P95NsPerOp), res.Samples, res.Batch)
		}
	}
	return rep, nil
}

// measure runs one workload: setup (untimed), warmup batches, then
// Samples timed batches with allocation accounting.
func measure(w Workload, opts Options) (WorkloadResult, error) {
	if w.Batch < 1 {
		w.Batch = 1
	}
	inst := w.Setup(opts.Seed, w.Scale)
	if inst.Op == nil {
		return WorkloadResult{}, fmt.Errorf("bench: workload %s produced no op", w.Name)
	}

	for i := 0; i < opts.Warmup*w.Batch; i++ {
		inst.Op()
	}

	samples := make([]float64, opts.Samples)
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	for s := range samples {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < w.Batch; i++ {
			inst.Op()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		samples[s] = float64(d.Nanoseconds()) / float64(w.Batch)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	sort.Float64s(samples)

	ops := float64(opts.Samples * w.Batch)
	res := WorkloadResult{
		Name:          w.Name,
		Scale:         w.Scale,
		Batch:         w.Batch,
		Samples:       opts.Samples,
		MedianNsPerOp: nearestRank(samples, 500),
		P95NsPerOp:    nearestRank(samples, 950),
		MinNsPerOp:    samples[0],
		AllocsPerOp:   float64(mallocs) / ops,
		BytesPerOp:    float64(bytes) / ops,
	}
	if res.MedianNsPerOp > 0 {
		res.OpsPerSec = 1e9 / res.MedianNsPerOp
	}
	if inst.Counters != nil {
		res.Counters = inst.Counters()
	}
	return res, nil
}

// nearestRank reads a per-mille percentile from a non-empty ascending
// sample: the smallest value with at least that share of the sample at or
// below it (no interpolation, so every reported value was observed).
// Per-mille keeps the rank arithmetic in integers.
func nearestRank(sorted []float64, permille int) float64 {
	r := (len(sorted)*permille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// fmtNs renders nanoseconds human-readably.
func fmtNs(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
