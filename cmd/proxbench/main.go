// Command proxbench runs the deterministic benchmark suite (internal/bench)
// and gates performance regressions against a checked-in baseline.
//
// Usage:
//
//	proxbench [flags]                 run the suite, write BENCH_<timestamp>.json
//	proxbench [flags] compare         run the suite, then diff it against -baseline
//	                                  and exit 1 on regression
//	proxbench compare -current F      diff an existing run file against -baseline
//	                                  without re-measuring
//	proxbench soak [soak flags]       run the bounded-memory streaming soak
//	                                  (one long run, per-item latency + peak
//	                                  memory; see -max-heap-mb)
//	proxbench -list                   print the workload catalogue and exit
//
// Flags:
//
//	-quick / -full      suite profile (default quick; the PR gate uses quick,
//	                    the nightly job uses full)
//	-seed N             corpus seed (default 1; the baseline's seed)
//	-repeats M          run the suite M times and keep each workload's best
//	                    median (default 2 in compare mode, 1 otherwise) —
//	                    the noise-aware "fail only across M repeats" knob
//	-samples / -warmup  override the profile's sampling depth
//	-out FILE           report path (default BENCH_<timestamp>.json)
//	-baseline FILE      baseline to gate against (default bench/baseline.json)
//	-threshold X        allowed relative median regression (default 0.30)
//	-alloc-threshold X  allowed relative allocs/op growth (default 0.50;
//	                    negative disables the allocation gate)
//	-strict-counters    fail the gate on deterministic-counter drift too
//	-cpuprofile FILE    write a pprof CPU profile of the measured suite
//	-memprofile FILE    write a pprof heap profile after the suite
//
// Exit codes: 0 ok, 1 regression (or counter drift under -strict-counters),
// 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "run the quick profile (default)")
	full := flag.Bool("full", false, "run the full (nightly) profile")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	repeats := flag.Int("repeats", 0, "suite repetitions, best median kept (default: 2 when comparing, else 1)")
	samples := flag.Int("samples", 0, "timing samples per workload (0 = profile default)")
	warmup := flag.Int("warmup", 0, "warmup batches per workload (0 = profile default)")
	out := flag.String("out", "", "report output path (default BENCH_<timestamp>.json)")
	baselinePath := flag.String("baseline", "bench/baseline.json", "baseline report for compare mode")
	current := flag.String("current", "", "compare an existing run file instead of measuring")
	threshold := flag.Float64("threshold", 0.30, "allowed relative median regression (0.30 = +30%)")
	allocThreshold := flag.Float64("alloc-threshold", 0.50, "allowed relative allocs/op growth (negative disables the alloc gate)")
	strictCounters := flag.Bool("strict-counters", false, "fail on deterministic-counter drift")
	list := flag.Bool("list", false, "list the workload catalogue and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured suite")
	memprofile := flag.String("memprofile", "", "write a heap profile after the suite")

	// "compare" works both as a leading subcommand (proxbench compare
	// -current F) and as a trailing word (proxbench -quick compare); the
	// flag package stops at the first positional argument, so the leading
	// form must be peeled off before parsing. "soak" has its own flag set
	// entirely.
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "soak" {
		return runSoak(args[1:])
	}
	compareCmd := false
	if len(args) > 0 && args[0] == "compare" {
		compareCmd = true
		args = args[1:]
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		return 2
	}

	profile := bench.Quick
	if *full {
		profile = bench.Full
	}
	if *quick && *full {
		fmt.Fprintln(os.Stderr, "proxbench: -quick and -full are mutually exclusive")
		return 2
	}

	compareMode := compareCmd || *current != ""
	switch flag.NArg() {
	case 0:
	case 1:
		if flag.Arg(0) != "compare" {
			fmt.Fprintf(os.Stderr, "proxbench: unknown command %q (only \"compare\")\n", flag.Arg(0))
			return 2
		}
		compareMode = true
	default:
		fmt.Fprintln(os.Stderr, "proxbench: too many arguments")
		return 2
	}

	if *list {
		for _, w := range bench.Suite(profile) {
			fmt.Printf("%-34s scale=%-6d batch=%-4d %s\n", w.Name, w.Scale, w.Batch, w.Desc)
		}
		return 0
	}

	var rep *bench.Report
	if *current != "" {
		var err error
		rep, err = bench.LoadReport(*current)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proxbench:", err)
			return 2
		}
	} else {
		n := *repeats
		if n <= 0 {
			n = 1
			if compareMode {
				n = 2
			}
		}
		var err error
		rep, err = measureSuite(profile, *seed, *samples, *warmup, n, *cpuprofile, *memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proxbench:", err)
			return 2
		}
		rep.CreatedAt = time.Now().UTC().Format(time.RFC3339)

		path := *out
		if path == "" {
			path = bench.Filename(time.Now())
		}
		if err := rep.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "proxbench:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%s profile, seed %d, %d workloads)\n",
			path, rep.Profile, rep.Seed, len(rep.Workloads))
	}

	if !compareMode {
		return 0
	}

	baseline, err := bench.LoadReport(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxbench: baseline %s: %v\n", *baselinePath, err)
		fmt.Fprintf(os.Stderr, "proxbench: %v (refresh with: go run ./cmd/proxbench -%s -out %s)\n",
			bench.ErrMissingBaseline, rep.Profile, *baselinePath)
		return 2
	}
	cmp, err := bench.Compare(baseline, rep, bench.CompareOptions{
		Threshold:      *threshold,
		AllocThreshold: *allocThreshold,
		StrictCounters: *strictCounters,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxbench:", err)
		return 2
	}
	fmt.Print(cmp.Render())
	if !cmp.OK() {
		fmt.Fprintf(os.Stderr, "proxbench: performance gate FAILED against %s\n", *baselinePath)
		return 1
	}
	fmt.Fprintf(os.Stderr, "proxbench: performance gate passed against %s\n", *baselinePath)
	return 0
}

// runSoak is the "soak" subcommand: one long bounded-memory streaming run
// over a generated landscape, reported in the same versioned JSON schema
// as suite runs (profile "soak") and optionally gated on a peak-heap
// ceiling for the nightly job.
func runSoak(args []string) int {
	fs := flag.NewFlagSet("proxbench soak", flag.ContinueOnError)
	contracts := fs.Int("contracts", 1_000_000, "corpus size to stream")
	seed := fs.Int64("seed", 1, "corpus generation seed")
	window := fs.Int("window", 0, "engine in-flight window (0 = engine default)")
	cacheCap := fs.Int("cache-capacity", 1<<16, "LRU bound, in distinct bytecodes, on each of verdicts, clone families and per-bytecode artifacts (0 = unbounded)")
	retire := fs.Int("retire-window", 0, "generator retirement lag in labels (0 = 2x engine window)")
	out := fs.String("out", "", "report output path (default BENCH_SOAK_<timestamp>.json)")
	maxHeapMB := fs.Int64("max-heap-mb", 0, "fail (exit 1) if peak heap exceeds this many MiB (0 = no ceiling)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "proxbench soak: unexpected arguments")
		return 2
	}

	res, err := bench.RunSoak(bench.SoakOptions{
		Contracts:     *contracts,
		Seed:          *seed,
		Window:        *window,
		CacheCapacity: *cacheCap,
		RetireWindow:  *retire,
		Progress:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxbench:", err)
		return 2
	}

	rep := &bench.Report{
		SchemaVersion: bench.SchemaVersion,
		Profile:       "soak",
		Seed:          *seed,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		Host:          bench.HostInfo(),
		Workloads:     []bench.WorkloadResult{res},
	}
	path := *out
	if path == "" {
		path = "BENCH_SOAK_" + time.Now().UTC().Format("20060102T150405Z") + ".json"
	}
	if err := rep.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "proxbench:", err)
		return 2
	}

	fmt.Printf("soak: %d contracts in %.1fs (%.0f contracts/s)\n",
		res.Counters["contracts"], float64(res.WallNs)/1e9, res.OpsPerSec)
	fmt.Printf("  item latency p50 %.3fms  p99 %.3fms\n", res.ItemP50NsPerOp/1e6, res.ItemP99NsPerOp/1e6)
	fmt.Printf("  peak heap %.1f MiB  peak RSS %.1f MiB  retired %d\n",
		float64(res.PeakHeapBytes)/(1<<20), float64(res.PeakRSSBytes)/(1<<20), res.Counters["retired"])
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)

	if *maxHeapMB > 0 && res.PeakHeapBytes > *maxHeapMB<<20 {
		fmt.Fprintf(os.Stderr, "proxbench: soak FAILED: peak heap %.1f MiB exceeds the %d MiB ceiling\n",
			float64(res.PeakHeapBytes)/(1<<20), *maxHeapMB)
		return 1
	}
	return 0
}

// measureSuite runs the suite n times (profiling the whole measured
// region) and folds the repeats into a best-median report.
func measureSuite(profile bench.Profile, seed int64, samples, warmup, n int, cpuprofile, memprofile string) (*bench.Report, error) {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	opts := bench.Options{
		Profile:  profile,
		Seed:     seed,
		Samples:  samples,
		Warmup:   warmup,
		Progress: os.Stderr,
	}
	runs := make([]*bench.Report, 0, n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(os.Stderr, "run %d/%d (%s profile, seed %d):\n", i+1, n, profile, seed)
		r, err := bench.Run(opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	rep, err := bench.MergeBest(runs...)
	if err != nil {
		return nil, err
	}

	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
