// Command proxbench measures a change against its parent revision, and
// runs the workloads bench/e2e does not cover (internal/bench).
//
// Usage:
//
//	proxbench ab [-pairs N] [-out FILE] <parent-rev> [-- bench/e2e flags]
//	                           build ./bench/e2e at <parent-rev> (in a
//	                           temporary git worktree) and in the working
//	                           tree, run N alternated pairs (default 10; odd
//	                           pairs run the parent first, both sides of a
//	                           pair get one seed derived from the parent's
//	                           hash), print the table of every workload ×
//	                           end-to-end metric with its verdict under
//	                           BENCHMARK.json's bounds (gain, worse,
//	                           unresolved, flat), and write it as JSON to
//	                           FILE (default BENCH_AB_<timestamp>.json).
//	                           The flags after -- go to every bench/e2e run
//	                           (-seconds, -workload); ab sets -seed and -out.
//	proxbench [flags]          run the suite, write BENCH_<timestamp>.json
//	proxbench -list            print the suite's workloads and exit
//	proxbench soak [flags]     run the bounded-memory streaming soak (one
//	                           long run, per-item latency + peak memory;
//	                           see -max-heap-mb)
//
// Suite flags:
//
//	-seed N             corpus seed (default 1)
//	-out FILE           report path (default BENCH_<timestamp>.json)
//	-cpuprofile FILE    write a pprof CPU profile of the measured suite
//	-memprofile FILE    write a pprof heap profile after the suite
//
// Exit codes: 0 ok; 1 a worse row in ab, a build or bench/e2e run it could
// not complete (bench/e2e exits non-zero on a wrong answer or a failed
// operation), or a soak over its heap ceiling; 2 usage or I/O error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bench"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "ab":
			os.Exit(runAB(args[1:]))
		case "soak":
			os.Exit(runSoak(args[1:]))
		}
	}
	os.Exit(runSuite(args))
}

// runSuite runs the suite once and writes its report.
func runSuite(args []string) int {
	fs := flag.NewFlagSet("proxbench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "corpus generation seed")
	out := fs.String("out", "", "report output path (default BENCH_<timestamp>.json)")
	list := fs.Bool("list", false, "list the workloads and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measured suite")
	memprofile := fs.String("memprofile", "", "write a heap profile after the suite")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "proxbench: unknown command %q (want ab or soak)\n", fs.Arg(0))
		return 2
	}

	if *list {
		for _, w := range bench.Suite() {
			fmt.Printf("%-34s scale=%-6d batch=%-4d %s\n", w.Name, w.Scale, w.Batch, w.Desc)
		}
		return 0
	}

	rep, err := measureSuite(*seed, *cpuprofile, *memprofile)
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
	fmt.Fprintf(os.Stderr, "wrote %s (seed %d, %d workloads)\n", path, rep.Seed, len(rep.Workloads))
	return 0
}

// runAB is the "ab" subcommand: the working tree against a parent
// revision in alternated bench/e2e pairs.
func runAB(args []string) int {
	fs := flag.NewFlagSet("proxbench ab", flag.ContinueOnError)
	pairs := fs.Int("pairs", 10, "alternated parent/change pairs (a gain needs at least 10)")
	out := fs.String("out", "", "JSON table path (default BENCH_AB_<timestamp>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 || (len(rest) > 1 && rest[1] != "--") || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: proxbench ab [-pairs N] [-out FILE] <parent-rev> [-- bench/e2e flags]")
		return 2
	}
	var e2eArgs []string
	if len(rest) > 1 {
		e2eArgs = rest[2:]
	}

	// Ctrl-C or SIGTERM cancels the running build or bench/e2e; AB still
	// removes its worktree before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench.AB(ctx, bench.ABOptions{Parent: rest[0], Pairs: *pairs, Args: e2eArgs, Progress: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxbench ab:", err)
		return 1
	}
	fmt.Print(res.Render())
	path := *out
	if path == "" {
		path = "BENCH_AB_" + time.Now().UTC().Format("20060102T150405Z") + ".json"
	}
	if err := res.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "proxbench ab:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	if !res.OK() {
		fmt.Fprintln(os.Stderr, "proxbench ab: FAILED: a row is worse than its bound")
		return 1
	}
	return 0
}

// runSoak is the "soak" subcommand: one long bounded-memory streaming run
// over a generated landscape, reported in the same versioned JSON schema
// as suite runs and optionally gated on a peak-heap ceiling for the
// nightly job.
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

// measureSuite runs the suite once, profiling the whole measured region.
func measureSuite(seed int64, cpuprofile, memprofile string) (*bench.Report, error) {
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

	fmt.Fprintf(os.Stderr, "suite (seed %d):\n", seed)
	rep, err := bench.Run(bench.Options{Seed: seed, Progress: os.Stderr})
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
