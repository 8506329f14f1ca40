// Command e2e is the repository's end-to-end and per-layer benchmark: it
// times the three paths a user waits on — a landscape scan through
// AnalyzeStream, verdict queries against proxiond's server over HTTP, and
// the chain follower — from outside, through public functions only, and
// checks every answer against the generators' labels. README.md in this
// directory defines every workload and metric.
//
//	go run ./bench/e2e                          every workload, end to end
//	go run ./bench/e2e -trace 1                 every workload, per layer
//	go run ./bench/e2e -workload serve-hot -seed 7 -seconds 16 -trace 0
//	go run ./bench/e2e -check-repeat            two sets of runs, compared (≈12 min)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported quantity. bound is the share of the previous
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics have none.
type metric struct {
	name   string
	unit   string
	higher bool // a larger value is better
	bound  float64
}

// endToEnd lists what a user of the system sees. The bounds of the counts
// are about three times the spread ten seeds showed on the reference host;
// the timings' sit at the benchmark contract's cap of a quarter, because even
// scaled to the quiet host's speed (hostref.go) ten runs' timings spread by
// up to an eighth of their median (RESULTS.md). The bounded tail is the p90:
// the p99 is printed beside it, but ten runs' p99s spread by up to a quarter
// of their median, so no bound the contract allows could tell a regression
// of it from the host. Failures are reported
// beside the metrics as attempted/failed, not as one: a share that is 0 on
// every correct run has no median to hold a bound against.
var endToEnd = []metric{
	{"setup_s", "s", false, 0.25},
	{"throughput_ops_s", "1/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"latency_p90_ms", "ms", false, 0.25},
	{"allocs_per_op", "count", false, 0.12},
	{"retained_heap_mb", "MB", false, 0.20},
}

// perLayer lists the traced run's numbers, layer by layer.
var perLayer = []metric{
	{name: "keccak.sum256_ns_per_kib", unit: "ns"},
	{name: "chain.code_ns", unit: "ns"},
	{name: "disasm.filter_ns", unit: "ns"},
	{name: "disasm.filter_reject_share", unit: "share", higher: true},
	{name: "static.fingerprint_ns", unit: "ns"},
	{name: "static.analyze_ns", unit: "ns"},
	{name: "static.analyze_allocs", unit: "count"},
	{name: "static.promotions_per_summary", unit: "ratio", higher: true},
	{name: "evm.call_ns", unit: "ns"},
	{name: "evm.call_allocs", unit: "count"},
	{name: "evm.decode_misses", unit: "count"},
	{name: "proxion.check_cold_ns", unit: "ns"},
	{name: "proxion.check_cold_allocs", unit: "count"},
	{name: "cache.emulations", unit: "count"},
	{name: "cache.exact_hits", unit: "count", higher: true},
	{name: "cache.structural_hits", unit: "count", higher: true},
	{name: "cache.static_summaries", unit: "count"},
	{name: "cache.structural_rejects", unit: "count"},
	{name: "cache.hit_ratio", unit: "share", higher: true},
	{name: "cache.cold_pass_ns_per_contract", unit: "ns"},
	{name: "cache.warm_pass_ns_per_contract", unit: "ns"},
	{name: "cache.warm_pass_allocs_per_contract", unit: "count"},
	{name: "pair.analyze_ns", unit: "ns"},
	{name: "pair.analyze_allocs", unit: "count"},
	{name: "pair.selectors_ns", unit: "ns"},
	{name: "pair.slicing_ns", unit: "ns"},
	{name: "pair.verify_ns", unit: "ns"},
	{name: "pair.verify_share", unit: "share"},
	{name: "pipeline.stage.disasm-filter.busy_ns_per_item", unit: "ns"},
	{name: "pipeline.stage.emulation-probe.busy_ns_per_item", unit: "ns"},
	{name: "pipeline.stage.classification.busy_ns_per_item", unit: "ns"},
	{name: "pipeline.stage.pair-analysis.busy_ns_per_item", unit: "ns"},
	{name: "pipeline.passthrough_ns_per_contract", unit: "ns"},
	{name: "pipeline.passthrough_allocs_per_contract", unit: "count"},
	{name: "pipeline.speedup_2p", unit: "ratio", higher: true},
	{name: "store.put_ns", unit: "ns"},
	{name: "store.put_skipped_ns", unit: "ns"},
	{name: "store.get_ns", unit: "ns"},
	{name: "store.open_ms", unit: "ms"},
	{name: "store.bytes_per_entry", unit: "bytes"},
	{name: "store.appended", unit: "count"},
	{name: "serve.lookup_hit_ns", unit: "ns"},
	{name: "serve.http_hit_ns", unit: "ns"},
	{name: "serve.http_overhead_ns", unit: "ns"},
	{name: "serve.lookup_warm_miss_ns", unit: "ns"},
	{name: "serve.result_cache_hit_share", unit: "share", higher: true},
	{name: "serve.coalesced", unit: "count"},
	{name: "serve.analyses", unit: "count"},
	{name: "watch.poll_idle_ns", unit: "ns"},
	{name: "watch.poll_deploy_ns", unit: "ns"},
	{name: "watch.poll_upgrade_ns", unit: "ns"},
	{name: "watch.upgrades_detected", unit: "count"},
	{name: "watch.invalidations", unit: "count"},
	{name: "watch.reanalyses", unit: "count"},
	{name: "watch.emulations_per_upgrade", unit: "ratio"},
	{name: "trace.overhead_share", unit: "share"},
}

// workloads is the catalogue. Each stresses different layers, so that for
// every optimisation one workload exercises its mechanism and another
// bypasses it.
var workloads = []spec{
	{
		name: "scan-landscape",
		why:  "mainnet-skewed 50k-contract scan: filter, exact-hash hits and engine bookkeeping do the work, emulation little",
		setup: func(seed int64, scale int, _ string) (instance, error) {
			return newScan(landscapeCorpus(seed, scale))
		},
	},
	{
		name: "scan-unique",
		why:  "almost every bytecode distinct: caches bypassed, so decode, emulation, static summaries and un-memoised pair analysis dominate",
		setup: func(seed int64, scale int, _ string) (instance, error) {
			return newScan(genCorpus(seed, scaled(2000, scale, 24)))
		},
	},
	{
		name: "scan-nearclone",
		why:  "EIP-1167 stamps and slot twins: the structural tier promotes nearly all, each promotion costing a full static summary",
		setup: func(seed int64, scale int, _ string) (instance, error) {
			return newScan(nearCloneCorpus(seed, scale))
		},
	},
	{
		name: "serve-cold",
		why:  "first-touch HTTP queries on a fresh server and store: shard hand-off, engine, verdict export and store appends",
		setup: func(seed int64, scale int, outDir string) (instance, error) {
			return newServeBench(false, seed, scaled(1000, scale, 24), outDir)
		},
	},
	{
		name: "serve-hot",
		why:  "skewed repeat queries on a restarted server: result-cache hits, HTTP and JSON, and misses answered from the store-seeded cache",
		setup: func(seed int64, scale int, outDir string) (instance, error) {
			return newServeBench(true, seed, scaled(4000, scale, 24), outDir)
		},
	},
	{
		name: "follow-upgrades",
		why:  "scripted upgrade timeline, one block per poll: contract enumeration, watched-cell reads, surgical invalidation and re-analysis",
		setup: func(seed int64, scale int, _ string) (instance, error) {
			return newFollow(seed, scale)
		},
	},
}

// report is the last line of a run's output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints every metric as "workload metric value unit", then the
// report object.
func printRun(workload string, defs []metric, values map[string]float64, attempted, failed int, notes ...string) error {
	rep := report{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]reportValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s is %v", workload, d.name, v)
		}
		fmt.Printf("%s %s %v %s\n", workload, d.name, v, d.unit)
		rep.Metrics[d.name] = reportValue{Value: v, Unit: d.unit}
	}
	fmt.Printf("%s failed_share %v share (%d of %d)\n", workload, float64(failed)/float64(attempted), failed, attempted)
	for _, n := range notes {
		fmt.Printf("%s # %s\n", workload, n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type options struct {
	seed    int64
	seconds int
	trace   int
	outDir  string
}

// runOne measures one workload end to end or traced, prints it and returns
// the end-to-end values (nil for a traced run).
func runOne(sp spec, o options) (map[string]float64, error) {
	if o.trace != 0 {
		res, err := measureTrace(sp, o.seed, 1, o.outDir)
		if err != nil {
			return nil, err
		}
		if err := printRun(sp.name, perLayer, res.metrics, res.attempted, res.failed,
			"spans: "+filepath.Join(o.outDir, "trace-"+sp.name+".json")); err != nil {
			return nil, err
		}
		if res.failed > 0 {
			return nil, fmt.Errorf("%s: %d of %d traced operations answered wrongly", sp.name, res.failed, res.attempted)
		}
		return nil, nil
	}
	res, err := measureE2E(sp, o.seed, time.Duration(o.seconds)*time.Second, 1, o.outDir)
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("%d timed reps, %d ops, %d latency samples", res.reps, res.attempted, res.samples)
	tail := fmt.Sprintf("latency_p99_ms %v ms, for the record: it holds no bound", res.p99ms)
	host := fmt.Sprintf("host_scale %v (set-up %v): timings are as measured times this, throughput divided by it (hostref.go)", res.scale, res.setupScale)
	if err := printRun(sp.name, endToEnd, res.metrics, res.attempted, res.failed, note, tail, host); err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d operations failed", sp.name, res.failed, res.attempted)
	}
	if !res.tailResolved {
		return nil, fmt.Errorf("%s: %d latency samples leave fewer than %d beyond p99; raise -seconds",
			sp.name, res.samples, minBeyond)
	}
	return res.metrics, nil
}

// repeatRuns is how many runs make one of checkRepeat's two sets. The
// reference host slows a whole run down by a fifth every few runs, so two
// single runs would disagree by a quarter every few tries; the benchmark's
// driver compares medians of ten.
const repeatRuns = 3

// checkRepeat measures every selected workload in two interleaved sets of
// repeatRuns runs and holds the second set's medians against the first's
// with the benchmark's own bounds.
func checkRepeat(selected []spec, o options) error {
	exceeded := 0
	for _, sp := range selected {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = make(map[string][]float64)
		}
		for run := 0; run < 2*repeatRuns; run++ {
			values, err := runOne(sp, o)
			if err != nil {
				return err
			}
			for name, v := range values {
				sets[run%2][name] = append(sets[run%2][name], v)
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			w := math.Abs(b-a) / a
			verdict := "ok"
			if w > d.bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("repeat %s %s first %v second %v differ %.2f%% bound %.0f%% %s\n",
				sp.name, d.name, a, b, 100*w, 100*d.bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) differ between two sets of runs of the same code by more than their bound", exceeded)
	}
	return nil
}

func main() {
	var o options
	name := flag.String("workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 16, "length of the timed region of an end-to-end run")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer walk, not the end-to-end measurement")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "e2e", "out"), "directory for span files and scratch stores")
	repeat := flag.Bool("check-repeat", false, "run two interleaved sets of end-to-end runs and fail if their medians differ by more than a bound")
	flag.Parse()

	selected := workloads
	if *name != "all" {
		selected = nil
		for _, sp := range workloads {
			if sp.name == *name {
				selected = []spec{sp}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	fmt.Printf("# host num_cpu=%d gomaxprocs=%d (pinned: %d end to end, %d traced) %s %s/%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), e2eProcs, traceProcs,
		runtime.Version(), runtime.GOOS, runtime.GOARCH, o.seed)

	var err error
	if *repeat {
		o.trace = 0
		err = checkRepeat(selected, o)
	} else {
		for _, sp := range selected {
			if _, err = runOne(sp, o); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}
