// Command experiments regenerates every table and figure of the paper's
// evaluation against a freshly generated synthetic landscape and prints the
// measured-vs-paper comparison. The output is the source material for
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-contracts N] [-seed S] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/proxion"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	contracts := flag.Int("contracts", 4000, "approximate population size (paper: 36M, scaled)")
	seed := flag.Int64("seed", 1, "landscape generation seed")
	quick := flag.Bool("quick", false, "skip the slower ablations")
	markdown := flag.Bool("md", false, "emit the full EXPERIMENTS.md document on stdout")
	flag.Parse()

	progress := func(format string, args ...any) {
		if !*markdown {
			fmt.Printf(format, args...)
		}
	}

	progress("generating landscape: %d contracts, seed %d...\n", *contracts, *seed)
	start := time.Now()
	pop := dataset.Generate(dataset.Config{Seed: *seed, Contracts: *contracts})
	progress("generated %d labeled contracts, chain height %d, in %s\n\n",
		len(pop.Labels), pop.Chain.CurrentBlock(), time.Since(start).Round(time.Millisecond))

	det := proxion.NewDetector(pop.Chain)
	progress("running full Proxion analysis...\n")
	start = time.Now()
	res := det.AnalyzeAll(pop.Registry)
	progress("analyzed %d contracts (%d proxies, %d pairs) in %s\n\n",
		len(res.Reports), len(res.Proxies()), len(res.Pairs), time.Since(start).Round(time.Millisecond))

	tables := []*experiments.Table{
		experiments.Table1(pop),
		experiments.Figure2(pop),
		experiments.Performance(pop),
		experiments.EffectivenessSanctuary(pop),
		experiments.EffectivenessCrush(pop),
		experiments.Figure4(pop, res),
		experiments.Table3(pop, det, res),
		experiments.Figure5(pop, res),
		experiments.Table4(res),
		experiments.Figure6(pop, det, res),
		experiments.RuntimeErrors(pop),
		experiments.EtherscanVerifierFPs(pop),
		experiments.HiddenProxies(pop, res),
	}

	progress("building Table 2 accuracy corpus...\n")
	corpus := dataset.GenerateAccuracyCorpus()
	tables = append(tables, experiments.Table2(corpus).Table())

	tables = append(tables, experiments.ExtensionDiamond(pop), experiments.UpgradeAuthority(pop))
	progress("running the multi-chain sweep...\n")
	tables = append(tables, experiments.MultiChain(*seed+100, *contracts/4))

	if !*quick {
		tables = append(tables,
			experiments.AblationDisasmFilter(pop),
			experiments.AblationSelectorChoice(pop),
			experiments.AblationHistorySearch(pop),
			experiments.AblationNaivePush4(pop),
			experiments.AblationDedup(pop),
		)
	}

	if *markdown {
		fmt.Print(markdownDoc(*contracts, *seed, tables))
		return nil
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	return nil
}

// markdownDoc assembles the EXPERIMENTS.md document around the measured
// tables, so the committed file is regenerable with one command.
func markdownDoc(contracts int, seed int64, tables []*experiments.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, `# EXPERIMENTS — paper vs measured

Every table and figure from the paper's evaluation (Sections 6–7),
regenerated by this repository against a **synthetic landscape of %d
contracts** (seed=%d; the paper analyzes 36M mainnet contracts — the
substitution is documented in DESIGN.md). Regenerate this file with:

`+"```sh\ngo run ./cmd/experiments -md > EXPERIMENTS.md\ngo test -bench=. -benchmem        # per-table benchmarks + ablations\n```"+`

## Reading guide — what "reproduced" means here

- **Shapes, not absolute counts.** The population is scaled ~10,000x, so
  rows report measured values next to the paper's. The reproduction targets
  are: who wins, by roughly what factor, which categories dominate, where
  the blind spots are.
- **Table 2 reproduces exactly** (every TP/FP/TN/FN cell) because the
  labeled corpus's case families are sized from the paper's Section 6.3
  breakdown while each tool genuinely computes its verdicts. Nothing is
  hard-coded: change any analyzer and the matrix shifts.
- **Vulnerable-pair density is inflated at small scale** (honeypot/Audius
  pairs are ~1%% of proxies here vs ~0.02%% on mainnet) so collision
  experiments have signal; Table 3's totals are therefore proportionally
  higher than a naive scale-down.
- Absolute latencies are ~3 orders of magnitude below the paper's (its
  6.4 ms/contract vs our ~15 us) because this EVM emulates small synthetic
  contracts in-process with no RPC; the *relative* economics (filter >>
  emulation, binary search >> scan, dedup >> cold analysis) are what the
  ablations reproduce.
- **Performance over time** is measured by bench/e2e, the benchmark
  BENCHMARK.json declares, not by this file: proxbench ab runs a change
  against a parent revision in alternated pairs and judges every workload
  and end-to-end metric against the benchmark's bounds, and CI runs it
  against the merge-base of every pull request (make bench-gate). See
  README.md's "Benchmarking" section.

## Headline comparison

| Artifact | Paper | Measured (this run) | Verdict |
|---|---|---|---|
| Proxy share (Sec. 7.2) | 54.2%% of 36M | see "Hidden proxies" table | OK shape |
| Hidden proxies (Sec. 7.2) | ~1.5M (~7.7%% of proxies) | see "Hidden proxies" table | OK shape |
| Standards (Table 4) | 89.05 / 0.12 / 1.00 / 9.83 %% | see Table 4 | OK near-exact |
| Accuracy (Table 2) | storage 54.4/54.4/78.2%%, function 53.3/99.5%% | identical matrices | OK exact |
| Algorithm 1 (Sec. 6.1) | ~26 getStorageAt calls/proxy | see Section 6.1 | OK shape |
| Duplication (Fig. 5, Table 3) | top-3 ~42%%; 98.7%% of function collisions duplicated | see Figure 5 / Table 3 | OK shape |
| Upgrades (Fig. 6) | 99.7%% never upgrade; tail to ~80 | see Figure 6 | OK shape |
| Emulation robustness (Sec. 7.1) | 95.1%% clean | see Section 7.1 | OK shape |
| Effectiveness (Sec. 6.2) | Proxion superset of CRUSH (minus lib FPs), beats USCHunt | same orderings | OK shape |
| Diamonds (Sec. 8.2 future work) | proposed, not built | transacted diamonds: 0%% base -> 100%% with history probes | implemented |

## Resilience overhead (no faults firing)

The production deployment reads an archive node that can fail, so every
node read in `+"`pipeline/stream-resilient`"+` goes through the full
`+"`internal/faultchain`"+` client — retry loop, circuit breaker, in-flight
gate, logical-read accounting — with no fault injector attached. The cost
when nothing goes wrong, measured by the `+"`proxbench`"+` suite
(1200-contract landscape):

- Per read, the client adds ~40ns over a bare `+"`chain.Reader`"+` call
  (≈92ns vs ≈49ns for a cached `+"`GetState`"+`), all of it atomics and
  dispatch — zero allocations. Two hot-path design choices keep it there:
  the in-flight bound is an atomic fast-path semaphore (not a channel),
  and per-attempt deadline contexts are elided when the backend declares
  itself non-blocking, since a deadline on a call that cannot block is
  unobservable.
- Per run, the suite's pipeline issues ~5.5k base reads, bounding the added
  work at ~0.25ms on a ~6ms run (<5%%); measured medians
  (`+"`pipeline/stream-resilient`"+` vs `+"`pipeline/stream-maxw`"+`) agree within
  run-to-run noise on the CI container. No gate defends this pair:
  bench/e2e reads its chains directly, so re-measure with
  `+"`go run ./cmd/proxbench`"+` when `+"`internal/faultchain`"+` changes.

## Streaming at scale (1M-contract soak)

The paper's landscape scan covers 36M contracts; the batch path here
materializes the whole population and result set, so its memory grows
with the corpus. The streaming refactor (generator → engine → incremental
aggregates, everything windowed; DESIGN.md "Memory model & backpressure")
removes that. One soak run at 1,000,000 configured contracts (1,050,549
labels including shared infrastructure), seed 1, the windows that were
the defaults when it was measured (engine 4,096 — 64 × workers since
PR 17, see "Engine workers × window" — cache 65,536), measured by
`+"`proxbench soak`"+` on the CI-class container:

| metric | old batch path | streaming soak |
|---|---|---|
| wall time | 163.7 s (114.1 generate + 49.7 analyze) | 333.5 s |
| throughput (overall) | 6,355 contracts/s | 3,150 contracts/s |
| peak heap (sampled HeapInuse) | 2,783 MiB | 588 MiB |
| peak RSS (VmHWM) | 3,142 MiB | 606 MiB |
| live heap after forced GC, end of run | corpus-resident (~2.7 GiB) | 122 MiB |
| per-item latency p50 / p99 | n/a (barrier) | 5.9 ms / 190 ms |
| contracts retired (freed mid-run) | 0 | 1,039,140 of 1,050,549 |

- The memory gap is the point, and it widens with scale: batch holds the
  chain, the population and all 1M reports/pairs at once (linear in the
  corpus — a 36M-contract run would need ~100 GiB), while streaming's
  live retention is the pinned shared set plus the windows. Batch wins
  ~2x on wall time at 1M because its generator runs unconstrained and
  analysis never waits on a window; that is the trade the soak buys
  bounded memory with.
- The ~122 MiB live residual is the never-retired pinned set (~11k shared
  logics/libraries that later deployments reference) plus the in-flight
  windows and the LRU verdict cache — it grows with the *shared* fraction
  of the landscape, not the corpus. Forced-GC checkpoints every 100k
  contracts: 27 MiB → 122 MiB over the full run, flattening as the
  template set saturates.
- Sampled peak heap (~0.6 GiB) sits well above live retention because the
  run allocates fast and the GC paces against floating garbage; the
  nightly ceiling (`+"`make soak`"+`, 2 GiB) is set to ignore that noise but
  fail on any return to corpus-proportional retention.
- Reproduce with `+"`make soak`"+` (or
  `+"`SOAK_CONTRACTS=1000000 go test ./internal/bench -run TestSoakFullScale -v -timeout 2h`"+`);
  the same §7 proportion tables at this scale come from
  `+"`go run ./cmd/landscape -stream -retire -contracts 1000000`"+`.

## Engine workers × window

`+"`Detector.AnalyzeStream`"+` is N workers that each run one contract to
completion (DESIGN.md "Pipeline architecture"); its two knobs are
`+"`AnalyzeOptions.Workers`"+` (default `+"`GOMAXPROCS`"+`) and `+"`AnalyzeOptions.Window`"+`
(default 64 × workers). The sweep that set both defaults, re-run on the
final build of PR 17: a scratch driver with the timing loop of
`+"`bench/e2e/scan.go`"+` (per-contract latency from the source handing the
address out to the sink receiving the item, decode cache emptied and a
fresh detector per pass), `+"`GOMAXPROCS=2`"+`, seed 13, unscaled, the median of
21 passes, two interleaved rounds — both readings shown. The first row of
each table is the default.

Clone-heavy landscape (`+"`dataset.Generate`"+`, 52,359 contracts — the
`+"`scan-landscape`"+` corpus: 38 %% stop at the filter, 94 %% of probes are
exact-hash hits):

| workers | window | contracts/s | p50 ms | p90 ms |
|---:|---:|---:|---:|---:|
| 2 | 128 | 407k, 374k | 0.0040, 0.0041 | 0.018, 0.021 |
| 2 | 8 | 350k, 371k | 0.0032, 0.0032 | 0.016, 0.013 |
| 2 | 32 | 395k, 414k | 0.0038, 0.0037 | 0.017, 0.016 |
| 2 | 512 | 400k, 413k | 0.0040, 0.0039 | 0.021, 0.020 |
| 2 | 4,096 | 396k, 414k | 0.0053, 0.0043 | **4.5, 1.0** |
| 1 | 64 | 332k, 338k | 0.0021, 0.0021 | 0.0039, 0.0037 |
| 3 | 128 | 401k, 384k | 0.0060, 0.0066 | 0.11, 0.12 |
| 3 | 192 | 391k, 403k | 0.0087, 0.0065 | 0.14, 0.13 |
| 4 | 128 | 382k, 377k | 0.019, 0.021 | 0.19, 0.21 |
| 4 | 256 | 392k, 392k | 0.055, 0.047 | 0.36, 0.35 |

Almost every bytecode distinct (`+"`gen.Generate`"+`, 4,255 contracts — the
`+"`scan-unique`"+` corpus: decode, emulation, static summary and un-memoised
pair analysis per contract):

| workers | window | contracts/s | p50 ms | p90 ms |
|---:|---:|---:|---:|---:|
| 2 | 128 | 41.1k, 38.2k | 0.074, 0.083 | 1.6, 1.7 |
| 2 | 8 | 38.2k, 36.5k | 0.052, 0.054 | 0.15, 0.16 |
| 2 | 32 | 40.0k, 38.5k | 0.066, 0.068 | 0.44, 0.46 |
| 2 | 512 | 41.4k, 41.2k | 0.076, 0.076 | 2.1, 1.9 |
| 2 | 4,096 | 40.3k, 40.1k | 0.079, 0.079 | 1.9, 1.7 |
| 1 | 64 | 33.6k, 33.0k | 0.0048, 0.0046 | 0.091, 0.093 |
| 3 | 128 | 45.5k, 44.6k | 0.27, 0.28 | 1.5, 1.6 |
| 4 | 128 | 44.4k, 45.7k | 0.79, 0.74 | 2.5, 2.5 |
| 4 | 256 | 48.2k, 47.8k | 0.77, 0.78 | 2.7, 2.7 |

- **Window.** Throughput is flat from 32 to 4,096 on both corpora (inside
  the ± 5 %% the two rounds differ by) and falls below that (8: the two
  workers wait for each other's emissions). What the window buys is
  run-ahead, and run-ahead is latency: with 4,096 slots a worker that
  loses its processor for a moment lets its peer finish thousands of
  cheap contracts that then all wait for it — p90 1–4.5 ms on the
  landscape against 0.02 ms at 128. Hence 64 × workers and not the 4,096
  the channel pipeline had (whose channel depths, not its window, bounded
  its run-ahead).
- **Workers.** More workers than processors never helps the landscape
  (same throughput inside the noise, p90 × 6 at 3 workers, × 10–18 at 4): a
  runnable worker without a processor is a contract nobody is working on
  with verdicts queueing behind it. On this host a goroutine that becomes
  runnable while both processors stay busy waits ≈ 20 ms for one (until the
  runtime preempts a peer); woken onto an idle processor it still waits
  ≈ 0.1 ms (mutex hand-off to a parked goroutine), and `+"`time.Sleep(3µs)`"+`
  returns after ≈ 1 ms — 25 to 5,000 times the 0.004 ms median verdict
  (scratch program, `+"`GOMAXPROCS=2`"+`, medians of 100–200 trials). On the
  unique corpus 3–4 workers do read 10–17 %% more contracts/s, at 3.5–10×
  the p50. CPU profiles of the two say why, and it is not parallelism:
  the 4-worker run spends *less* CPU on the same work (11.3 s against
  12.2 s of samples), all of the difference in the garbage collector
  (`+"`scanobject`"+` 1.8 s against 2.4 s) — twice the contracts in flight is
  twice the floating garbage, a larger heap goal and fewer GC cycles over
  a ≈ 50 MB heap. That is a property of a small benchmark heap, available
  to any caller through `+"`GOGC`"+`, and not worth a second default or a
  heuristic that trades every verdict's latency for it.
- **One worker** is the latency floor (no reorder wait at all) and costs
  ≈ 15 %% of the throughput on either corpus. The second processor's gain
  is that small on the landscape because a clone-heavy contract is ≈ 2.5 µs
  of work next to a serial pull-claim-emit of comparable size.
  `+"`pipeline.speedup_2p`"+` in `+"`bench/e2e`"+` reads the same thing.

## Measured output

`+"```text\n", contracts, seed)
	for _, t := range tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	b.WriteString("```\n")
	return b.String()
}
