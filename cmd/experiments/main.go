// Command experiments regenerates every table and figure of the paper's
// evaluation against a freshly generated synthetic landscape and prints the
// measured-vs-paper comparison. With -md it prints EXPERIMENTS.md's
// "## Measured output" section alone — the heading and the fenced tables,
// no progress lines — which EXPERIMENTS.md's header replaces in place.
//
// Usage:
//
//	experiments [-contracts N] [-seed S] [-quick] [-md]
package main

import (
	"flag"
	"fmt"
	"os"
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
	markdown := flag.Bool("md", false, "emit only EXPERIMENTS.md's \"## Measured output\" section on stdout")
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
		fmt.Print("## Measured output\n\n```text\n")
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if *markdown {
		fmt.Print("```\n")
	}
	return nil
}
