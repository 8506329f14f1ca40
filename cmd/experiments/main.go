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
	"io"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/proxion"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole command over its arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	contracts := fs.Int("contracts", 4000, "approximate population size (paper: 36M, scaled)")
	seed := fs.Int64("seed", 1, "landscape generation seed")
	quick := fs.Bool("quick", false, "skip the slower ablations")
	markdown := fs.Bool("md", false, "emit only EXPERIMENTS.md's \"## Measured output\" section on stdout")
	fs.Parse(args)

	progress := func(format string, args ...any) {
		if !*markdown {
			fmt.Fprintf(stdout, format, args...)
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

	// The run's one set of verdicts: every table below that reads a Proxion
	// verdict reads it here.
	idx := experiments.NewIndex(res)
	land := experiments.Replay(pop, det, idx)
	tables := []*experiments.Table{
		experiments.Table1(pop, idx),
		land.Figure2(),
		experiments.Performance(pop),
		experiments.EffectivenessSanctuary(pop, idx),
		experiments.EffectivenessCrush(pop, idx),
		land.Figure4(),
		land.Table3(),
		land.Figure5(),
		land.Table4(),
		land.Figure6(),
		land.RuntimeErrors(),
		experiments.EtherscanVerifierFPs(pop),
		land.HiddenProxies(),
	}

	progress("building Table 2 accuracy corpus...\n")
	corpus := dataset.GenerateAccuracyCorpus()
	tables = append(tables, experiments.Table2(corpus).Table())

	tables = append(tables, experiments.ExtensionDiamond(pop, idx), experiments.UpgradeAuthority(pop, idx))
	progress("running the multi-chain sweep...\n")
	tables = append(tables, experiments.MultiChain(*seed+100, *contracts/4))

	if !*quick {
		tables = append(tables,
			experiments.AblationDisasmFilter(pop),
			experiments.AblationSelectorChoice(pop, idx),
			experiments.AblationHistorySearch(pop, idx),
			experiments.AblationNaivePush4(pop),
			experiments.AblationDedup(pop, res.Pairs),
		)
	}

	if *markdown {
		fmt.Fprint(stdout, "## Measured output\n\n```text\n")
	}
	for _, t := range tables {
		fmt.Fprintln(stdout, t.Render())
	}
	if *markdown {
		fmt.Fprint(stdout, "```\n")
	}
	return nil
}
