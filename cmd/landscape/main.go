// Command landscape generates the synthetic Ethereum contract population
// and prints the Section 7 findings: growth of proxies over the years,
// hidden contracts, duplication skew, standard adoption, and upgrade
// behaviour.
//
// Usage:
//
//	landscape [-contracts N] [-seed S]
//	landscape -stream [-retire] [-window N] [-contracts N] [-seed S]
//
// The default mode materializes the whole population before analyzing it.
// -stream pipes the generator straight into the analysis engine and folds
// the tables incrementally, never holding the corpus. A streamed proxy is
// analyzed as it is deployed, so one that upgrades later reports its
// deployment-time logic — the trade streaming makes, with or without
// -retire. With -retire the generator also drops fully analyzed
// contracts, so memory stays bounded by the windows at any -contracts —
// the mode that reproduces the paper's proportion tables at millions of
// contracts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/experiments"
	"repro/internal/proxion"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "landscape:", err)
		os.Exit(1)
	}
}

// run is the whole command over its arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("landscape", flag.ExitOnError)
	fs.SetOutput(stderr)
	contracts := fs.Int("contracts", 4000, "population size (paper scale: 36M)")
	seed := fs.Int64("seed", 1, "generation seed")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	stream := fs.Bool("stream", false, "stream generation into analysis instead of materializing the population")
	retire := fs.Bool("retire", false, "with -stream: drop fully analyzed contracts for bounded memory")
	window := fs.Int("window", 0, "with -stream: max in-flight contracts in the pipeline (0 = engine default)")
	cacheCap := fs.Int("cache-capacity", 0, "with -stream: LRU bound, in distinct bytecodes, on the per-bytecode records (verdict and facets) and on clone families (0 = unbounded)")
	fs.Parse(args)

	if *stream {
		return runStream(stdout, stderr, *contracts, *seed, *window, *cacheCap, *retire, *csvDir)
	}

	pop := dataset.Generate(dataset.Config{Seed: *seed, Contracts: *contracts})
	det := proxion.NewDetector(pop.Chain)
	return render(stdout, experiments.Replay(pop, det, experiments.NewIndex(det.AnalyzeAll(pop.Registry))), *csvDir)
}

// render prints every Section 7 table of one fold, in the batch order, and
// with csvDir set also writes each as CSV.
func render(stdout io.Writer, agg *experiments.Landscape, csvDir string) error {
	for _, t := range []*experiments.Table{
		agg.Figure2(),
		agg.Figure4(),
		agg.Table3(),
		agg.Figure5(),
		agg.Table4(),
		agg.Figure6(),
		agg.HiddenProxies(),
		agg.RuntimeErrors(),
	} {
		fmt.Fprintln(stdout, t.Render())
		if csvDir != "" {
			if err := writeCSV(csvDir, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// runStream is the bounded-memory path: generator → engine → incremental
// aggregates, with every label dropped as soon as its analysis item has
// been folded; every table renders from the one Landscape fold. Proxies
// that upgrade after their analysis report their deployment-time logic,
// whether or not retire drops analyzed contracts.
func runStream(stdout, stderr io.Writer, contracts int, seed int64, window, cacheCap int, retire bool, csvDir string) error {
	engineWindow := window
	if engineWindow <= 0 {
		engineWindow = proxion.DefaultWindow(0)
	}
	s := dataset.GenerateStream(dataset.StreamConfig{
		Config: dataset.Config{Seed: seed, Contracts: contracts},
		Window: 2 * engineWindow,
		Retire: retire,
	})
	defer s.Close()
	fmt.Fprintf(stderr, "streaming %d-contract landscape (seed %d, window %d, retire %v)...\n",
		contracts, seed, engineWindow, retire)

	det := proxion.NewDetector(s.Chain)
	agg := experiments.NewLandscape(s.Chain, s.Registry, det)

	// Labels queue between source hand-off and ordered sink emission; the
	// engine's window bounds its depth, and each label is released the
	// moment it is folded.
	var (
		mu        sync.Mutex
		queue     []*dataset.Label
		completed int
	)
	src := proxion.SourceFunc(func() (etypes.Address, bool) {
		l, ok := <-s.C
		if !ok {
			return etypes.Address{}, false
		}
		mu.Lock()
		queue = append(queue, l)
		mu.Unlock()
		return l.Address, true
	})
	sink := proxion.SinkFunc(func(it proxion.Item) {
		mu.Lock()
		l := queue[0]
		queue = queue[1:]
		mu.Unlock()
		agg.Observe(l, it)
		completed++
		s.Advance(completed)
	})
	snap := det.AnalyzeStream(src, s.Registry, sink, proxion.AnalyzeOptions{
		Window:        engineWindow,
		CacheCapacity: cacheCap,
	})
	fmt.Fprintf(stderr, "analyzed %d contracts (%.0f contracts/s), %d retired\n",
		snap.Contracts, snap.ContractsPerSec, s.Retired())

	sum := agg.Summary()
	fmt.Fprintf(stdout, "summary: %d contracts, %d proxies (%.1f%%), %d unresolved\n\n",
		sum.Contracts, sum.Proxies, 100*sum.ProxyShare(), sum.Unresolved)
	return render(stdout, agg, csvDir)
}

// writeCSV saves one table as <dir>/<id>.csv with a filesystem-safe name.
func writeCSV(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	name := strings.ToLower(strings.ReplaceAll(t.ID, " ", "_"))
	name = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, name)
	path := filepath.Join(dir, name+".csv")
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
