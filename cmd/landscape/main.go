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
// the tables incrementally, never holding the corpus; with -retire the
// generator also drops fully analyzed contracts, so memory stays bounded
// by the windows at any -contracts — the mode that reproduces the paper's
// proportion tables at millions of contracts.
package main

import (
	"flag"
	"fmt"
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "landscape:", err)
		os.Exit(1)
	}
}

func run() error {
	contracts := flag.Int("contracts", 4000, "population size (paper scale: 36M)")
	seed := flag.Int64("seed", 1, "generation seed")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	stream := flag.Bool("stream", false, "stream generation into analysis instead of materializing the population")
	retire := flag.Bool("retire", false, "with -stream: drop fully analyzed contracts for bounded memory")
	window := flag.Int("window", 0, "with -stream: max in-flight contracts in the pipeline (0 = engine default)")
	cacheCap := flag.Int("cache-capacity", 0, "with -stream: LRU bound, in distinct bytecodes, on the per-bytecode records (verdict and facets) and on clone families (0 = unbounded)")
	flag.Parse()

	if *stream {
		return runStream(*contracts, *seed, *window, *cacheCap, *retire, *csvDir)
	}

	pop := dataset.Generate(dataset.Config{Seed: *seed, Contracts: *contracts})
	det := proxion.NewDetector(pop.Chain)
	res := det.AnalyzeAll(pop.Registry)

	for _, t := range []*experiments.Table{
		experiments.Figure2(pop),
		experiments.Figure4(pop, res),
		experiments.Table3(pop, det, res),
		experiments.Figure5(pop, res),
		experiments.Table4(res),
		experiments.Figure6(pop, det, res),
		experiments.HiddenProxies(pop, res),
		experiments.RuntimeErrors(pop),
	} {
		fmt.Println(t.Render())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// runStream is the bounded-memory path: generator → engine → incremental
// aggregates, with every label dropped as soon as its analysis item has
// been folded. The RuntimeErrors table is batch-only (it re-analyzes a
// materialized population) and is skipped here; everything else renders
// from the Landscape fold. With -retire, proxies that upgrade after their
// analysis report their deployment-time logic — the trade streaming makes.
func runStream(contracts int, seed int64, window, cacheCap int, retire bool, csvDir string) error {
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
	fmt.Fprintf(os.Stderr, "streaming %d-contract landscape (seed %d, window %d, retire %v)...\n",
		contracts, seed, engineWindow, retire)

	det := proxion.NewDetector(s.Chain)
	agg := experiments.NewLandscape(s.Chain, s.Registry, det)
	sb := proxion.NewSummaryBuilder()

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
		sb.Emit(it)
		completed++
		s.Advance(completed)
	})
	snap := det.AnalyzeStream(src, s.Registry, sink, proxion.AnalyzeOptions{
		Window:        engineWindow,
		CacheCapacity: cacheCap,
	})
	fmt.Fprintf(os.Stderr, "analyzed %d contracts (%.0f contracts/s), %d retired\n",
		snap.Contracts, snap.ContractsPerSec, s.Retired())

	sum := sb.Summary(snap)
	fmt.Printf("summary: %d contracts, %d proxies (%.1f%%), %d unresolved\n\n",
		sum.Contracts, sum.Proxies, 100*sum.ProxyShare(), sum.Unresolved)

	for _, t := range []*experiments.Table{
		agg.Figure2(),
		agg.Figure4(),
		agg.Table3(),
		agg.Figure5(),
		agg.Table4(),
		agg.Figure6(),
		agg.HiddenProxies(),
	} {
		fmt.Println(t.Render())
		if csvDir != "" {
			if err := writeCSV(csvDir, t); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(os.Stderr, "note: RuntimeErrors (Section 7.1) requires a materialized population; run without -stream for it")
	return nil
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
