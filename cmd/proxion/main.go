// Command proxion runs the full analysis pipeline over a generated chain
// snapshot: identify every proxy contract (including hidden ones), locate
// its logic contract, and report function and storage collisions per pair.
//
// Usage:
//
//	proxion [-contracts N] [-seed S] [-v] [-collisions-only] [-json]
//	        [-window N] [-cache-capacity N]
//	        [-resilient] [-faults PROFILE] [-fault-seed S] [-fault-depth D]
//	        [-retries N] [-backoff D] [-inflight N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultchain"
	"repro/internal/proxion"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "proxion:", err)
		os.Exit(1)
	}
}

// run is the whole command over its arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("proxion", flag.ExitOnError)
	fs.SetOutput(stderr)
	contracts := fs.Int("contracts", 4000, "population size to generate and analyze")
	seed := fs.Int64("seed", 1, "generation seed")
	verbose := fs.Bool("v", false, "print every detected proxy")
	collisionsOnly := fs.Bool("collisions-only", false, "print only pairs with collisions")
	jsonOut := fs.Bool("json", false, "emit a machine-readable summary instead of text")
	window := fs.Int("window", 0, "max in-flight contracts in the analysis pipeline (0 = engine default)")
	cacheCap := fs.Int("cache-capacity", 0, "LRU bound, in distinct bytecodes, on the per-bytecode records (verdict and facets) and on clone families (0 = unbounded)")
	readerFlags := faultchain.RegisterReaderFlags(fs)
	fs.Parse(args)

	// Progress goes to stderr so -json output stays machine-consumable.
	fmt.Fprintf(stderr, "generating %d-contract chain snapshot (seed %d)...\n", *contracts, *seed)
	pop := dataset.Generate(dataset.Config{Seed: *seed, Contracts: *contracts})
	fmt.Fprintf(stderr, "chain height %d, %d contracts alive\n", pop.Chain.CurrentBlock(), len(pop.Chain.Contracts()))

	// Pick the chain view: the raw snapshot, or the resilient client —
	// optionally over a fault-injecting backend for chaos runs.
	newReader, err := readerFlags.Readers(stderr)
	if err != nil {
		return err
	}

	det := proxion.NewDetector(newReader(pop.Chain, 0))
	res := det.AnalyzeAllWithOptions(pop.Registry, proxion.AnalyzeOptions{
		Window:        *window,
		CacheCapacity: *cacheCap,
	})

	sum := proxion.Summarize(res)
	if *jsonOut {
		out, err := sum.MarshalIndentJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		return nil
	}

	if st := res.Stats; st != nil {
		fmt.Fprintf(stdout, "\nanalyzed %d contracts in %s (%.0f contracts/s)\n",
			st.Contracts, (time.Duration(st.WallMS * float64(time.Millisecond))).Round(time.Millisecond),
			st.ContractsPerSec)
		fmt.Fprintf(stdout, "pipeline: %d emulations, %d cache hits (%.1f%% hit rate), %d aborts, %d getStorageAt calls\n",
			st.Emulations, st.CacheHits, 100*st.CacheHitRate, st.EmulationAborts, st.StorageAPICalls)
		if st.StructuralHits != 0 || st.StructuralRejects != 0 {
			fmt.Fprintf(stdout, "structural: %d near-clone promotions, %d static summaries, %d rejects\n",
				st.StructuralHits, st.StaticSummaries, st.StructuralRejects)
		}
		if st.Retries != 0 || st.BreakerTrips != 0 || st.Unresolved != 0 {
			fmt.Fprintf(stdout, "resilience: %d read retries, %d breaker trips, %d unresolved contracts\n",
				st.Retries, st.BreakerTrips, st.Unresolved)
		}
		for _, stage := range st.Stages {
			fmt.Fprintf(stdout, "  stage %-16s workers=%-3d processed=%-6d busy=%s\n",
				stage.Name, stage.Workers, stage.Processed,
				(time.Duration(stage.BusyMS * float64(time.Millisecond))).Round(time.Millisecond))
		}
	}
	fmt.Fprintf(stdout, "proxies: %d (%.1f%%)\n", sum.Proxies,
		100*float64(sum.Proxies)/float64(sum.Contracts))
	std := func(s proxion.Standard) int { return sum.Standards[s.String()] }
	fmt.Fprintf(stdout, "standards: EIP-1167=%d EIP-1822=%d EIP-1967=%d others=%d\n",
		std(proxion.StandardEIP1167), std(proxion.StandardEIP1822),
		std(proxion.StandardEIP1967), std(proxion.StandardOther))
	fmt.Fprintf(stdout, "emulation errors: %d\n\n", sum.EmulationErrors)

	if *verbose && !*collisionsOnly {
		for _, rep := range res.Proxies() {
			fmt.Fprintf(stdout, "proxy %s -> logic %s (%s, %s)\n  %s\n",
				rep.Address, rep.Logic, rep.Target, rep.Standard, rep.Reason)
		}
		fmt.Fprintln(stdout)
	}

	for _, pa := range res.Pairs {
		if (*verbose || *collisionsOnly) && (len(pa.Functions) > 0 || len(pa.Storage) > 0) {
			fmt.Fprintf(stdout, "pair %s / %s:\n", pa.Proxy, pa.Logic)
			for _, fc := range pa.Functions {
				label := fmt.Sprintf("selector 0x%x", fc.Selector)
				if fc.ProxyProto != "" {
					label += fmt.Sprintf(" (%s vs %s)", fc.ProxyProto, fc.LogicProto)
				}
				fmt.Fprintf(stdout, "  function collision: %s\n", label)
			}
			for _, sc := range pa.Storage {
				fmt.Fprintf(stdout, "  storage collision: slot %s proxy[%d:%d) vs logic[%d:%d) exploitable=%v verified=%v\n",
					sc.Slot, sc.ProxyOffset, sc.ProxyOffset+sc.ProxySize,
					sc.LogicOffset, sc.LogicOffset+sc.LogicSize, sc.Exploitable, sc.Verified)
			}
		}
	}
	fmt.Fprintf(stdout, "collision summary: %d pairs with function collisions, %d with storage collisions, %d verified exploits\n",
		sum.PairsWithFunctionCollisions, sum.PairsWithStorageCollisions, sum.VerifiedExploits)
	return nil
}
