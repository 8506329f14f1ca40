package proxion_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gen/oracle"
	"repro/internal/pipeline"
	"repro/internal/proxion"
)

// TestStreamEqualsSingleCalls: a loop of AnalyzeAddress calls and a
// one-worker AnalyzeStream are the same analysis — equal items, equal
// counters — over corpora that hold every shape of the generator's taxonomy,
// and so are the logic histories recovered on a warm detector and a fresh
// one (the differentials are oracle.Run's single-call and history layers).
func TestStreamEqualsSingleCalls(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c := gen.Generate(gen.Config{Seed: seed})
		if ms := oracle.CheckSingleCallParity(c, proxion.AnalyzeOptions{}); len(ms) > 0 {
			t.Errorf("single calls: %s", oracle.Format(c, ms))
		}
		if ms := oracle.CheckHistoryParity(c); len(ms) > 0 {
			t.Errorf("histories: %s", oracle.Format(c, ms))
		}
	}
}

// TestStreamConcurrentSingleCalls shares one detector between eight
// goroutines that analyze a duplicate-heavy corpus one address at a time —
// a query service's request goroutines. Whatever the interleaving, the
// items and the counters are the ones a single goroutine gets: a bytecode
// is emulated once, whoever meets it first. Under -race it also pins that
// concurrent calls do not write the detector's settings under each other.
func TestStreamConcurrentSingleCalls(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 41, Contracts: 300})
	addrs := pop.Chain.Contracts()
	run := func(goroutines int) ([]proxion.Item, []proxion.HistoricalAnalysis, map[string]int64) {
		var stats pipeline.Stats
		opts := proxion.AnalyzeOptions{Stats: &stats}
		d := proxion.NewDetector(pop.Chain)
		items := make([]proxion.Item, len(addrs))
		hists := make([]proxion.HistoricalAnalysis, len(addrs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(addrs); i = int(next.Add(1)) - 1 {
					items[i] = d.AnalyzeAddress(addrs[i], pop.Registry, opts)
					hists[i] = d.AnalyzePairHistory(items[i].Report, pop.Registry)
				}
			}()
		}
		wg.Wait()
		return items, hists, stats.Snapshot().Counters()
	}
	wantItems, wantHists, want := run(1)
	if want["cache_hits"] == 0 || want["pairs_analyzed"] == 0 {
		t.Fatalf("corpus exercises no duplicate or no pair: %v", want)
	}
	gotItems, gotHists, got := run(8)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counters of 8 goroutines differ from one's:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(gotItems, wantItems) {
		t.Error("items of 8 goroutines differ from one's")
	}
	if !reflect.DeepEqual(gotHists, wantHists) {
		t.Error("histories of 8 goroutines differ from one's")
	}
}

// TestStreamTwoOnOneDetector runs two AnalyzeStreams over one detector at
// once, as nothing forbids: each applies its cache settings while the
// other's workers read them, which the race detector must find properly
// synchronised, and both must produce the lone stream's result.
func TestStreamTwoOnOneDetector(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 41, Contracts: 300})
	want := proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry)
	want.Stats = nil

	d := proxion.NewDetector(pop.Chain)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := d.AnalyzeAllWithOptions(pop.Registry, proxion.AnalyzeOptions{Workers: 2})
			got.Stats = nil
			if !reflect.DeepEqual(got, want) {
				t.Error("a stream sharing its detector with another diverges from a lone one")
			}
		}()
	}
	wg.Wait()
}
