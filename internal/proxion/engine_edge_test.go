package proxion_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/proxion"
)

// TestAnalyzeEmptyChain runs the streaming engine over a chain with no
// contracts at all: the result must be empty but well-formed, and the
// snapshot's derived rates must be zero rather than NaN.
func TestAnalyzeEmptyChain(t *testing.T) {
	res := proxion.NewDetector(chain.New()).AnalyzeAll(nil)
	if len(res.Reports) != 0 || len(res.Pairs) != 0 {
		t.Fatalf("empty chain produced %d reports, %d pairs", len(res.Reports), len(res.Pairs))
	}
	if res.Stats == nil {
		t.Fatalf("empty run has no stats snapshot")
	}
	if res.Stats.Contracts != 0 || res.Stats.Emulations != 0 || res.Stats.CacheHits != 0 {
		t.Errorf("empty run counted work: %+v", res.Stats)
	}
	for name, v := range map[string]float64{
		"cache_hit_rate":    res.Stats.CacheHitRate,
		"contracts_per_sec": res.Stats.ContractsPerSec,
	} {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("%s = %v on an empty run, want 0", name, v)
		}
	}
}

// TestAnalyzeSingleWorkerEverywhere runs the engine strictly serially —
// one worker, one contract in flight, the configuration with the least
// slack to hide a missed hand-back of the window slot — and requires full
// agreement with the sequential reference.
func TestAnalyzeSingleWorkerEverywhere(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 19, Contracts: 120})
	opts := proxion.AnalyzeOptions{Workers: 1, Window: 1}
	got := stripStats(proxion.NewDetector(pop.Chain).AnalyzeAllWithOptions(pop.Registry, opts))
	want := stripStats(sequentialReference(pop.Chain, pop.Registry))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("single-worker window-1 engine diverges from sequential reference")
	}
}
