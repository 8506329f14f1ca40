package watch

import (
	"testing"

	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/proxion"
)

// TestAnalyzePaysForNoEngine bounds what a single-address analysis may
// allocate beyond the analysis itself, on the cheapest contract there is:
// one the DELEGATECALL filter rejects. A streaming engine started and
// thrown away per call — workers, window channel, ring, stage counters,
// snapshot — cost 24 of the 27 objects this used to take; a follower makes
// one such call per upgrade.
func TestAnalyzePaysForNoEngine(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 1})
	var rejected []etypes.Address
	for _, l := range c.Labels {
		if !l.HasDelegateCall {
			rejected = []etypes.Address{l.Address}
			break
		}
	}
	if rejected == nil {
		t.Fatal("corpus has no contract without DELEGATECALL")
	}
	var stats pipeline.Stats
	a := NewDetectorAnalyzer(proxion.NewDetector(c.Chain), c.Registry, nil)
	a.Options.Stats = &stats
	analyze := func() {
		items, err := a.Analyze(rejected)
		if err != nil || len(items) != 1 || items[0].Report.HasDelegateCall {
			t.Fatalf("Analyze = %+v, %v", items, err)
		}
	}
	analyze() // already analyzed: nothing is first-seen below
	if allocs := testing.AllocsPerRun(100, analyze); allocs > 8 {
		t.Fatalf("Analyze of one filter-rejected address allocates %.0f objects, want at most 8", allocs)
	}
	if got := stats.FilterRejected.Load(); got != 102 {
		t.Fatalf("filter_rejected = %d after 102 analyses", got)
	}
}
