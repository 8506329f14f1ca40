package experiments

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/proxion"
)

// TestSummaryBuilderMerge: builders fed disjoint interleaved item streams
// merge into the batch summary.
func TestSummaryBuilderMerge(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 11, Contracts: 900})
	det := proxion.NewDetector(pop.Chain)
	res := det.AnalyzeAll(pop.Registry)

	pairBy := make(map[etypes.Address]*proxion.PairAnalysis, len(res.Pairs))
	for i := range res.Pairs {
		pairBy[res.Pairs[i].Proxy] = &res.Pairs[i]
	}
	parts := [2]*proxion.SummaryBuilder{proxion.NewSummaryBuilder(), proxion.NewSummaryBuilder()}
	for i, rep := range res.Reports {
		it := proxion.Item{Report: rep}
		if pa, ok := pairBy[rep.Address]; ok {
			it.Pair = pa
		}
		parts[i%2].Emit(it)
	}
	parts[0].Merge(parts[1])

	want := proxion.Summarize(res)
	want.Pipeline = nil
	if got := parts[0].Summary(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("merged summary diverges:\nmerged: %+v\nbatch:  %+v", got, want)
	}
}
