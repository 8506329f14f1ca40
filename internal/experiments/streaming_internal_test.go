package experiments

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/proxion"
)

// TestSummaryBuilderMerge: one builder fed the batch run's items one at a
// time folds into the batch summary, and the summary it returns does not
// share its Standards map with the builder.
func TestSummaryBuilderMerge(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 11, Contracts: 900})
	det := proxion.NewDetector(pop.Chain)
	res := det.AnalyzeAll(pop.Registry)

	idx := NewIndex(res)
	b := proxion.NewSummaryBuilder()
	for _, rep := range res.Reports {
		b.Emit(idx[rep.Address])
	}

	want := proxion.Summarize(res)
	want.Pipeline = nil
	got := b.Summary(nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded summary diverges:\nfolded: %+v\nbatch:  %+v", got, want)
	}
	got.Standards[proxion.StandardEIP1167.String()]++
	if again := b.Summary(nil); !reflect.DeepEqual(again, want) {
		t.Errorf("writing a returned summary reached the builder:\nbuilder: %+v\nbatch:   %+v", again, want)
	}
}
