package experiments_test

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/proxion"
)

// TestIndexMatchesFreshAnalysis pins the fact the comparison tables rely
// on: a run's indexed item for a contract equals what a fresh detector's
// Check and AnalyzePair compute for it, on the landscape's shapes. The
// run answers through the streaming engine's shared records, clone
// families and pair memo; the fresh detector answers one call at a time.
func TestIndexMatchesFreshAnalysis(t *testing.T) {
	for _, seed := range []int64{1, 2, 17} {
		pop := dataset.Generate(dataset.Config{Seed: seed})
		idx := experiments.NewIndex(proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry))
		fresh := proxion.NewDetector(pop.Chain)
		for _, l := range pop.Labels {
			// A destroyed contract has no code left, so the chain does not
			// list it and the run never examines it; no table counts it.
			if l.Kind == dataset.KindDestroyed {
				continue
			}
			it, ok := idx[l.Address]
			if !ok {
				t.Errorf("seed %d %s (%s): not in the run", seed, l.Address, l.Kind)
				continue
			}
			if got, want := byMessage(it.Report), byMessage(fresh.Check(l.Address)); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s (%s): indexed report %+v, fresh Check %+v", seed, l.Address, l.Kind, got, want)
				continue
			}
			rep := it.Report
			switch {
			case !rep.IsProxy && it.Pair != nil:
				t.Errorf("seed %d %s (%s): pair indexed for a non-proxy", seed, l.Address, l.Kind)
			case rep.IsProxy && it.Pair == nil:
				t.Errorf("seed %d %s (%s): proxy indexed without its pair", seed, l.Address, l.Kind)
			case rep.IsProxy:
				if want := fresh.AnalyzePair(rep.Address, rep.Logic, pop.Registry); !reflect.DeepEqual(*it.Pair, want) {
					t.Errorf("seed %d %s (%s): indexed pair %+v, fresh AnalyzePair %+v", seed, l.Address, l.Kind, *it.Pair, want)
				}
			}
		}
	}
}

// comparableReport is a Report with its errors replaced by their messages:
// two analyses of one contract build distinct error values.
type comparableReport struct {
	proxion.Report
	EmulationErr, ResolveErr string
}

// byMessage makes rep comparable with reflect.DeepEqual.
func byMessage(rep proxion.Report) comparableReport {
	m := comparableReport{Report: rep}
	if rep.EmulationErr != nil {
		m.EmulationErr = rep.EmulationErr.Error()
	}
	if rep.ResolveErr != nil {
		m.ResolveErr = rep.ResolveErr.Error()
	}
	m.Report.EmulationErr, m.Report.ResolveErr = nil, nil
	return m
}
