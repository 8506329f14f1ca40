package experiments

import (
	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/proxion"
)

// years lists the evaluation years in order.
var years = []int{2015, 2016, 2017, 2018, 2019, 2020, 2021, 2022, 2023}

// populationLabels filters the landscape's primary population (excluding
// shared logic/library support contracts, which the paper counts inside
// the general population but we track separately).
func populationLabels(pop *dataset.Population) []*dataset.Label {
	var out []*dataset.Label
	for _, l := range pop.Labels {
		if populationMember(l) {
			out = append(out, l)
		}
	}
	return out
}

// Replay folds a completed batch run into one Landscape: every label
// paired with its report and pair analysis, in label order. det is the
// detector that produced res; Figure 6 recovers upgrade counts through it.
// Every Section 7 table of the run renders from the returned fold.
func Replay(pop *dataset.Population, det *proxion.Detector, res *proxion.Result) *Landscape {
	a := NewLandscape(pop.Chain, pop.Registry, det)
	repBy := make(map[etypes.Address]proxion.Report, len(res.Reports))
	for _, rep := range res.Reports {
		repBy[rep.Address] = rep
	}
	pairBy := make(map[etypes.Address]*proxion.PairAnalysis, len(res.Pairs))
	for i := range res.Pairs {
		pairBy[res.Pairs[i].Proxy] = &res.Pairs[i]
	}
	for _, l := range pop.Labels {
		a.Observe(l, proxion.Item{Report: repBy[l.Address], Pair: pairBy[l.Address]})
	}
	return a
}
