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

// Index is a completed run's analysis items by contract address: each
// report with its pair analysis (nil when none ran). It is the run's one
// set of verdicts; Replay and every comparison table that only reads a
// verdict look it up here instead of analyzing again. An address the run
// did not examine maps to the zero Item.
type Index map[etypes.Address]proxion.Item

// NewIndex indexes res once per run.
func NewIndex(res *proxion.Result) Index {
	idx := make(Index, len(res.Reports))
	for _, rep := range res.Reports {
		idx[rep.Address] = proxion.Item{Report: rep}
	}
	for i := range res.Pairs {
		it := idx[res.Pairs[i].Proxy]
		it.Pair = &res.Pairs[i]
		idx[res.Pairs[i].Proxy] = it
	}
	return idx
}

// Replay folds a completed batch run into one Landscape: every label
// paired with its indexed item, in label order. det is the detector that
// produced the run; Figure 6 recovers upgrade counts through it. Every
// Section 7 table of the run renders from the returned fold.
func Replay(pop *dataset.Population, det *proxion.Detector, idx Index) *Landscape {
	a := NewLandscape(pop.Chain, pop.Registry, det)
	for _, l := range pop.Labels {
		a.Observe(l, idx[l.Address])
	}
	return a
}
