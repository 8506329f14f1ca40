package experiments

import (
	"repro/internal/dataset"
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

// Figure2 reproduces the availability breakdown: cumulative alive contracts
// by (source code × past transactions) per year.
func Figure2(pop *dataset.Population) *Table {
	a := NewLandscape(pop.Chain, pop.Registry, nil)
	for _, l := range pop.Labels {
		a.Observe(l, proxion.Item{})
	}
	return a.Figure2()
}

// Figure4 reproduces the cumulative proxy/logic pairs by source
// availability, using the detector's verdicts.
func Figure4(pop *dataset.Population, res *proxion.Result) *Table {
	a := NewLandscape(pop.Chain, pop.Registry, nil)
	a.replay(pop, res)
	return a.Figure4()
}

// Table3 reproduces the collision counts per deployment year, plus the
// duplicate share among function collisions.
func Table3(pop *dataset.Population, det *proxion.Detector, res *proxion.Result) *Table {
	a := NewLandscape(pop.Chain, pop.Registry, det)
	a.replay(pop, res)
	return a.Table3()
}

// Figure5 reproduces the bytecode-uniqueness skew: how many distinct proxy
// and logic bytecodes exist and how heavily the top templates dominate.
func Figure5(pop *dataset.Population, res *proxion.Result) *Table {
	a := NewLandscape(pop.Chain, pop.Registry, nil)
	a.replay(pop, res)
	return a.Figure5()
}

// Table4 reproduces the proxy design-standard split.
func Table4(res *proxion.Result) *Table {
	a := NewLandscape(nil, nil, nil)
	for _, rep := range res.Proxies() {
		a.observeStandard(rep)
	}
	return a.Table4()
}

// Figure6 reproduces the upgrade-count distribution over storage-based
// proxies, recovered with Algorithm 1.
func Figure6(pop *dataset.Population, det *proxion.Detector, res *proxion.Result) *Table {
	a := NewLandscape(pop.Chain, pop.Registry, det)
	a.replay(pop, res)
	return a.Figure6()
}
