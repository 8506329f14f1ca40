package experiments

import (
	"fmt"
	"sort"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/etherscan"
	"repro/internal/etypes"
	"repro/internal/proxion"
)

// Landscape is the incremental aggregate behind the Section 7 tables: it
// observes one (label, analysis item) at a time and renders Figure 2,
// Figure 4, Table 3, Figure 5, Table 4, Figure 6 and the hidden-proxy
// count from its folded state. Its memory does not grow with the corpus —
// the per-year counters are fixed-size and the only maps are keyed by
// distinct bytecodes and distinct colliding templates, the cardinalities
// whose smallness is precisely what Figure 5 measures.
//
// The batch table functions are thin wrappers that replay a completed
// Population/Result through Observe; a streaming run feeds Observe as
// items leave the analysis sink, then renders once the stream drains.
type Landscape struct {
	registry *etherscan.Registry
	ch       *chain.Chain
	// det enables the Figure 6 upgrade recovery; leave nil if the table
	// is not needed.
	det *proxion.Detector

	f2 map[int]*availCounts
	f4 map[int]*pairSrcCounts

	funcByYear     map[int]int
	storByYear     map[int]int
	templateOfFunc map[int]int

	proxyDupes map[etypes.Hash]int
	logicDupes map[etypes.Hash]int
	logicSeen  map[etypes.Address]struct{}

	standards map[proxion.Standard]int
	proxies   int
	hidden    int

	upHist map[int]int
}

type availCounts struct{ both, sourceOnly, txOnly, neither int }

type pairSrcCounts struct{ both, logicOnly, proxyOnly, neither int }

// NewLandscape returns an empty aggregate reading source availability
// from reg, bytecode identity from ch, and (when det is non-nil) upgrade
// history through det.
func NewLandscape(ch *chain.Chain, reg *etherscan.Registry, det *proxion.Detector) *Landscape {
	a := &Landscape{
		registry:       reg,
		ch:             ch,
		det:            det,
		f2:             make(map[int]*availCounts),
		f4:             make(map[int]*pairSrcCounts),
		funcByYear:     make(map[int]int),
		storByYear:     make(map[int]int),
		templateOfFunc: make(map[int]int),
		proxyDupes:     make(map[etypes.Hash]int),
		logicDupes:     make(map[etypes.Hash]int),
		logicSeen:      make(map[etypes.Address]struct{}),
		standards:      make(map[proxion.Standard]int),
		upHist:         make(map[int]int),
	}
	for _, y := range years {
		a.f2[y] = &availCounts{}
		a.f4[y] = &pairSrcCounts{}
	}
	return a
}

// populationMember says whether a label belongs to the landscape's primary
// population, populationLabels' filter.
func populationMember(l *dataset.Label) bool {
	switch l.Kind {
	case dataset.KindLogic, dataset.KindLibrary, dataset.KindDestroyed:
		return false
	}
	return true
}

// Observe folds one contract: its ground-truth label (may be nil when no
// label exists for the address) and its finalized analysis item. Call at
// most once per contract; in a streaming run the item's chain reads
// (source lookups, bytecode hashes, upgrade history) happen here, before
// retirement can drop the records they touch.
func (a *Landscape) Observe(l *dataset.Label, it proxion.Item) {
	if l != nil && populationMember(l) {
		c := a.f2[l.Year]
		if c != nil {
			switch {
			case l.HasSource && l.HasTx:
				c.both++
			case l.HasSource:
				c.sourceOnly++
			case l.HasTx:
				c.txOnly++
			default:
				c.neither++
			}
		}
	}

	rep := it.Report
	if rep.IsProxy {
		a.observeStandard(rep)
		a.proxyDupes[a.ch.CodeHash(rep.Address)]++
		if _, dup := a.logicSeen[rep.Logic]; !dup {
			a.logicSeen[rep.Logic] = struct{}{}
			a.logicDupes[a.ch.CodeHash(rep.Logic)]++
		}
		if l != nil {
			if c := a.f4[l.Year]; c != nil {
				proxySrc := a.registry.HasSource(rep.Address)
				logicSrc := a.registry.HasSource(rep.Logic)
				switch {
				case proxySrc && logicSrc:
					c.both++
				case logicSrc:
					c.logicOnly++
				case proxySrc:
					c.proxyOnly++
				default:
					c.neither++
				}
			}
			if !l.HasSource && !l.HasTx {
				a.hidden++
			}
		}
		if a.det != nil {
			if rep.Target != proxion.TargetStorage {
				a.upHist[0]++
			} else {
				a.upHist[a.det.UpgradeCount(rep.Address, rep.ImplSlot)]++
			}
		}
	}

	if it.Pair != nil && l != nil {
		if len(it.Pair.Functions) > 0 {
			a.funcByYear[l.Year]++
			a.templateOfFunc[l.TemplateID]++
		}
		if anyExploitableCols(it.Pair.Storage) {
			a.storByYear[l.Year]++
		}
	}
}

// observeStandard folds only the proxy count and Table 4 standard split
// for one report — the subset of Observe the batch Table4 wrapper needs,
// which has neither chain nor labels in scope.
func (a *Landscape) observeStandard(rep proxion.Report) {
	if !rep.IsProxy {
		return
	}
	a.proxies++
	a.standards[rep.Standard]++
}

// Figure2 renders the availability breakdown from the folded per-year
// counts, cumulating at render time.
func (a *Landscape) Figure2() *Table {
	t := &Table{
		ID:     "Figure 2",
		Title:  "Cumulative alive contracts by source/transaction availability",
		Header: []string{"year", "source+tx", "source only", "tx only", "hidden (neither)", "total"},
	}
	var cum availCounts
	for _, y := range years {
		c := a.f2[y]
		cum.both += c.both
		cum.sourceOnly += c.sourceOnly
		cum.txOnly += c.txOnly
		cum.neither += c.neither
		total := cum.both + cum.sourceOnly + cum.txOnly + cum.neither
		t.Rows = append(t.Rows, []string{
			itoa(y), itoa(cum.both), itoa(cum.sourceOnly), itoa(cum.txOnly), itoa(cum.neither), itoa(total),
		})
	}
	total := cum.both + cum.sourceOnly + cum.txOnly + cum.neither
	t.Notes = append(t.Notes,
		fmt.Sprintf("source availability %s (paper ~18%%), tx availability %s (paper ~53%% incl. proxies)",
			pct(cum.both+cum.sourceOnly, total), pct(cum.both+cum.txOnly, total)),
		"population scaled from 36M to the configured size; proportions are the reproduction target")
	return t
}

// Figure4 renders the pair source-availability breakdown.
func (a *Landscape) Figure4() *Table {
	t := &Table{
		ID:     "Figure 4",
		Title:  "Cumulative detected proxy/logic pairs by source availability",
		Header: []string{"year", "both sources", "logic only", "proxy only", "neither", "total"},
	}
	var cum pairSrcCounts
	for _, y := range years {
		c := a.f4[y]
		cum.both += c.both
		cum.logicOnly += c.logicOnly
		cum.proxyOnly += c.proxyOnly
		cum.neither += c.neither
		t.Rows = append(t.Rows, []string{
			itoa(y), itoa(cum.both), itoa(cum.logicOnly), itoa(cum.proxyOnly), itoa(cum.neither),
			itoa(cum.both + cum.logicOnly + cum.proxyOnly + cum.neither),
		})
	}
	t.Notes = append(t.Notes,
		"paper: ~90% of proxy contracts lack source; the 'logic only' and 'neither' series dominate")
	return t
}

// Table3 renders the collision counts per deployment year.
func (a *Landscape) Table3() *Table {
	funcTotal, storTotal := 0, 0
	for _, y := range years {
		funcTotal += a.funcByYear[y]
		storTotal += a.storByYear[y]
	}
	dupFuncCollisions := 0
	for _, n := range a.templateOfFunc {
		if n > 1 {
			dupFuncCollisions += n
		}
	}
	t := &Table{
		ID:     "Table 3",
		Title:  "Function and storage collisions by proxy deployment year",
		Header: []string{"year", "function collisions", "storage collisions"},
	}
	for _, y := range years {
		t.Rows = append(t.Rows, []string{itoa(y), itoa(a.funcByYear[y]), itoa(a.storByYear[y])})
	}
	t.Rows = append(t.Rows, []string{"total", itoa(funcTotal), itoa(storTotal)})
	t.Notes = append(t.Notes,
		fmt.Sprintf("duplicated-bytecode share of function collisions: %s (paper: 98.7%%)",
			pct(dupFuncCollisions, funcTotal)),
		"paper totals: 1,566,784 function and 3,022 storage collisions at 36M-contract scale")
	return t
}

// Figure5 renders the bytecode-uniqueness skew.
func (a *Landscape) Figure5() *Table {
	topShare := func(m map[etypes.Hash]int, k int) (int, int) {
		var counts []int
		total := 0
		for _, n := range m {
			counts = append(counts, n)
			total += n
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		top := 0
		for i := 0; i < k && i < len(counts); i++ {
			top += counts[i]
		}
		return top, total
	}
	topProxies, totalProxies := topShare(a.proxyDupes, 3)

	t := &Table{
		ID:     "Figure 5",
		Title:  "Bytecode uniqueness of detected proxies and logics",
		Header: []string{"metric", "measured", "paper"},
	}
	t.Rows = append(t.Rows,
		[]string{"proxy instances", itoa(totalProxies), "19,599,317"},
		[]string{"unique proxy bytecodes", itoa(len(a.proxyDupes)), "96,420"},
		[]string{"unique logic bytecodes", itoa(len(a.logicDupes)), "38,707"},
		[]string{"top-3 proxy template share", pct(topProxies, totalProxies), "~42%"},
	)
	t.Notes = append(t.Notes,
		"the top-3 templates model CoinTool_App, XENTorrent and OwnableDelegateProxy")
	return t
}

// Table4 renders the proxy design-standard split.
func (a *Landscape) Table4() *Table {
	t := &Table{
		ID:     "Table 4",
		Title:  "Proxy contracts by design standard",
		Header: []string{"standard", "contracts", "ratio", "paper ratio"},
	}
	t.Rows = append(t.Rows,
		[]string{"EIP-1167", itoa(a.standards[proxion.StandardEIP1167]), pct(a.standards[proxion.StandardEIP1167], a.proxies), "89.05%"},
		[]string{"EIP-1822", itoa(a.standards[proxion.StandardEIP1822]), pct(a.standards[proxion.StandardEIP1822], a.proxies), "0.12%"},
		[]string{"EIP-1967", itoa(a.standards[proxion.StandardEIP1967]), pct(a.standards[proxion.StandardEIP1967], a.proxies), "1.00%"},
		[]string{"Others", itoa(a.standards[proxion.StandardOther]), pct(a.standards[proxion.StandardOther], a.proxies), "9.83%"},
	)
	t.Notes = append(t.Notes,
		"diamond (EIP-2535) proxies are missed by emulation, as the paper documents")
	return t
}

// Figure6 renders the upgrade-count distribution. Requires the aggregate
// to have been built with a non-nil detector.
func (a *Landscape) Figure6() *Table {
	upgraded, total, events, maxUp := 0, 0, 0, 0
	var keys []int
	for k, n := range a.upHist {
		keys = append(keys, k)
		total += n
		if k > 0 {
			upgraded += n
			events += k * n
		}
		if k > maxUp && n > 0 {
			maxUp = k
		}
	}
	sort.Ints(keys)
	t := &Table{
		ID:     "Figure 6",
		Title:  "Logic-contract upgrade counts per proxy (Algorithm 1)",
		Header: []string{"upgrades", "proxies"},
	}
	for _, k := range keys {
		t.Rows = append(t.Rows, []string{itoa(k), itoa(a.upHist[k])})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("never upgraded: %s (paper: 99.7%%); upgrade events: %d; max upgrades: %d (paper tail reaches ~80)",
			pct(total-upgraded, total), events, maxUp),
	)
	return t
}

// HiddenProxies renders the hidden-proxy headline count.
func (a *Landscape) HiddenProxies() *Table {
	t := &Table{
		ID:     "Section 7.2",
		Title:  "Hidden proxies (no source, no transactions)",
		Header: []string{"metric", "measured", "paper"},
	}
	t.Rows = append(t.Rows,
		[]string{"proxies detected", itoa(a.proxies), "19,599,317 (54.2%)"},
		[]string{"hidden among them", fmt.Sprintf("%d (%s)", a.hidden, pct(a.hidden, a.proxies)), "~1.5M (~7.7%)"},
	)
	return t
}

// replay feeds a completed batch run through the aggregate: every label
// paired with its report and pair analysis. This is the bridge that lets
// the batch table functions share the streaming fold.
func (a *Landscape) replay(pop *dataset.Population, res *proxion.Result) {
	repBy := make(map[etypes.Address]proxion.Report, len(res.Reports))
	for _, rep := range res.Reports {
		repBy[rep.Address] = rep
	}
	pairBy := make(map[etypes.Address]*proxion.PairAnalysis, len(res.Pairs))
	for i := range res.Pairs {
		pairBy[res.Pairs[i].Proxy] = &res.Pairs[i]
	}
	for _, l := range pop.Labels {
		it := proxion.Item{Report: repBy[l.Address]}
		if pa, ok := pairBy[l.Address]; ok {
			it.Pair = pa
		}
		a.Observe(l, it)
	}
}
