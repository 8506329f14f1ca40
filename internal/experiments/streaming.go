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
// Figure 4, Table 3, Figure 5, Table 4, Figure 6, the runtime-error and
// the hidden-proxy counts from its folded state. Its memory does not grow
// with the corpus — the per-year counters are fixed-size and the only maps
// are keyed by distinct bytecodes, distinct colliding templates and
// distinct emulation errors, the cardinalities whose smallness is
// precisely what Figure 5 measures.
//
// A batch run folds its completed run's Index once through Replay;
// a streaming run feeds Observe as items leave the analysis sink, then
// renders once the stream drains.
type Landscape struct {
	registry *etherscan.Registry
	ch       *chain.Chain
	// det recovers Figure 6's upgrade counts with Algorithm 1.
	det *proxion.Detector

	// summary tallies every observed item: the proxy count and Table 4's
	// standard split.
	summary *proxion.SummaryBuilder

	// f2 and f4 count, per year, population members by bucket(HasSource,
	// HasTx) and detected pairs by bucket(logic source, proxy source).
	f2 map[int]*[4]int
	f4 map[int]*[4]int

	funcByYear     map[int]int
	storByYear     map[int]int
	templateOfFunc map[int]int

	proxyDupes map[etypes.Hash]int
	logicDupes map[etypes.Hash]int
	logicSeen  map[etypes.Address]struct{}

	hidden int

	// members counts population members; errKinds their terminal
	// emulation errors by message (Section 7.1).
	members  int
	errKinds map[string]int

	upHist map[int]int
}

// bucket is the availability column of two facts: 0 both, 1 the first
// only, 2 the second only, 3 neither.
func bucket(first, second bool) int {
	switch {
	case first && second:
		return 0
	case first:
		return 1
	case second:
		return 2
	}
	return 3
}

// NewLandscape returns an empty aggregate reading source availability
// from reg, bytecode identity from ch, and upgrade history through det.
func NewLandscape(ch *chain.Chain, reg *etherscan.Registry, det *proxion.Detector) *Landscape {
	a := &Landscape{
		registry:       reg,
		ch:             ch,
		det:            det,
		summary:        proxion.NewSummaryBuilder(),
		f2:             make(map[int]*[4]int),
		f4:             make(map[int]*[4]int),
		funcByYear:     make(map[int]int),
		storByYear:     make(map[int]int),
		templateOfFunc: make(map[int]int),
		proxyDupes:     make(map[etypes.Hash]int),
		logicDupes:     make(map[etypes.Hash]int),
		logicSeen:      make(map[etypes.Address]struct{}),
		errKinds:       make(map[string]int),
		upHist:         make(map[int]int),
	}
	for _, y := range years {
		a.f2[y] = &[4]int{}
		a.f4[y] = &[4]int{}
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
	a.summary.Emit(it)
	rep := it.Report
	if l != nil && populationMember(l) {
		a.members++
		if rep.EmulationErr != nil {
			a.errKinds[rep.EmulationErr.Error()]++
		}
		if c := a.f2[l.Year]; c != nil {
			c[bucket(l.HasSource, l.HasTx)]++
		}
	}

	if rep.IsProxy {
		a.proxyDupes[a.ch.CodeHash(rep.Address)]++
		if _, dup := a.logicSeen[rep.Logic]; !dup {
			a.logicSeen[rep.Logic] = struct{}{}
			a.logicDupes[a.ch.CodeHash(rep.Logic)]++
		}
		if l != nil {
			if c := a.f4[l.Year]; c != nil {
				c[bucket(a.registry.HasSource(rep.Logic), a.registry.HasSource(rep.Address))]++
			}
			if !l.HasSource && !l.HasTx {
				a.hidden++
			}
		}
		if rep.Target != proxion.TargetStorage {
			a.upHist[0]++
		} else {
			a.upHist[a.det.UpgradeCount(rep.Address, rep.ImplSlot)]++
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

// Figure2 renders the availability breakdown from the folded per-year
// counts, cumulating at render time.
func (a *Landscape) Figure2() *Table {
	t := &Table{
		ID:     "Figure 2",
		Title:  "Cumulative alive contracts by source/transaction availability",
		Header: []string{"year", "source+tx", "source only", "tx only", "hidden (neither)", "total"},
	}
	cum, total := cumulate(t, a.f2)
	t.Notes = append(t.Notes,
		fmt.Sprintf("source availability %s (paper ~18%%), tx availability %s (paper ~53%% incl. proxies)",
			pct(cum[0]+cum[1], total), pct(cum[0]+cum[2], total)),
		"population scaled from 36M to the configured size; proportions are the reproduction target")
	return t
}

// cumulate appends one row per year to t: the year, each bucket summed
// over that year and the ones before it, and their total. It returns the
// final sums and total.
func cumulate(t *Table, byYear map[int]*[4]int) (cum [4]int, total int) {
	for _, y := range years {
		row := []string{itoa(y)}
		total = 0
		for i, n := range byYear[y] {
			cum[i] += n
			total += cum[i]
			row = append(row, itoa(cum[i]))
		}
		t.Rows = append(t.Rows, append(row, itoa(total)))
	}
	return cum, total
}

// Figure4 renders the pair source-availability breakdown.
func (a *Landscape) Figure4() *Table {
	t := &Table{
		ID:     "Figure 4",
		Title:  "Cumulative detected proxy/logic pairs by source availability",
		Header: []string{"year", "both sources", "logic only", "proxy only", "neither", "total"},
	}
	cumulate(t, a.f4)
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
	s := a.Summary()
	row := func(name string, std proxion.Standard, paper string) []string {
		n := s.Standards[std.String()]
		return []string{name, itoa(n), pct(n, s.Proxies), paper}
	}
	t.Rows = append(t.Rows,
		row("EIP-1167", proxion.StandardEIP1167, "89.05%"),
		row("EIP-1822", proxion.StandardEIP1822, "0.12%"),
		row("EIP-1967", proxion.StandardEIP1967, "1.00%"),
		row("Others", proxion.StandardOther, "9.83%"),
	)
	t.Notes = append(t.Notes,
		"diamond (EIP-2535) proxies are missed by emulation, as the paper documents")
	return t
}

// Figure6 renders the upgrade-count distribution.
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

// RuntimeErrors renders the Section 7.1 robustness number: the share of
// alive contracts the emulation analyzes without terminal EVM errors
// (paper: 95.1%).
func (a *Landscape) RuntimeErrors() *Table {
	errs := 0
	msgs := make([]string, 0, len(a.errKinds))
	for msg, n := range a.errKinds {
		errs += n
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	t := &Table{
		ID:     "Section 7.1",
		Title:  "Emulation robustness over the landscape",
		Header: []string{"metric", "measured", "paper"},
	}
	t.Rows = append(t.Rows,
		[]string{"contracts analyzed", itoa(a.members), "36M"},
		[]string{"clean analyses", pct(a.members-errs, a.members), "95.1%"},
		[]string{"terminal EVM errors", itoa(errs) + " (" + pct(errs, a.members) + ")", "4.9%"},
	)
	for _, msg := range msgs {
		t.Rows = append(t.Rows, []string{"  " + msg, itoa(a.errKinds[msg]), ""})
	}
	return t
}

// HiddenProxies renders the hidden-proxy headline count (Section 7.2).
func (a *Landscape) HiddenProxies() *Table {
	proxies := a.Summary().Proxies
	t := &Table{
		ID:     "Section 7.2",
		Title:  "Hidden proxies (no source, no transactions)",
		Header: []string{"metric", "measured", "paper"},
	}
	t.Rows = append(t.Rows,
		[]string{"proxies detected", itoa(proxies), "19,599,317 (54.2%)"},
		[]string{"hidden among them", fmt.Sprintf("%d (%s)", a.hidden, pct(a.hidden, proxies)), "~1.5M (~7.7%)"},
	)
	return t
}

// Summary returns the verdict tally of every observed item in the CLI's
// -json shape, without a pipeline snapshot.
func (a *Landscape) Summary() proxion.Summary {
	return a.summary.Summary(nil)
}
