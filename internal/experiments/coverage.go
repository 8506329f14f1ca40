package experiments

import (
	"repro/internal/crush"
	"repro/internal/dataset"
	"repro/internal/salehi"
	"repro/internal/uschunt"
)

// Table1 reproduces the coverage matrix: which tools can identify proxies
// in each (source × transaction) availability bucket, demonstrated by
// actually running each tool over the landscape and checking whether it
// detects at least one true proxy per bucket. Proxion's column reads the
// run's verdicts from idx.
func Table1(pop *dataset.Population, idx Index) *Table {
	hunt := uschunt.New(pop.Registry)
	cr := crush.New(pop.Chain)
	sal := salehi.New(pop.Chain)

	var truth, huntHits, crushHits, salehiHits, proxionHits, etherscanHits [4]int
	for _, l := range populationLabels(pop) {
		if !l.IsProxy {
			continue
		}
		b := bucket(l.HasSource, l.HasTx) // Figure 2's columns
		truth[b]++
		if hunt.DetectProxy(l.Address).Detected {
			huntHits[b]++
		}
		if cr.IsProxy(l.Address) {
			crushHits[b]++
		}
		if sal.IsProxy(l.Address) {
			salehiHits[b]++
		}
		if idx[l.Address].Report.IsProxy {
			proxionHits[b]++
		}
		// Etherscan's verifier needs no source/tx, but it is a heuristic,
		// not a detector; the paper's Table 1 credits it only for
		// source-published contracts (its verification workflow).
		if l.HasSource {
			etherscanHits[b]++
		}
	}

	mark := func(hits, total int) string {
		if total == 0 {
			return "-"
		}
		if hits > 0 {
			return "yes (" + pct(hits, total) + ")"
		}
		return "no"
	}
	t := &Table{
		ID:    "Table 1",
		Title: "Proxy coverage by contract availability bucket (share of true proxies each tool identifies)",
		Header: []string{
			"tool", "source+tx", "source only", "tx only", "no source, no tx",
			"func collisions w/o source", "storage collisions w/o source",
		},
	}
	row := func(name string, hits [4]int, funcNoSrc, storNoSrc string) {
		t.Rows = append(t.Rows, []string{
			name,
			mark(hits[0], truth[0]), mark(hits[1], truth[1]),
			mark(hits[2], truth[2]), mark(hits[3], truth[3]),
			funcNoSrc, storNoSrc,
		})
	}
	row("EtherScan", etherscanHits, "no", "no")
	row("USCHunt", huntHits, "no", "no")
	row("Salehi et al.", salehiHits, "no", "no")
	row("CRUSH", crushHits, "no", "yes")
	row("Proxion", proxionHits, "yes", "yes")
	t.Rows = append(t.Rows, []string{"(true proxies)",
		itoa(truth[0]), itoa(truth[1]), itoa(truth[2]), itoa(truth[3]), "", ""})
	t.Notes = append(t.Notes,
		"Proxion's novel cells: hidden contracts (no source, no tx) and bytecode-only function collisions",
		"percentages below 100% reflect each tool's gates (compiler halts, trace gaps, emulation errors)")
	return t
}
