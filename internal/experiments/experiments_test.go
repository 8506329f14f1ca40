package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/proxion"
)

// smallPop is shared across tests; generation is deterministic.
func smallPop(t *testing.T) *dataset.Population {
	t.Helper()
	return dataset.Generate(dataset.Config{Seed: 11, Contracts: 900})
}

// analyze runs the population's one analysis and folds it through Replay.
func analyze(t *testing.T, pop *dataset.Population) (*proxion.Result, experiments.Index, *experiments.Landscape) {
	t.Helper()
	det := proxion.NewDetector(pop.Chain)
	res := det.AnalyzeAll(pop.Registry)
	idx := experiments.NewIndex(res)
	return res, idx, experiments.Replay(pop, det, idx)
}

func TestTable2MatchesPaperExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus build is a few seconds")
	}
	corpus := dataset.GenerateAccuracyCorpus()
	res := experiments.Table2(corpus)

	assertConf := func(name string, got experiments.Confusion, tp, fp, tn, fn int) {
		t.Helper()
		if got.TP != tp || got.FP != fp || got.TN != tn || got.FN != fn {
			t.Errorf("%s = %+v, want TP=%d FP=%d TN=%d FN=%d", name, got, tp, fp, tn, fn)
		}
	}
	assertConf("storage/USCHunt", res.StorageUSCHunt, 33, 83, 79, 11)
	assertConf("storage/CRUSH", res.StorageCRUSH, 26, 76, 86, 18)
	assertConf("storage/Proxion", res.StorageProxion, 27, 28, 134, 17)
	assertConf("function/USCHunt", res.FuncUSCHunt, 299, 1, 0, 261)
	assertConf("function/Proxion", res.FuncProxion, 557, 0, 1, 3)
}

func TestTable4StandardShares(t *testing.T) {
	pop := smallPop(t)
	res, _, land := analyze(t, pop)
	table := land.Table4()
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// EIP-1167 dominates, as in the paper.
	if !strings.HasPrefix(table.Rows[0][0], "EIP-1167") {
		t.Fatalf("row 0 = %v", table.Rows[0])
	}
	var eip1167, others int
	for _, rep := range res.Proxies() {
		switch rep.Standard {
		case proxion.StandardEIP1167:
			eip1167++
		default:
			others++
		}
	}
	if eip1167 <= others*3 {
		t.Errorf("EIP-1167 share too low: %d vs %d others", eip1167, others)
	}
}

func TestFigure2Monotonic(t *testing.T) {
	pop := smallPop(t)
	_, _, land := analyze(t, pop)
	table := land.Figure2()
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 years", len(table.Rows))
	}
	prev := 0
	for _, row := range table.Rows {
		total := atoiOrFail(t, row[5])
		if total < prev {
			t.Errorf("cumulative total decreased: %d after %d", total, prev)
		}
		prev = total
	}
	if prev == 0 {
		t.Error("final population empty")
	}
}

func TestTable3CollisionsCounted(t *testing.T) {
	pop := smallPop(t)
	_, _, land := analyze(t, pop)
	table := land.Table3()
	totalRow := table.Rows[len(table.Rows)-1]
	if totalRow[0] != "total" {
		t.Fatalf("last row = %v", totalRow)
	}
	if atoiOrFail(t, totalRow[1]) == 0 {
		t.Error("no function collisions found in landscape")
	}
}

func TestFigure5SkewPresent(t *testing.T) {
	pop := smallPop(t)
	_, _, land := analyze(t, pop)
	table := land.Figure5()
	instances := atoiOrFail(t, table.Rows[0][1])
	unique := atoiOrFail(t, table.Rows[1][1])
	if unique == 0 || instances == 0 {
		t.Fatal("empty figure 5")
	}
	if instances < unique*10 {
		t.Errorf("duplication skew missing: %d instances over %d uniques", instances, unique)
	}
}

func TestCoverageMatrixShape(t *testing.T) {
	pop := smallPop(t)
	_, idx, _ := analyze(t, pop)
	table := experiments.Table1(pop, idx)
	// Proxion's row must cover the hidden bucket; USCHunt's must not.
	var proxionRow, huntRow []string
	for _, row := range table.Rows {
		switch row[0] {
		case "Proxion":
			proxionRow = row
		case "USCHunt":
			huntRow = row
		}
	}
	if proxionRow == nil || huntRow == nil {
		t.Fatal("missing tool rows")
	}
	if !strings.HasPrefix(proxionRow[4], "yes") {
		t.Errorf("Proxion hidden bucket = %q, want yes", proxionRow[4])
	}
	if strings.HasPrefix(huntRow[3], "yes") || strings.HasPrefix(huntRow[4], "yes") {
		t.Errorf("USCHunt covers tx-only/hidden buckets: %v", huntRow)
	}
}

func TestRenderAligned(t *testing.T) {
	table := &experiments.Table{
		ID:     "Test",
		Title:  "t",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "y"}},
		Notes:  []string{"n"},
	}
	out := table.Render()
	for _, want := range []string{"== Test — t ==", "xxxxx", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func atoiOrFail(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestCSVExport(t *testing.T) {
	table := &experiments.Table{
		Header: []string{"year", "count"},
		Rows:   [][]string{{"2023", "1,234"}, {"note \"x\"", "5"}},
	}
	csv := table.CSV()
	want := "year,count\n2023,\"1,234\"\n\"note \"\"x\"\"\",5\n"
	if csv != want {
		t.Errorf("csv = %q, want %q", csv, want)
	}
}

func TestMultiChainSweep(t *testing.T) {
	table := experiments.MultiChain(500, 400)
	if len(table.Rows) != 5 {
		t.Fatalf("networks = %d, want 5", len(table.Rows))
	}
	names := map[string]bool{}
	for _, row := range table.Rows {
		names[row[0]] = true
		if atoiOrFail(t, row[3]) == 0 {
			t.Errorf("%s: no proxies found", row[0])
		}
	}
	for _, want := range []string{"ethereum", "arbitrum", "bsc", "polygon", "optimism"} {
		if !names[want] {
			t.Errorf("missing network %s", want)
		}
	}
}
