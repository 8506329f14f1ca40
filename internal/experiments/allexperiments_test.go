package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/proxion"
)

// TestEveryExperimentProducesSaneTables drives each experiment over one
// small landscape and checks its structural invariants — the cross-checks
// a reviewer would do on the rendered tables.
func TestEveryExperimentProducesSaneTables(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 17, Contracts: 900})
	det := proxion.NewDetector(pop.Chain)
	res := det.AnalyzeAll(pop.Registry)
	idx := experiments.NewIndex(res)
	land := experiments.Replay(pop, det, idx)

	t.Run("performance", func(t *testing.T) {
		table := experiments.Performance(pop)
		if len(table.Rows) != 5 {
			t.Fatalf("rows = %d", len(table.Rows))
		}
		// Throughput must be positive and the latency parseable.
		if !strings.Contains(table.Rows[0][0], "latency") {
			t.Errorf("row 0 = %v", table.Rows[0])
		}
	})

	t.Run("effectiveness-sanctuary", func(t *testing.T) {
		table := experiments.EffectivenessSanctuary(pop, idx)
		// Proxion must identify at least as many proxies as USCHunt on the
		// all-source subset (row 2: "proxies identified").
		hunt := atoiOrFail(t, table.Rows[2][1])
		prox := atoiOrFail(t, table.Rows[2][2])
		if prox < hunt {
			t.Errorf("Proxion %d < USCHunt %d — the paper's ordering is violated", prox, hunt)
		}
	})

	t.Run("effectiveness-crush", func(t *testing.T) {
		table := experiments.EffectivenessCrush(pop, idx)
		crushOnly := atoiOrFail(t, table.Rows[1][1])
		libFPs := atoiOrFail(t, table.Rows[2][1])
		hidden := atoiOrFail(t, table.Rows[3][1])
		if libFPs > crushOnly {
			t.Errorf("library FPs %d exceed CRUSH-only %d", libFPs, crushOnly)
		}
		if hidden == 0 {
			t.Error("no hidden proxies found by Proxion alone")
		}
	})

	t.Run("runtime-errors", func(t *testing.T) {
		table := land.RuntimeErrors()
		if len(table.Rows) < 3 {
			t.Fatalf("rows = %d", len(table.Rows))
		}
		errs := strings.Split(table.Rows[2][1], " ")[0]
		if atoiOrFail(t, errs) == 0 {
			t.Error("expected injected broken contracts to produce emulation errors")
		}
	})

	t.Run("hidden-proxies", func(t *testing.T) {
		table := land.HiddenProxies()
		total := atoiOrFail(t, table.Rows[0][1])
		if total != len(res.Proxies()) {
			t.Errorf("proxies = %s, want %d", table.Rows[0][1], len(res.Proxies()))
		}
	})

	t.Run("etherscan-verifier", func(t *testing.T) {
		table := experiments.EtherscanVerifierFPs(pop)
		fp := atoiOrFail(t, table.Rows[0][1])
		fn := atoiOrFail(t, table.Rows[0][3])
		if fp == 0 {
			t.Error("the heuristic should produce library-caller false positives")
		}
		if fn > fp {
			t.Errorf("heuristic FN %d > FP %d — wrong failure shape", fn, fp)
		}
	})

	t.Run("figure4", func(t *testing.T) {
		table := land.Figure4()
		last := table.Rows[len(table.Rows)-1]
		if atoiOrFail(t, last[5]) != len(res.Proxies()) {
			t.Errorf("final pair total %s != proxies %d", last[5], len(res.Proxies()))
		}
	})

	t.Run("figure6", func(t *testing.T) {
		table := land.Figure6()
		total := 0
		for _, row := range table.Rows {
			total += atoiOrFail(t, row[1])
		}
		if total != len(res.Proxies()) {
			t.Errorf("histogram sums to %d, want %d proxies", total, len(res.Proxies()))
		}
	})

	t.Run("upgrade-authority", func(t *testing.T) {
		table := experiments.UpgradeAuthority(pop, idx)
		visible := atoiOrFail(t, table.Rows[0][1])
		frozen := atoiOrFail(t, table.Rows[1][1])
		if visible == 0 || frozen == 0 {
			t.Errorf("survey empty: visible=%d frozen=%d", visible, frozen)
		}
		if frozen > visible {
			t.Errorf("frozen %d > visible %d", frozen, visible)
		}
	})

	t.Run("extension-diamond", func(t *testing.T) {
		table := experiments.ExtensionDiamond(pop, idx)
		if len(table.Rows) != 4 {
			t.Fatalf("rows = %d", len(table.Rows))
		}
		base := table.Rows[2][1]
		if !strings.HasPrefix(base, "0 ") {
			t.Errorf("base pipeline detected diamonds: %q", base)
		}
	})
}

// TestAblationsProduceExpectedOrderings drives the five design-choice
// ablations and checks the direction of each result.
func TestAblationsProduceExpectedOrderings(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 19, Contracts: 700})
	res := proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry)
	idx := experiments.NewIndex(res)

	t.Run("disasm-filter", func(t *testing.T) {
		table := experiments.AblationDisasmFilter(pop)
		rejected := strings.Split(table.Rows[2][1], " ")[0]
		if atoiOrFail(t, rejected) == 0 {
			t.Error("filter rejected nothing; population must contain non-delegating contracts")
		}
	})

	t.Run("selector-choice", func(t *testing.T) {
		table := experiments.AblationSelectorChoice(pop, idx)
		crafted := atoiOrFail(t, table.Rows[0][1])
		fixed := atoiOrFail(t, table.Rows[1][1])
		if fixed >= crafted {
			t.Errorf("fixed probe (%d) should miss proxies the crafted probe finds (%d)", fixed, crafted)
		}
	})

	t.Run("history-search", func(t *testing.T) {
		table := experiments.AblationHistorySearch(pop, idx)
		binary := atoiOrFail(t, table.Rows[0][1])
		naive := atoiOrFail(t, table.Rows[1][1])
		if naive < binary*100 {
			t.Errorf("naive scan (%d) should dwarf binary search (%d)", naive, binary)
		}
	})

	t.Run("naive-push4", func(t *testing.T) {
		table := experiments.AblationNaivePush4(pop)
		if atoiOrFail(t, table.Rows[2][1]) == 0 {
			t.Error("no spurious signatures avoided; decoy constants missing from landscape")
		}
	})

	t.Run("dedup", func(t *testing.T) {
		table := experiments.AblationDedup(pop, res.Pairs)
		if len(table.Rows) != 2 {
			t.Fatalf("rows = %d", len(table.Rows))
		}
	})
}

func TestTable2RenderIncludesPaperColumn(t *testing.T) {
	var res experiments.Table2Result
	res.StorageProxion = experiments.Confusion{TP: 1, TN: 1}
	table := res.Table()
	out := table.Render()
	if !strings.Contains(out, "paper") || !strings.Contains(out, "78.2%") {
		t.Errorf("render missing paper reference:\n%s", out)
	}
}
