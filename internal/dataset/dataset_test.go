package dataset_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/proxion"
)

func TestGenerateDeterministic(t *testing.T) {
	a := dataset.Generate(dataset.Config{Seed: 42, Contracts: 300})
	b := dataset.Generate(dataset.Config{Seed: 42, Contracts: 300})
	if len(a.Labels) != len(b.Labels) {
		t.Fatalf("label counts differ: %d vs %d", len(a.Labels), len(b.Labels))
	}
	for i := range a.Labels {
		if a.Labels[i].Address != b.Labels[i].Address || a.Labels[i].Kind != b.Labels[i].Kind {
			t.Fatalf("label %d differs: %+v vs %+v", i, a.Labels[i], b.Labels[i])
		}
	}
	c := dataset.Generate(dataset.Config{Seed: 43, Contracts: 300})
	if len(a.Labels) == len(c.Labels) {
		same := true
		for i := range a.Labels {
			if a.Labels[i].Kind != c.Labels[i].Kind {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical populations")
		}
	}
}

func TestGenerateProportions(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 1, Contracts: 2000})

	var total, proxies, minimal, withSource, withTx int
	for _, l := range pop.Labels {
		if l.Kind == dataset.KindLogic || l.Kind == dataset.KindLibrary {
			continue // supporting contracts, not the sampled population
		}
		total++
		if l.IsProxy {
			proxies++
			if l.Kind == dataset.KindMinimalProxy {
				minimal++
			}
		}
		if l.HasSource {
			withSource++
		}
		if l.HasTx {
			withTx++
		}
	}
	proxyFrac := float64(proxies) / float64(total)
	if proxyFrac < 0.40 || proxyFrac > 0.70 {
		t.Errorf("proxy fraction = %.3f, want ~0.54", proxyFrac)
	}
	minimalFrac := float64(minimal) / float64(proxies)
	if minimalFrac < 0.80 || minimalFrac > 0.95 {
		t.Errorf("minimal-proxy fraction of proxies = %.3f, want ~0.89", minimalFrac)
	}
	sourceFrac := float64(withSource) / float64(total)
	if sourceFrac < 0.08 || sourceFrac > 0.30 {
		t.Errorf("source fraction = %.3f, want ~0.18", sourceFrac)
	}
}

func TestGeneratedChainConsistency(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 7, Contracts: 400})
	for _, l := range pop.Labels {
		code := pop.Chain.Code(l.Address)
		if l.Kind == dataset.KindDestroyed {
			if len(code) != 0 || !pop.Chain.IsDestroyed(l.Address) {
				t.Errorf("destroyed contract %s still alive", l.Address)
			}
			continue
		}
		if len(code) == 0 {
			t.Fatalf("label %s (%s) has no code on chain", l.Address, l.Kind)
		}
		if l.HasSource && pop.Registry.Source(l.Address) == nil {
			t.Errorf("label %s says source published but registry is empty", l.Address)
		}
		if !l.HasSource && pop.Registry.Source(l.Address) != nil {
			t.Errorf("label %s says no source but registry has one", l.Address)
		}
		if l.HasTx && pop.Chain.TxCount(l.Address) == 0 {
			t.Errorf("label %s (%s) says tx history but chain has none", l.Address, l.Kind)
		}
		if l.IsProxy && l.Logic.IsZero() {
			t.Errorf("proxy %s (%s) has no logic address", l.Address, l.Kind)
		}
	}
}

func TestGroundTruthAgainstDetector(t *testing.T) {
	// The detector must agree with every label's Detectable, which is false
	// at the documented blind spots (diamonds, hostile proxies).
	pop := dataset.Generate(dataset.Config{Seed: 3, Contracts: 600})
	d := proxion.NewDetector(pop.Chain)

	var checked, mismatches int
	for _, l := range pop.Labels {
		rep := d.Check(l.Address)
		checked++
		if rep.IsProxy != l.Detectable {
			mismatches++
			t.Errorf("detector disagrees on %s (%s): got %v, want %v",
				l.Address, l.Kind, rep.IsProxy, l.Detectable)
			if mismatches > 5 {
				t.Fatal("too many mismatches")
			}
		}
		if rep.IsProxy && l.Kind == dataset.KindMinimalProxy && rep.Standard != proxion.StandardEIP1167 {
			t.Errorf("minimal proxy %s classified as %s", l.Address, rep.Standard)
		}
	}
	if checked == 0 {
		t.Fatal("no contracts checked")
	}
}

// TestDetectableRule pins the landscape's one detectability rule: a
// proxy is detectable unless it is a diamond or a hostile proxy, the
// detector's documented blind spots. bench/e2e's landscape corpus keeps
// its own copy of this rule.
func TestDetectableRule(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		pop := dataset.Generate(dataset.Config{Seed: seed, Contracts: 4000})
		for _, l := range pop.Labels {
			want := l.IsProxy && l.Kind != dataset.KindDiamond && l.Kind != dataset.KindHostileProxy
			if l.Detectable != want {
				t.Errorf("seed %d, %s (%s): Detectable=%v, want %v", seed, l.Address, l.Kind, l.Detectable, want)
			}
		}
	}
}

func TestUpgradeHistoryRecorded(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 5, Contracts: 1200})
	d := proxion.NewDetector(pop.Chain)
	found := false
	for _, l := range pop.Labels {
		if l.Upgrades == 0 || l.ImplSlot == (etypes.Hash{}) {
			continue
		}
		found = true
		hist := d.LogicHistory(l.Address, l.ImplSlot)
		if len(hist) != l.Upgrades+1 {
			t.Errorf("%s (%s): history has %d logics, label says %d upgrades",
				l.Address, l.Kind, len(hist), l.Upgrades)
		}
	}
	if !found {
		t.Skip("no upgraded proxies in this sample; increase population")
	}
}

func TestAccuracyCorpusShape(t *testing.T) {
	corpus := dataset.GenerateAccuracyCorpus()
	if got := len(corpus.StoragePairs); got != 206 {
		t.Errorf("storage pairs = %d, want 206", got)
	}
	if got := len(corpus.FunctionPairs); got != 561 {
		t.Errorf("function pairs = %d, want 561", got)
	}
	var trueStorage, trueFunc int
	for _, pc := range corpus.StoragePairs {
		if pc.Truth {
			trueStorage++
		}
		if pop := corpus.Chain.Code(pc.Proxy); len(pop) == 0 {
			t.Fatalf("storage pair proxy %s has no code", pc.Proxy)
		}
	}
	for _, pc := range corpus.FunctionPairs {
		if pc.Truth {
			trueFunc++
		}
	}
	if trueStorage != 44 {
		t.Errorf("true storage collisions = %d, want 44", trueStorage)
	}
	if trueFunc != 560 {
		t.Errorf("true function collisions = %d, want 560", trueFunc)
	}
}

func TestAccuracyCorpusTagsAndGates(t *testing.T) {
	corpus := dataset.GenerateAccuracyCorpus()

	// Storage corpus family sizes drive Table 2; pin them.
	tags := map[string]int{}
	for _, pc := range corpus.StoragePairs {
		tags[pc.Tag]++
	}
	want := map[string]int{
		"true-visible": 27, "true-obfuscated": 17, "guarded-benign": 28,
		"padding": 80, "library": 48, "clean": 6,
	}
	for tag, n := range want {
		if tags[tag] != n {
			t.Errorf("storage tag %q = %d, want %d", tag, tags[tag], n)
		}
	}

	// Function corpus: the hostile proxies must actually fail emulation,
	// and exactly one no-tx true pair must exist in the storage corpus.
	fnTags := map[string]int{}
	for _, pc := range corpus.FunctionPairs {
		fnTags[pc.Tag]++
	}
	if fnTags["hostile"] != 3 || fnTags["honeypot"] != 101 {
		t.Errorf("function tags = %v", fnTags)
	}
	det := proxion.NewDetector(corpus.Chain)
	for _, pc := range corpus.FunctionPairs {
		if pc.Tag != "hostile" {
			continue
		}
		rep := det.Check(pc.Proxy)
		if rep.IsProxy || rep.EmulationErr == nil {
			t.Errorf("hostile proxy %s: proxy=%v err=%v", pc.Proxy, rep.IsProxy, rep.EmulationErr)
		}
	}
	noTx := 0
	for _, pc := range corpus.StoragePairs {
		if pc.Tag == "true-visible" && corpus.Chain.TxCount(pc.Proxy) == 0 {
			noTx++
		}
	}
	if noTx != 1 {
		t.Errorf("no-tx true pairs = %d, want exactly 1 (CRUSH's extra FN)", noTx)
	}
}

func TestYearOfMapsDeploymentBlocks(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 13, Contracts: 500})
	for _, l := range pop.Labels {
		switch l.Kind {
		case dataset.KindLogic, dataset.KindLibrary, dataset.KindDestroyed:
			continue
		}
		block := pop.Chain.CreatedAt(l.Address)
		if got := pop.YearOf(block); got != l.Year {
			t.Errorf("%s: YearOf(%d) = %d, label year %d", l.Address, block, got, l.Year)
		}
	}
}
