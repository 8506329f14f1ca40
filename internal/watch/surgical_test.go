package watch

import (
	"testing"

	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/proxion"
)

// TestSurgicalInvalidation proves invalidation granularity at landscape
// scale: on a 10k+ contract corpus with heavy bytecode duplication, one
// upgraded storage proxy must cost exactly one pair re-analysis — the
// upgraded proxy's own — and no emulation at all. Its verdict re-anchors to
// the rewritten slot, so Invalidate keeps it (the invalidation count does
// not move) and the re-analysis is an exact hit; the byte-identical logic
// clone deployed alongside rides the verdict cache for free. Everything
// else stays served from the dedup tiers.
func TestSurgicalInvalidation(t *testing.T) {
	if testing.Short() {
		t.Skip("landscape-scale corpus; skipped in -short")
	}
	c := gen.Generate(gen.Config{Seed: 21, Contracts: 5200})
	if len(c.Labels) < 10000 {
		t.Fatalf("corpus holds %d labels, need a 10k landscape", len(c.Labels))
	}

	var ps pipeline.Stats
	det := proxion.NewDetector(c.Chain)
	an := NewDetectorAnalyzer(det, c.Registry, nil)
	an.Options.Stats = &ps
	f, err := New(Config{Reader: c.Chain, Analyzer: an})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Poll(); err != nil {
		t.Fatalf("cold follow: %v", err)
	}
	if got, want := f.Stats().DeploymentsSeen, uint64(len(c.Labels)); got != want {
		t.Fatalf("cold follow saw %d deployments of %d", got, want)
	}

	// One upgrade: a byte-identical clone of an existing logic deployed in
	// a fresh block, and one upgradeable proxy re-pointed at it.
	var target *gen.Label
	for _, l := range c.Labels {
		if l.Detectable && l.TargetStorage {
			target = l
			break
		}
	}
	if target == nil {
		t.Fatalf("corpus has no upgradeable proxy")
	}
	clone := etypes.Address{0xfe, 0xed, 0xfa, 0xce}
	c.Chain.AdvanceBlocks(1)
	c.Chain.InstallContract(clone, c.Chain.Code(target.Logic))
	c.Chain.SetStorageDirect(target.Address, target.ImplSlot, etypes.HashFromWord(clone.Word()))

	before := f.Stats()
	em := ps.Emulations.Load()
	pairs := ps.PairsAnalyzed.Load()
	if err := f.Poll(); err != nil {
		t.Fatalf("poll after upgrade: %v", err)
	}
	after := f.Stats()

	if d := ps.Emulations.Load() - em; d != 0 {
		t.Fatalf("upgrade cost %d emulations, want 0 (the upgraded proxy re-anchors; the clone must ride the cache)", d)
	}
	if d := ps.PairsAnalyzed.Load() - pairs; d != 1 {
		t.Fatalf("upgrade cost %d pair analyses, want exactly 1", d)
	}
	if d := after.DeploymentsSeen - before.DeploymentsSeen; d != 1 {
		t.Fatalf("%d deployments routed, want 1 (the clone)", d)
	}
	if d := after.UpgradesDetected - before.UpgradesDetected; d != 1 {
		t.Fatalf("%d upgrades detected, want 1", d)
	}
	if d := after.Reanalyses - before.Reanalyses; d != 1 {
		t.Fatalf("%d re-analyses, want 1", d)
	}
	if after.Invalidations != before.Invalidations {
		t.Fatalf("upgrade dropped %d cache entries, want none (the verdict re-anchors)", after.Invalidations-before.Invalidations)
	}
}
