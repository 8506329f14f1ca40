package proxion_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/solc"
	"repro/internal/u256"
)

// sequentialReference reproduces the pre-pipeline analysis shape: one
// Check per address in chain order, then one AnalyzePair per detected
// proxy, all on a single goroutine with no dedup cache in play (Check
// always emulates). It is the oracle the streaming engine must match.
func sequentialReference(c *chain.Chain, sources proxion.SourceProvider) *proxion.Result {
	d := proxion.NewDetector(c)
	res := &proxion.Result{}
	for _, addr := range c.Contracts() {
		rep := d.Check(addr)
		res.Reports = append(res.Reports, rep)
		if rep.IsProxy && !rep.Logic.IsZero() {
			res.Pairs = append(res.Pairs, d.AnalyzePair(rep.Address, rep.Logic, sources))
		}
	}
	return res
}

// stripStats clears the fields that legitimately differ between runs
// (timing-dependent instrumentation) so results can be DeepEqual-compared.
func stripStats(res *proxion.Result) *proxion.Result {
	res.Stats = nil
	return res
}

// TestPipelineMatchesSequentialReference is the engine's core determinism
// contract: across several generated landscapes, the concurrent deduped
// pipeline must produce byte-for-byte the same reports and pairs as a
// sequential uncached pass.
func TestPipelineMatchesSequentialReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pop := dataset.Generate(dataset.Config{Seed: seed, Contracts: 300})
			want := stripStats(sequentialReference(pop.Chain, pop.Registry))

			got := proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry)
			deduped := *got.Stats
			if !reflect.DeepEqual(stripStats(got), want) {
				t.Fatal("pipeline AnalyzeAll diverges from sequential reference")
			}

			// The ablation pays an emulation for every duplicate the caches
			// served, and the answers stay the same.
			ablated := proxion.NewDetector(pop.Chain).
				AnalyzeAllWithOptions(pop.Registry, proxion.AnalyzeOptions{DisableDedup: true})
			if deduped.CacheHits == 0 || ablated.Stats.CacheHits != 0 || ablated.Stats.Emulations <= deduped.Emulations {
				t.Errorf("dedup hits %d, emulations %d; no-dedup hits %d, emulations %d",
					deduped.CacheHits, deduped.Emulations, ablated.Stats.CacheHits, ablated.Stats.Emulations)
			}
			if !reflect.DeepEqual(stripStats(ablated), want) {
				t.Fatal("no-dedup pipeline diverges from sequential reference")
			}
		})
	}
}

// TestAnalyzeSinceZeroEqualsAnalyzeAll pins the satellite fix: AnalyzeSince
// now runs on the same engine, so a zero-height incremental scan must be
// identical to a full scan.
func TestAnalyzeSinceZeroEqualsAnalyzeAll(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 3, Contracts: 300})
	full := stripStats(proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry))
	since := stripStats(proxion.NewDetector(pop.Chain).AnalyzeSince(0, pop.Registry))
	if !reflect.DeepEqual(since, full) {
		t.Fatal("AnalyzeSince(0, …) differs from AnalyzeAll")
	}
}

// TestAnalyzeAllDeterministic runs the concurrent pipeline twice over the
// same chain and requires identical output — scheduling must not leak into
// results.
func TestAnalyzeAllDeterministic(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 11, Contracts: 300})
	a := stripStats(proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry))
	b := stripStats(proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two AnalyzeAll runs over the same chain differ")
	}
}

// storageProxyCode compiles one storage-slot proxy; every call yields the
// same bytecode, so installing it at several addresses models the paper's
// duplicate-dominated landscape.
func storageProxyCode(slot etypes.Hash) []byte {
	return solc.MustCompile(&solc.Contract{
		Name:     "DupProxy",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
	})
}

// TestDedupCacheResolvesLogicPerAddress installs byte-identical upgradeable
// proxies pointing at different logic contracts. The cache must serve the
// emulation verdict once and still resolve each duplicate's own logic from
// its own storage — caching the verdict, not the logic address.
func TestDedupCacheResolvesLogicPerAddress(t *testing.T) {
	c := chain.New()
	slot := etypes.HashFromWord(u256.FromUint64(3))
	code := storageProxyCode(slot)

	logics := []etypes.Address{
		etypes.MustAddress("0x0000000000000000000000000000000000009001"),
		etypes.MustAddress("0x0000000000000000000000000000000000009002"),
		etypes.MustAddress("0x0000000000000000000000000000000000009003"),
	}
	logicCode := solc.MustCompile(simpleLogic())
	for _, l := range logics {
		c.InstallContract(l, logicCode)
	}

	proxies := make(map[etypes.Address]etypes.Address) // proxy -> its logic
	for i, l := range logics {
		p := etypes.MustAddress(fmt.Sprintf("0x00000000000000000000000000000000000091%02x", i))
		c.InstallContract(p, code)
		c.SetStorageDirect(p, slot, etypes.HashFromWord(l.Word()))
		proxies[p] = l
	}

	res := proxion.NewDetector(c).AnalyzeAll(nil)
	for _, rep := range res.Reports {
		wantLogic, isProxy := proxies[rep.Address]
		if !isProxy {
			continue
		}
		if !rep.IsProxy {
			t.Fatalf("duplicate proxy %s not detected", rep.Address)
		}
		if rep.Logic != wantLogic {
			t.Errorf("proxy %s resolved logic %s, want its own %s", rep.Address, rep.Logic, wantLogic)
		}
	}
	if res.Stats.CacheHits != int64(len(proxies)-1) {
		t.Errorf("cache hits = %d, want %d (one emulation per unique bytecode)",
			res.Stats.CacheHits, len(proxies)-1)
	}
}

// TestDedupCacheMinimalProxyClones checks the hard-coded side: EIP-1167
// clones of the same logic share one bytecode (and one emulation), while a
// clone of a different logic has different bytecode and gets its own entry.
func TestDedupCacheMinimalProxyClones(t *testing.T) {
	c := chain.New()
	logicCode := solc.MustCompile(simpleLogic())
	logicA := etypes.MustAddress("0x0000000000000000000000000000000000009001")
	logicB := etypes.MustAddress("0x0000000000000000000000000000000000009002")
	c.InstallContract(logicA, logicCode)
	c.InstallContract(logicB, logicCode)

	cloneOfA1 := etypes.MustAddress("0x0000000000000000000000000000000000009101")
	cloneOfA2 := etypes.MustAddress("0x0000000000000000000000000000000000009102")
	cloneOfB := etypes.MustAddress("0x0000000000000000000000000000000000009103")
	c.InstallContract(cloneOfA1, disasm.MinimalProxyRuntime(logicA))
	c.InstallContract(cloneOfA2, disasm.MinimalProxyRuntime(logicA))
	c.InstallContract(cloneOfB, disasm.MinimalProxyRuntime(logicB))

	res := proxion.NewDetector(c).AnalyzeAll(nil)
	want := map[etypes.Address]etypes.Address{cloneOfA1: logicA, cloneOfA2: logicA, cloneOfB: logicB}
	for _, rep := range res.Reports {
		wantLogic, isClone := want[rep.Address]
		if !isClone {
			continue
		}
		if !rep.IsProxy || rep.Logic != wantLogic {
			t.Errorf("clone %s: proxy=%v logic=%s, want logic %s", rep.Address, rep.IsProxy, rep.Logic, wantLogic)
		}
		if rep.Standard != proxion.StandardEIP1167 {
			t.Errorf("clone %s classified %s, want EIP-1167", rep.Address, rep.Standard)
		}
	}
	// cloneOfA2 duplicates cloneOfA1's bytes (exact hit); cloneOfB is a
	// distinct bytecode but a structural near-clone of the family, so the
	// second level promotes it without emulating: one emulation serves all
	// three stamps.
	if res.Stats.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2", res.Stats.CacheHits)
	}
	if res.Stats.StructuralHits != 1 {
		t.Errorf("structural hits = %d, want 1", res.Stats.StructuralHits)
	}
	if res.Stats.Emulations != 1 {
		t.Errorf("emulations = %d, want 1 (one per clone family)", res.Stats.Emulations)
	}
}

// TestDedupCachePackedSlotNotTransferred covers the divergence trap: a
// duplicate whose implementation slot carries nonzero upper bytes (a packed
// slot) must not inherit the recorded storage-target verdict — the uncached
// path classifies it differently, and cached analysis must match uncached
// analysis exactly.
func TestDedupCachePackedSlotNotTransferred(t *testing.T) {
	build := func() *chain.Chain {
		c := chain.New()
		slot := etypes.HashFromWord(u256.FromUint64(3))
		code := storageProxyCode(slot)
		logic := etypes.MustAddress("0x0000000000000000000000000000000000009001")
		c.InstallContract(logic, solc.MustCompile(simpleLogic()))

		clean := etypes.MustAddress("0x0000000000000000000000000000000000009201")
		packed := etypes.MustAddress("0x0000000000000000000000000000000000009202")
		c.InstallContract(clean, code)
		c.SetStorageDirect(clean, slot, etypes.HashFromWord(logic.Word()))
		c.InstallContract(packed, code)
		// Same address in the low 20 bytes, flag bits packed above it.
		packedVal := logic.Word().Or(u256.FromUint64(1).Shl(240))
		c.SetStorageDirect(packed, slot, etypes.HashFromWord(packedVal))
		return c
	}

	c := build()
	got := stripStats(proxion.NewDetector(c).AnalyzeAll(nil))
	want := stripStats(sequentialReference(build(), nil))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("packed-slot duplicate diverges from uncached analysis")
	}
}

// TestVerdictCacheConcurrentDuplicates floods a wide worker pool with
// byte-identical contracts; run under -race this exercises the cache's
// locking, and the counters prove exactly one emulation happened.
func TestVerdictCacheConcurrentDuplicates(t *testing.T) {
	c := chain.New()
	slot := etypes.HashFromWord(u256.FromUint64(5))
	code := storageProxyCode(slot)
	logicCode := solc.MustCompile(simpleLogic())

	const n = 64
	want := make(map[etypes.Address]etypes.Address, n)
	for i := 0; i < n; i++ {
		logic := etypes.MustAddress(fmt.Sprintf("0x000000000000000000000000000000000000a0%02x", i))
		proxy := etypes.MustAddress(fmt.Sprintf("0x000000000000000000000000000000000000b0%02x", i))
		c.InstallContract(logic, logicCode)
		c.InstallContract(proxy, code)
		c.SetStorageDirect(proxy, slot, etypes.HashFromWord(logic.Word()))
		want[proxy] = logic
	}

	res := proxion.NewDetector(c).AnalyzeAllWithOptions(nil, proxion.AnalyzeOptions{
		Workers: 8,
	})
	for _, rep := range res.Reports {
		wantLogic, isProxy := want[rep.Address]
		if !isProxy {
			continue
		}
		if !rep.IsProxy || rep.Logic != wantLogic {
			t.Fatalf("proxy %s: got logic %s, want %s", rep.Address, rep.Logic, wantLogic)
		}
	}
	// sync.Once serializes the first probe per bytecode, so the 63
	// concurrent duplicates must all be hits on the one proxy bytecode.
	if res.Stats.CacheHits != n-1 {
		t.Errorf("cache hits = %d, want %d", res.Stats.CacheHits, n-1)
	}
}

// TestAnalyzeWithHistory enables the optional history stage and checks it
// produces the same analyses as calling AnalyzePairHistory directly.
func TestAnalyzeWithHistory(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(7))
	c := newChainWithPair(t, implSlot)
	// Upgrade the proxy once so the history has two versions.
	c.AdvanceBlocks(10)
	logic2 := etypes.MustAddress("0x0000000000000000000000000000000000009077")
	c.InstallContract(logic2, solc.MustCompile(simpleLogic()))
	c.AdvanceBlocks(10)
	c.SetStorageDirect(proxyAt, implSlot, etypes.HashFromWord(logic2.Word()))

	res := proxion.NewDetector(c).AnalyzeAllWithOptions(nil, proxion.AnalyzeOptions{WithHistory: true})
	if len(res.Histories) != 1 {
		t.Fatalf("histories = %d, want 1", len(res.Histories))
	}
	h := res.Histories[0]
	if h.Proxy != proxyAt {
		t.Fatalf("history proxy = %s, want %s", h.Proxy, proxyAt)
	}
	if len(h.Pairs) != 2 {
		t.Fatalf("history pairs = %d, want 2 (original + upgrade)", len(h.Pairs))
	}

	var rep proxion.Report
	for _, r := range res.Reports {
		if r.Address == proxyAt {
			rep = r
		}
	}
	d := proxion.NewDetector(c)
	want := d.AnalyzePairHistory(rep, nil)
	if !reflect.DeepEqual(h, want) {
		t.Fatal("pipeline history differs from direct AnalyzePairHistory")
	}
	if res.Stats.HistoriesRecovered != 1 {
		t.Errorf("histories_recovered = %d, want 1", res.Stats.HistoriesRecovered)
	}
}
