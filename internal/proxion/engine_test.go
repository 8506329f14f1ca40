package proxion_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/gen/oracle"
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
			// The caches served duplicates, and the answers stayed the same.
			if got.Stats.CacheHits == 0 {
				t.Errorf("dedup hits %d, emulations %d: the caches served nothing",
					got.Stats.CacheHits, got.Stats.Emulations)
			}
			if !reflect.DeepEqual(stripStats(got), want) {
				t.Fatal("pipeline AnalyzeAll diverges from sequential reference")
			}
		})
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

// TestDedupCacheZeroSlotNotTransferred: a duplicate whose implementation
// slot is zero must not inherit the forwarding verdict recorded at a
// duplicate whose slot is set. Its fallback requires a nonzero
// implementation before forwarding, so the uncached path reverts there; the
// implementation slot is not a guard slot, so only the anchor's refusal of
// a zero slot keeps the exact hit from reporting a proxy of 0x0.
func TestDedupCacheZeroSlotNotTransferred(t *testing.T) {
	c := chain.New()
	slot := etypes.HashFromWord(u256.FromUint64(3))
	var p asm.Program
	p.Push(slot.Word()).Op(evm.SLOAD).JumpI("fwd").
		PushUint(0).PushUint(0).Op(evm.REVERT).
		Label("fwd").
		Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).
		Push(slot.Word()).Op(evm.SLOAD).
		Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP)
	code := p.MustAssemble()
	logic := etypes.MustAddress("0x0000000000000000000000000000000000009001")
	c.InstallContract(logic, solc.MustCompile(simpleLogic()))

	set := etypes.MustAddress("0x0000000000000000000000000000000000009201")
	unset := etypes.MustAddress("0x0000000000000000000000000000000000009202")
	c.InstallContract(set, code)
	c.SetStorageDirect(set, slot, etypes.HashFromWord(logic.Word()))
	c.InstallContract(unset, code)

	// One detector, in order: set records the forwarding verdict, unset
	// looks it up.
	d := proxion.NewDetector(c)
	if rep := d.AnalyzeAddress(set, nil, proxion.AnalyzeOptions{}).Report; !rep.IsProxy || rep.Logic != logic {
		t.Fatalf("set duplicate: %+v, want a proxy of %s", rep, logic)
	}
	got := d.AnalyzeAddress(unset, nil, proxion.AnalyzeOptions{}).Report
	if want := proxion.NewDetector(c).Check(unset); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-slot duplicate diverges from uncached analysis:\n got %+v\nwant %+v", got, want)
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

// TestAnalyzeWithHistory recovers the logic history of every proxy a full
// analysis detected, on the detector that ran it, and checks it against
// AnalyzePairHistory on a fresh one: the cached pair path must give the
// same historical analyses, oldest logic first.
func TestAnalyzeWithHistory(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(7))
	c := newChainWithPair(t, implSlot)
	// Upgrade the proxy once so the history has two versions.
	c.AdvanceBlocks(10)
	logic2 := etypes.MustAddress("0x0000000000000000000000000000000000009077")
	c.InstallContract(logic2, solc.MustCompile(simpleLogic()))
	c.AdvanceBlocks(10)
	c.SetStorageDirect(proxyAt, implSlot, etypes.HashFromWord(logic2.Word()))

	d := proxion.NewDetector(c)
	res := d.AnalyzeAll(nil)
	hists, re := oracle.Histories(d, res.Reports, nil)
	if re != nil {
		t.Fatal(re)
	}
	if len(hists) != 1 {
		t.Fatalf("histories = %d, want 1", len(hists))
	}
	h := hists[0]
	if h.Proxy != proxyAt {
		t.Fatalf("history proxy = %s, want %s", h.Proxy, proxyAt)
	}
	if len(h.Pairs) != 2 || h.Pairs[0].Logic != logicAt || h.Pairs[1].Logic != logic2 {
		t.Fatalf("history pairs = %+v, want the original logic then the upgrade", h.Pairs)
	}

	var rep proxion.Report
	for _, r := range res.Reports {
		if r.Address == proxyAt {
			rep = r
		}
	}
	want := proxion.NewDetector(c).AnalyzePairHistory(rep, nil)
	if !reflect.DeepEqual(h, want) {
		t.Fatal("history on the analyzing detector differs from a fresh AnalyzePairHistory")
	}
}
