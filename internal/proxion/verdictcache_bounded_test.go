package proxion

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/pipeline"
	"repro/internal/solc"
	"repro/internal/u256"
)

func hashOfByte(b byte) etypes.Hash {
	var h etypes.Hash
	h[31] = b
	return h
}

// checkDeduped is the probe's dedup step as analysis.probe runs it: the
// record found by the chain's cached code hash, then checkRecord.
func (d *Detector) checkDeduped(addr etypes.Address, code []byte) (Report, probeTrace) {
	h := d.chain.CodeHash(addr)
	return d.checkRecord(d.artifacts.of(h), addr, code, h)
}

// TestVerdictCacheEvictionOrder pins the LRU policy of the one record
// cache: with capacity 2, touching A before inserting C must evict B, not A.
func TestVerdictCacheEvictionOrder(t *testing.T) {
	c := newArtifactCache()
	c.SetCapacity(2)

	hA, hB, hC := hashOfByte(1), hashOfByte(2), hashOfByte(3)
	c.of(hA)
	c.of(hB)
	c.of(hA) // refresh A: B is now least recently used
	c.of(hC) // over capacity: evict B

	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	_, hasA := c.Peek(hA)
	_, hasB := c.Peek(hB)
	_, hasC := c.Peek(hC)
	if !hasA || hasB || !hasC {
		t.Fatalf("after insert A,B, touch A, insert C: hasA=%v hasB=%v hasC=%v, want true,false,true", hasA, hasB, hasC)
	}
	if got := c.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

// TestVerdictCacheShrinkOnSetCapacity checks that lowering the capacity of
// a populated cache evicts immediately, oldest first, and that capacity 0
// returns the cache to unbounded mode.
func TestVerdictCacheShrinkOnSetCapacity(t *testing.T) {
	c := newArtifactCache()
	for i := byte(1); i <= 5; i++ {
		c.of(hashOfByte(i))
	}
	c.SetCapacity(2)
	if c.Len() != 2 {
		t.Fatalf("after shrink to 2: len = %d", c.Len())
	}
	_, has4 := c.Peek(hashOfByte(4))
	_, has5 := c.Peek(hashOfByte(5))
	if !has4 || !has5 {
		t.Fatal("shrink evicted the most recent entries instead of the oldest")
	}
	if got := c.Evictions(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}

	c.SetCapacity(0)
	for i := byte(6); i <= 20; i++ {
		c.of(hashOfByte(i))
	}
	if c.Len() != 17 {
		t.Fatalf("unbounded mode evicted: len = %d, want 17", c.Len())
	}
}

// TestVerdictCacheInvalidate covers the staleness remedy: after
// Invalidate, the old verdict (here a poisoned one, whose recording run
// panicked and consumed its sync.Once) is gone and the record's next
// verdict starts fresh, while the record itself — its facets — stays.
func TestVerdictCacheInvalidate(t *testing.T) {
	c := chain.New()
	addr := structAddr(0x09)
	c.InstallContract(addr, disasm.MinimalProxyRuntime(structAddr(0x10)))
	d := NewDetector(c)
	art := d.artifacts.of(c.CodeHash(addr))

	e := art.verdicts()
	func() {
		defer func() { _ = recover() }()
		e.once.Do(func() { panic("recording run died mid-probe") })
	}()
	if _, _, poisoned := e.lookup(etypes.Hash{}); !poisoned {
		t.Fatal("test setup: entry should be poisoned (once consumed, nothing recorded)")
	}
	if _, ok := d.ExportVerdict(addr); ok {
		t.Fatal("a poisoned entry was exported")
	}

	if n, err := d.Invalidate(addr); err != nil || n != 1 {
		t.Fatalf("Invalidate = %d, %v; want the verdict dropped", n, err)
	}
	if got, ok := d.artifacts.Peek(c.CodeHash(addr)); !ok || got != art {
		t.Fatal("Invalidate dropped the record, not just its verdict")
	}
	e2 := art.verdicts()
	if e2 == e {
		t.Fatal("verdict after Invalidate is the poisoned one, not a fresh one")
	}
	ran := false
	e2.once.Do(func() { ran = true })
	if !ran {
		t.Fatal("fresh verdict's once was already consumed")
	}

	// Invalidating an address whose bytecode holds no verdict is a no-op.
	other := structAddr(0x0a)
	c.InstallContract(other, []byte{0x00})
	if n, err := d.Invalidate(other); err != nil || n != 0 {
		t.Fatalf("Invalidate of an unseen bytecode = %d, %v; want 0", n, err)
	}
}

// boundedPair installs a storage proxy, a byte-identical duplicate of it and
// the logic both point at.
func boundedPair(t *testing.T) (c *chain.Chain, p1, p2, logic etypes.Address) {
	t.Helper()
	c = chain.New()
	slot := etypes.HashFromWord(u256.FromUint64(3))
	code := solc.MustCompile(&solc.Contract{
		Name:     "P",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
	})
	logic = etypes.MustAddress("0x0000000000000000000000000000000000000900")
	c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
	p1 = etypes.MustAddress("0x0000000000000000000000000000000000001001")
	p2 = etypes.MustAddress("0x0000000000000000000000000000000000001002")
	for _, p := range []etypes.Address{p1, p2} {
		c.InstallContract(p, code)
		c.SetStorageDirect(p, slot, etypes.HashFromWord(logic.Word()))
	}
	return c, p1, p2, logic
}

// TestRecordEvictionDropsFacetsAndVerdict: a record pushed out of the one
// LRU takes the verdict and the facets with it, so the next duplicate is
// re-emulated and its bytecode re-sliced; with room for both records the
// duplicate is an exact hit that walks nothing. The structural tier is off:
// it would promote the duplicate from the family the first analysis left.
func TestRecordEvictionDropsFacetsAndVerdict(t *testing.T) {
	for _, tc := range []struct {
		capacity   int
		emulations int64
		walks      int64
	}{
		{capacity: 1, emulations: 1, walks: 2}, // the logic's record evicts the proxy's
		{capacity: 2, emulations: 0, walks: 0},
	} {
		c, p1, p2, _ := boundedPair(t)
		d := NewDetector(c)
		opts := AnalyzeOptions{CacheCapacity: tc.capacity, DisableStructural: true}
		if it := d.AnalyzeAddress(p1, nil, opts); !it.Report.IsProxy || it.Pair == nil {
			t.Fatalf("capacity %d: first analysis %+v, want a proxy with its pair", tc.capacity, it)
		}
		var stats pipeline.Stats
		opts.Stats = &stats
		var it Item
		walks := walksOf(d, func() { it = d.AnalyzeAddress(p2, nil, opts) })
		if got := stats.Emulations.Load(); got != tc.emulations || walks != tc.walks {
			t.Errorf("capacity %d: duplicate cost %d emulations and %d walks, want %d and %d",
				tc.capacity, got, walks, tc.emulations, tc.walks)
		}
		if want := d.Check(p2); reportString(it.Report) != reportString(want) {
			t.Errorf("capacity %d: duplicate's report %s, want %s", tc.capacity, reportString(it.Report), reportString(want))
		}
	}
}

// TestRecordInvalidateKeepsFacets: Invalidate keeps a storage proxy's
// verdict, which every hit re-anchors, and swaps out any other verdict
// alone. After an upgrade, both storage duplicates are exact hits that
// equal an uncached Check and walk nothing (the new logic is byte-identical
// to the old, its facets on record). A duplicate of a hard-coded forwarder
// is re-emulated, but its bytecode's accesses are still on the record, so
// the re-analysis walks nothing either.
func TestRecordInvalidateKeepsFacets(t *testing.T) {
	t.Run("storage proxy", func(t *testing.T) {
		c, p1, p2, _ := boundedPair(t)
		d := NewDetector(c)
		if n := walksOf(d, func() { d.AnalyzeAddress(p1, nil, AnalyzeOptions{}) }); n != 2 {
			t.Fatalf("first pair cost %d walks, want 2", n)
		}
		next := structAddr(0x77)
		c.InstallContract(next, solc.MustCompile(boundedTestLogic()))
		c.SetStorageDirect(p1, etypes.HashFromWord(u256.FromUint64(3)), etypes.HashFromWord(next.Word()))
		if n, err := d.Invalidate(p1); err != nil || n != 0 {
			t.Fatalf("Invalidate = %d, %v; want 0, both tiers kept", n, err)
		}
		for _, p := range []etypes.Address{p1, p2} {
			var stats pipeline.Stats
			var it Item
			if n := walksOf(d, func() { it = d.AnalyzeAddress(p, nil, AnalyzeOptions{Stats: &stats}) }); n != 0 {
				t.Errorf("%s: analysis after Invalidate cost %d walks, want 0", p, n)
			}
			if em, hits := stats.Emulations.Load(), stats.CacheHits.Load(); em != 0 || hits != 1 {
				t.Errorf("%s: analysis after Invalidate ran %d emulations and %d hits, want an exact hit", p, em, hits)
			}
			if want := d.Check(p); reportString(it.Report) != reportString(want) {
				t.Errorf("%s: report %s, want %s", p, reportString(it.Report), reportString(want))
			}
		}
		if got := reportString(d.Check(p1)); got == reportString(d.Check(p2)) {
			t.Fatalf("test setup: the upgrade moved nothing (%s)", got)
		}
	})
	t.Run("hard-coded forwarder", func(t *testing.T) {
		c, p1, p2, _ := hardcodedPair(t)
		d := NewDetector(c)
		if n := walksOf(d, func() { d.AnalyzeAddress(p1, nil, AnalyzeOptions{}) }); n != 2 {
			t.Fatalf("first pair cost %d walks, want 2", n)
		}
		if n, err := d.Invalidate(p1); err != nil || n != 2 {
			t.Fatalf("Invalidate = %d, %v; want the verdict and the family dropped", n, err)
		}
		var stats pipeline.Stats
		var it Item
		if n := walksOf(d, func() { it = d.AnalyzeAddress(p2, nil, AnalyzeOptions{Stats: &stats}) }); n != 0 {
			t.Errorf("re-analysis after Invalidate cost %d walks, want 0 (facets kept)", n)
		}
		if got := stats.Emulations.Load(); got != 1 {
			t.Errorf("re-analysis after Invalidate ran %d emulations, want 1", got)
		}
		if want := d.Check(p2); reportString(it.Report) != reportString(want) {
			t.Errorf("re-analysis report %s, want %s", reportString(it.Report), reportString(want))
		}
	})
}

func boundedTestLogic() *solc.Contract {
	return &solc.Contract{
		Name: "Logic",
		Vars: []solc.Var{
			{Name: "reserved", Type: solc.TypeAddress},
			{Name: "value", Type: solc.TypeUint256},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "value"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "value"}}},
		},
	}
}

// TestBoundedCacheHitAccounting interleaves two duplicate bytecode
// families (A B A B) through a single-worker pipeline, so probe order is
// the contract order and the accounting is exact. Each proxy's pair stage
// also files the shared logic's record in the same LRU. Capacity 1 thrashes:
// every probe is a miss and an eviction chain; capacity 3 holds both
// families and the logic and serves the re-encounters from cache. Both must
// produce the identical analysis.
func TestBoundedCacheHitAccounting(t *testing.T) {
	build := func() *chain.Chain {
		c := chain.New()
		logic := etypes.MustAddress("0x0000000000000000000000000000000000000900")
		c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
		for i := 0; i < 4; i++ {
			// Even addresses get family A (slot 3), odd family B (slot 4) —
			// sorted contract order interleaves the two bytecodes.
			slot := uint64(3 + i%2)
			code := solc.MustCompile(&solc.Contract{
				Name:     "P",
				Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: etypes.HashFromWord(u256.FromUint64(slot))},
			})
			p := etypes.MustAddress(fmt.Sprintf("0x00000000000000000000000000000000000010%02x", i))
			c.InstallContract(p, code)
			c.SetStorageDirect(p, etypes.HashFromWord(u256.FromUint64(slot)), etypes.HashFromWord(logic.Word()))
		}
		return c
	}
	serial := AnalyzeOptions{Workers: 1}

	thrashOpts := serial
	thrashOpts.CacheCapacity = 1
	dThrash := NewDetector(build())
	thrash := dThrash.AnalyzeAllWithOptions(nil, thrashOpts)

	roomyOpts := serial
	roomyOpts.CacheCapacity = 3
	dRoomy := NewDetector(build())
	roomy := dRoomy.AnalyzeAllWithOptions(nil, roomyOpts)

	// Probe order is A B A B, each followed by the logic. Capacity 1: every
	// arrival misses and evicts the record before it, the other family's or
	// the logic's — 4 emulations, 0 hits, 7 evictions. Capacity 3: 2
	// emulations, 2 hits, 0 evictions.
	// Hits+emulations must account for every probed contract in both modes.
	if thrash.Stats.Emulations != 4 || thrash.Stats.CacheHits != 0 {
		t.Errorf("capacity 1: emulations=%d hits=%d, want 4/0", thrash.Stats.Emulations, thrash.Stats.CacheHits)
	}
	if got := dThrash.CacheEvictions(); got != 7 {
		t.Errorf("capacity 1: evictions=%d, want 7", got)
	}
	if roomy.Stats.Emulations != 2 || roomy.Stats.CacheHits != 2 {
		t.Errorf("capacity 3: emulations=%d hits=%d, want 2/2", roomy.Stats.Emulations, roomy.Stats.CacheHits)
	}
	if got := dRoomy.CacheEvictions(); got != 0 {
		t.Errorf("capacity 3: evictions=%d, want 0", got)
	}

	thrash.Stats, roomy.Stats = nil, nil
	if !reflect.DeepEqual(thrash, roomy) {
		t.Fatal("eviction changed analysis output: thrashing and roomy runs differ")
	}
}

// TestBoundedCacheNoStaleVerdictAfterInvalidate drives the detector path:
// a verdict is recorded for a bytecode, the recording address's state is
// then changed out from under the cache, and no duplicate may be served a
// stale verdict. A hard-coded forwarder's verdict bakes its logic in, so
// Invalidate must drop it and force the next duplicate to re-emulate rather
// than transfer the stale record. A storage proxy's verdict re-reads the
// implementation slot on every hit, so Invalidate keeps it and the
// upgraded duplicate's exact hit equals an uncached Check.
func TestBoundedCacheNoStaleVerdictAfterInvalidate(t *testing.T) {
	t.Run("hard-coded forwarder", func(t *testing.T) {
		c, p1, p2, logic := hardcodedPair(t)
		code := c.Code(p1)

		d := NewDetector(c)
		if _, tr := d.checkDeduped(p1, code); tr.source != sourceEmulated {
			t.Fatal("first probe cannot be a cache hit")
		}
		if _, tr := d.checkDeduped(p2, code); tr.source != sourceExactHit {
			t.Fatal("duplicate with identical guard state should hit")
		}

		// Invalidation drops the exact-hash verdict and the structural family
		// the code registered, so the re-probe reads p2's own state — fresh
		// state, nothing stale served — through a fresh emulation.
		if n, err := d.Invalidate(p1); err != nil || n != 2 {
			t.Fatalf("Invalidate = %d, %v; want both tiers dropped", n, err)
		}
		rep, tr := d.checkDeduped(p2, code)
		if tr.source != sourceEmulated {
			t.Fatalf("verdict served from a cache after invalidation (source %d)", tr.source)
		}
		if !rep.IsProxy || rep.Logic != logic {
			t.Fatalf("re-recorded verdict wrong: proxy=%v logic=%s", rep.IsProxy, rep.Logic)
		}
		// And the re-recorded verdict serves duplicates again.
		if _, tr := d.checkDeduped(p1, code); tr.source != sourceExactHit {
			t.Fatal("cache did not repopulate after invalidation")
		}
	})
	t.Run("storage proxy", func(t *testing.T) {
		c, p1, p2, _ := boundedPair(t)
		code := c.Code(p1)

		d := NewDetector(c)
		if _, tr := d.checkDeduped(p1, code); tr.source != sourceEmulated {
			t.Fatal("first probe cannot be a cache hit")
		}
		next := structAddr(0x77)
		c.InstallContract(next, solc.MustCompile(boundedTestLogic()))
		for _, p := range []etypes.Address{p1, p2} {
			c.SetStorageDirect(p, etypes.HashFromWord(u256.FromUint64(3)), etypes.HashFromWord(next.Word()))
		}
		if n, err := d.Invalidate(p1); err != nil || n != 0 {
			t.Fatalf("Invalidate = %d, %v; want 0, the verdict re-anchors", n, err)
		}
		rep, tr := d.checkDeduped(p2, code)
		if tr.source != sourceExactHit {
			t.Fatalf("upgraded duplicate was not an exact hit (source %d)", tr.source)
		}
		rep.Standard = classify(code, rep)
		if want := d.Check(p2); reportString(rep) != reportString(want) || rep.Logic != next {
			t.Fatalf("upgraded duplicate's hit %s, uncached Check %s", reportString(rep), reportString(want))
		}
	})
}

// hardcodedPair installs a forwarder whose logic address is baked into its
// code, a byte-identical duplicate of it and that logic. The forwarder
// keeps a storage variable of its own, so its bytecode has accesses to
// slice.
func hardcodedPair(t *testing.T) (c *chain.Chain, p1, p2, logic etypes.Address) {
	t.Helper()
	c = chain.New()
	logic = etypes.MustAddress("0x0000000000000000000000000000000000000900")
	c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
	code := solc.MustCompile(&solc.Contract{
		Name:     "H",
		Vars:     []solc.Var{{Name: "admin", Type: solc.TypeAddress}},
		Funcs:    []solc.Func{{ABI: abi.Function{Name: "admin"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "admin"}}}},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateHardcoded, Target: logic},
	})
	p1 = etypes.MustAddress("0x0000000000000000000000000000000000001001")
	p2 = etypes.MustAddress("0x0000000000000000000000000000000000001002")
	for _, p := range []etypes.Address{p1, p2} {
		c.InstallContract(p, code)
	}
	return c, p1, p2, logic
}
