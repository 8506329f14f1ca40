package proxion

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/solc"
	"repro/internal/static"
	"repro/internal/u256"
)

// artifactCorpus is every distinct bytecode of a gen corpus (the full shape
// taxonomy, sources and all) and of a dataset sample (the landscape's
// templates), by code hash.
func artifactCorpus(t testing.TB) map[etypes.Hash][]byte {
	t.Helper()
	codes := make(map[etypes.Hash][]byte)
	g := gen.Generate(gen.Config{Seed: 19, Contracts: 96})
	if got := len(g.Shapes()); got < 9 {
		t.Fatalf("gen corpus holds %d shapes, want the full taxonomy", got)
	}
	for _, l := range g.Labels {
		codes[etypes.Keccak(l.Code)] = l.Code
	}
	pop := dataset.Generate(dataset.Config{Seed: 19, Contracts: 400})
	for _, a := range pop.Chain.Contracts() {
		codes[pop.Chain.CodeHash(a)] = pop.Chain.Code(a)
	}
	return codes
}

// TestSlicerMatchesReference holds the shipped slicer — storage-free blocks
// skipped, one stack for all blocks, accesses by index — against the frozen
// every-block evaluator, access for access and in the same order.
func TestSlicerMatchesReference(t *testing.T) {
	withAccesses, deep := 0, 0
	for h, code := range artifactCorpus(t) {
		got, want := ExtractStorageAccesses(code), refExtractStorageAccesses(code)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("code %s: slicer diverges from the reference:\n got %+v\nwant %+v", h, got, want)
		}
		if len(want) > 0 {
			withAccesses++
		}
		if len(want) > 12 { // past the sort's insertion-sort range
			deep++
		}
	}
	if withAccesses < 20 || deep == 0 {
		t.Fatalf("corpus too thin: %d codes with accesses, %d with more than 12", withAccesses, deep)
	}
}

// TestArtifactFacetsEqualTheFacades is the artifact's contract: the
// accesses equal ExtractStorageAccesses(code), the summary built on the
// caller's hashes equals static.Analyze(code), and the selector facets
// equal the scanners'.
func TestArtifactFacetsEqualTheFacades(t *testing.T) {
	d := NewDetector(chain.New())
	for h, code := range artifactCorpus(t) {
		wantAcc, wantSum := ExtractStorageAccesses(code), static.Analyze(code)
		if got := d.storageAccesses(new(artifact), code); !reflect.DeepEqual(got, wantAcc) {
			t.Fatalf("code %s: accesses\n got %+v\nwant %+v", h, got, wantAcc)
		}
		if got := d.summarize(code, wantSum.CodeHash, wantSum.Fingerprint); !reflect.DeepEqual(got, wantSum) {
			t.Fatalf("code %s: summary\n got %+v\nwant %+v", h, got, wantSum)
		}

		art := new(artifact)
		addr := etypes.BytesToAddress(h[:20])
		if got, want := art.probeCallData(addr, code), CraftCallData(addr, code); !reflect.DeepEqual(got, want) {
			t.Fatalf("code %s: probe call data %x, want %x", h, got, want)
		}
		if got, want := collideViews(art.view(code, nil), art.view(code, nil)), FunctionCollisionsBytecode(code, code); !reflect.DeepEqual(got, want) {
			t.Fatalf("code %s: bytecode view collides as %v, want %v", h, got, want)
		}
		if got, want := art.dispatcherTargets(code), disasm.DispatcherTargets(code); !reflect.DeepEqual(got, want) {
			t.Fatalf("code %s: dispatcher targets %v, want %v", h, got, want)
		}
	}
}

// TestArtifactSourceViewFollowsTheSource: the one-entry source facet serves
// any source object declaring the same functions and is replaced, not
// reused, when a source with other functions shows up under the bytecode.
func TestArtifactSourceViewFollowsTheSource(t *testing.T) {
	mk := func(protos ...string) *solc.Contract {
		c := &solc.Contract{Name: "C"}
		for _, p := range protos {
			f, err := abi.ParsePrototype(p)
			if err != nil {
				t.Fatal(err)
			}
			c.Funcs = append(c.Funcs, solc.Func{ABI: f})
		}
		return c
	}
	a, twin, other := mk("owner()", "set(uint256)"), mk("owner()", "set(uint256)"), mk("owner()", "set(address)")
	art := new(artifact)
	for _, src := range []*solc.Contract{a, twin, other, a} {
		got := art.view(nil, src)
		if want := sourceView(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("view under %+v = %+v, want %+v", src.Funcs, got, want)
		}
	}
	first := art.view(nil, a)
	if second := art.view(nil, twin); &first.selectors[0] != &second.selectors[0] {
		t.Error("a second source object with the same functions rebuilt the view")
	}
}

// walksOf runs fn and returns the disassemblies it cost d.
func walksOf(d *Detector, fn func()) int64 {
	before := d.walks.Load()
	fn()
	return d.walks.Load() - before
}

// TestArtifactWalkBudget pins what a bytecode costs in disassemblies: two
// for a first-seen bytecode-only pair (the pair stage walks each side; a
// lone leader runs no summary), none for a stamp whose target has no code
// (a stamp has no storage instruction to slice), none for further
// addresses carrying bytecodes already seen, and one for the deferred
// summary of a leader whose family gets a follower.
func TestArtifactWalkBudget(t *testing.T) {
	c := chain.New()
	slot := etypes.Keccak([]byte("walk.budget.slot"))
	proxyCode := solc.MustCompile(&solc.Contract{
		Name: "P", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot}})
	logicCode := solc.MustCompile(&solc.Contract{
		Name: "L",
		Vars: []solc.Var{{Name: "owner", Type: solc.TypeAddress}},
		Funcs: []solc.Func{{
			ABI:  abi.Function{Name: "owner"},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}},
		}},
	})
	if !disasm.ScanCode(proxyCode).StorageOps || !disasm.ScanCode(logicCode).StorageOps {
		t.Fatal("test setup: both codes must touch storage")
	}
	install := func(n byte, code []byte) etypes.Address {
		a := structAddr(n)
		c.InstallContract(a, code)
		return a
	}
	logic1, logic2 := install(0x01, logicCode), install(0x02, logicCode)
	proxy1, proxy2 := install(0x11, proxyCode), install(0x12, proxyCode)
	c.SetStorageDirect(proxy1, slot, etypes.HashFromWord(logic1.Word()))
	c.SetStorageDirect(proxy2, slot, etypes.HashFromWord(logic2.Word()))
	stamp := install(0x21, disasm.MinimalProxyRuntime(structAddr(0xee))) // no code at 0xee

	d := NewDetector(c)
	scan := func(addr etypes.Address) Item {
		var items []Item
		d.AnalyzeStream(SliceSource([]etypes.Address{addr}), nil,
			SinkFunc(func(it Item) { items = append(items, it) }), AnalyzeOptions{Workers: 1})
		if len(items) != 1 || !items[0].Report.IsProxy || items[0].Pair == nil {
			t.Fatalf("%s: want one proxy item with its pair, got %+v", addr, items)
		}
		return items[0]
	}
	if n := walksOf(d, func() { scan(proxy1) }); n != 2 {
		t.Errorf("first-seen bytecode-only pair cost %d walks, want 2", n)
	}
	if n := walksOf(d, func() { scan(proxy2) }); n != 0 {
		t.Errorf("a second pair with the same two bytecodes cost %d walks, want 0", n)
	}
	if n := walksOf(d, func() { scan(stamp) }); n != 0 {
		t.Errorf("a stamp pointing at a code-less target cost %d walks, want 0", n)
	}
	// A slot twin of the proxy is the family's first follower: the
	// leader's deferred summary walks the proxy's code once more (its
	// accesses were already sliced), and the twin, promoted from the
	// family's template without a summary, is sliced by its pair stage.
	twinSlot := etypes.Keccak([]byte("walk.budget.twin"))
	twin := install(0x13, solc.MustCompile(&solc.Contract{
		Name: "P", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: twinSlot}}))
	c.SetStorageDirect(twin, twinSlot, etypes.HashFromWord(logic1.Word()))
	if n := walksOf(d, func() { scan(twin) }); n != 2 {
		t.Errorf("the first follower of a family cost %d walks, want 2 (the leader's summary, its own slice)", n)
	}
	// Without the summary to ride on, the pair stage walks each side once.
	fresh := NewDetector(c)
	if n := walksOf(fresh, func() { fresh.AnalyzePair(proxy1, logic1, nil) }); n != 2 {
		t.Errorf("AnalyzePair alone cost %d walks, want 2", n)
	}
	if n := walksOf(fresh, func() { fresh.AnalyzePair(proxy2, logic2, nil) }); n != 0 {
		t.Errorf("AnalyzePair over known bytecodes cost %d walks, want 0", n)
	}
}

// TestPairSkipsProxyWalkForStorageFreeLogic: a logic without storage
// accesses collides with no slot, so the pair stage does not slice the
// proxy — a storage proxy of a code-less or storage-free logic costs no
// walk — and the pair's storage collisions stay what slicing both sides
// gives (none). A logic with accesses still gets both sides sliced.
func TestPairSkipsProxyWalkForStorageFreeLogic(t *testing.T) {
	c := chain.New()
	slot := etypes.Keccak([]byte("walk.skip.slot"))
	proxyCode := solc.MustCompile(&solc.Contract{
		Name: "P", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot}})
	storageFree := solc.MustCompile(&solc.Contract{Name: "Pure", Fallback: solc.Fallback{Kind: solc.FallbackStop}})
	if scan := disasm.ScanCode(storageFree); scan.StorageOps {
		t.Fatal("test setup: the storage-free logic touches storage")
	}
	withStorage := solc.MustCompile(boundedTestLogic())
	for _, tc := range []struct {
		name  string
		logic []byte // nil: no code at the logic address
		walks int64
	}{
		{name: "code-less logic", walks: 0},
		{name: "storage-free logic", logic: storageFree, walks: 0},
		{name: "logic with storage", logic: withStorage, walks: 2},
	} {
		proxy, logic := structAddr(0x11), structAddr(0x01)
		c.InstallContract(proxy, proxyCode)
		c.InstallContract(logic, tc.logic)
		c.SetStorageDirect(proxy, slot, etypes.HashFromWord(logic.Word()))
		d := NewDetector(c)
		var pa PairAnalysis
		if n := walksOf(d, func() { pa = d.AnalyzePair(proxy, logic, nil) }); n != tc.walks {
			t.Errorf("%s: pair cost %d walks, want %d", tc.name, n, tc.walks)
		}
		want := StorageCollisions(ExtractStorageAccesses(proxyCode), ExtractStorageAccesses(tc.logic))
		if !reflect.DeepEqual(pa.Storage, want) {
			t.Errorf("%s: storage collisions %+v, want %+v", tc.name, pa.Storage, want)
		}
	}
}

// TestArtifactConcurrentFacets has eight goroutines ask one artifact for
// different facets at once (run under -race): each must see the values a
// single caller computes. Two of them race to the first slice, which runs
// outside the artifact's lock; both must get the one slice published.
func TestArtifactConcurrentFacets(t *testing.T) {
	code := solc.MustCompile(&solc.Contract{
		Name: "Busy",
		Vars: []solc.Var{{Name: "a", Type: solc.TypeUint128}, {Name: "b", Type: solc.TypeUint128}, {Name: "owner", Type: solc.TypeAddress}},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "a"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "a"}}},
			{ABI: abi.Function{Name: "b"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "b"}}},
			{ABI: abi.Function{Name: "owner"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}},
		},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: u256.FromUint64(9).Bytes32()},
	})
	wantSum := static.Analyze(code)
	wantAcc := ExtractStorageAccesses(code)
	wantTargets := disasm.DispatcherTargets(code)
	wantView := viewOf(code, nil)
	addr := structAddr(0x33)
	wantProbe := CraftCallData(addr, code)
	if len(wantAcc) == 0 || len(wantTargets) == 0 {
		t.Fatal("test setup: the code must have accesses and a dispatcher")
	}

	d := NewDetector(chain.New())
	for round := 0; round < 20; round++ {
		art := d.artifacts.of(etypes.Hash{31: byte(round)})
		start := make(chan struct{})
		var wg sync.WaitGroup
		var sliced [8][]StorageAccess
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				var got, want any
				switch g % 5 {
				case 0:
					sliced[g] = d.storageAccesses(art, code)
					got, want = sliced[g], wantAcc
				case 1:
					got, want = d.summarize(code, wantSum.CodeHash, wantSum.Fingerprint), wantSum
				case 2:
					got, want = art.view(code, nil), wantView
				case 3:
					got, want = art.dispatcherTargets(code), wantTargets
				case 4:
					got, want = art.probeCallData(addr, code), wantProbe
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: got %+v, want %+v", g, got, want)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if &sliced[0][0] != &sliced[5][0] {
			t.Errorf("round %d: two callers kept two slices, want the one published", round)
		}
	}
}

// TestArtifactSize pins the per-bytecode record's size on a 64-bit
// platform: one is kept per distinct bytecode, logic contracts included.
func TestArtifactSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(artifact{}); got != 112 {
		t.Errorf("artifact is %d bytes, want 112", got)
	}
}

// TestArtifactCacheObeysCapacity streams 64 distinct bytecodes through a
// detector bounded at 4: no more than 4 records (verdicts with their
// facets) and 4 families survive, evictions are counted, and a bytecode analyzed again
// after its artifact was evicted gets an equal one.
func TestArtifactCacheObeysCapacity(t *testing.T) {
	c := chain.New()
	var addrs []etypes.Address
	for i := 0; i < 64; i++ {
		a := etypes.BytesToAddress([]byte{0xca, byte(i)})
		c.InstallContract(a, solc.MustCompile(&solc.Contract{
			Name: fmt.Sprintf("Distinct%d", i),
			Vars: []solc.Var{{Name: "v", Type: solc.TypeUint256}},
			Funcs: []solc.Func{{
				ABI:  abi.Function{Name: fmt.Sprintf("get%d", i)},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "v"}},
			}},
			Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: etypes.Keccak([]byte{byte(i)})},
		}))
		c.SetStorageDirect(a, etypes.Keccak([]byte{byte(i)}), etypes.HashFromWord(structAddr(0x01).Word()))
		addrs = append(addrs, a)
	}
	d := NewDetector(c)
	run := func() []Item {
		var items []Item
		d.AnalyzeStream(SliceSource(addrs), nil, SinkFunc(func(it Item) { items = append(items, it) }),
			AnalyzeOptions{CacheCapacity: 4})
		return items
	}
	first := run()
	if n := d.artifacts.Len(); n > 4 {
		t.Fatalf("%d artifacts held under CacheCapacity 4", n)
	}
	if d.StructuralFamilies() > 4 {
		t.Fatalf("%d families under CacheCapacity 4", d.StructuralFamilies())
	}
	if d.artifacts.Evictions() < 60 {
		t.Fatalf("artifact evictions = %d, want at least 60", d.artifacts.Evictions())
	}
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("a second pass over evicted bytecodes produced different items")
	}
	for _, a := range addrs[:8] {
		code := c.Code(a)
		art := d.artifacts.of(c.CodeHash(a))
		if got, want := d.storageAccesses(art, code), ExtractStorageAccesses(code); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rebuilt artifact's accesses %+v, want %+v", a, got, want)
		}
	}

	// Capacity 0 lifts the bound again.
	d.AnalyzeStream(SliceSource(addrs), nil, SinkFunc(func(Item) {}), AnalyzeOptions{})
	if n := d.artifacts.Len(); n < 64 {
		t.Fatalf("unbounded run holds %d artifacts, want one per bytecode seen", n)
	}
}

// TestArtifactAllocationCeilings pins the allocation shape the end-to-end
// allocs_per_op claim rests on.
func TestArtifactAllocationCeilings(t *testing.T) {
	code := solc.MustCompile(&solc.Contract{
		Name: "Shape",
		Vars: []solc.Var{{Name: "owner", Type: solc.TypeAddress}},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "owner"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}},
			{ABI: abi.Function{Name: "ping"}, Body: []solc.Stmt{solc.ReturnConst{Value: u256.One()}}},
		},
	})
	// The scan: its two result lists and nothing else.
	if n := testing.AllocsPerRun(50, func() { disasm.ScanCode(code) }); n > 2 {
		t.Errorf("ScanCode: %v allocs/run, want at most 2", n)
	}

	// Slicing reads the bytes: code that never touches storage allocates
	// nothing, code with accesses the result alone.
	stamp := disasm.MinimalProxyRuntime(structAddr(0x44))
	if disasm.ScanCode(stamp).StorageOps {
		t.Fatal("test setup: a stamp has no storage instruction")
	}
	if n := testing.AllocsPerRun(50, func() { ExtractStorageAccesses(stamp) }); n != 0 {
		t.Errorf("slicing storage-free code: %v allocs/run, want 0", n)
	}
	if len(ExtractStorageAccesses(code)) == 0 {
		t.Fatal("test setup: the code must have accesses")
	}
	// (A -race build's sync.Pool drops a share of what is put back, so
	// there the pooled evaluator is rebuilt now and then.)
	if n := testing.AllocsPerRun(50, func() { ExtractStorageAccesses(code) }); n != 1 && !raceEnabled {
		t.Errorf("slicing code with accesses: %v allocs/run, want 1 (the result)", n)
	}

	// A source view with a warm selector memo: the selector list (and the
	// view, if it escapes), whatever the function count.
	for _, funcs := range []int{2, 40} {
		src := &solc.Contract{Name: "Many"}
		for i := 0; i < funcs; i++ {
			src.Funcs = append(src.Funcs, solc.Func{ABI: abi.Function{
				Name: fmt.Sprintf("f%d", i), Params: []string{"address", "uint256"}}})
		}
		sourceView(src)
		if n := testing.AllocsPerRun(50, func() { sourceView(src) }); n > 2 {
			t.Errorf("source view of %d functions: %v allocs/run, want at most 2", funcs, n)
		}
		// A collision names both prototypes from the memo: the result is
		// the one allocation.
		v, one := sourceView(src), sourceView(&solc.Contract{Funcs: src.Funcs[funcs-1:]})
		if n := testing.AllocsPerRun(50, func() { collideViews(v, one) }); n != 1 {
			t.Errorf("one collision against a view of %d functions: %v allocs/run, want 1", funcs, n)
		}
	}

	// A probe's overlay opens its maps on first write.
	base := chain.New()
	if n := testing.AllocsPerRun(50, func() { overlaySink = newOverlay(base) }); n != 1 {
		t.Errorf("newOverlay: %v allocs/run, want 1", n)
	}

	// Slot-sorted input, as the extractor returns it, is joined in place:
	// only the result is allocated.
	proxyAcc := ExtractStorageAccesses(mustCode(t, collidingProxy()))
	logicAcc := ExtractStorageAccesses(mustCode(t, collidingLogic()))
	if len(StorageCollisions(proxyAcc, logicAcc)) == 0 {
		t.Fatal("test setup: the pair must collide")
	}
	if n := testing.AllocsPerRun(50, func() { StorageCollisions(proxyAcc, logicAcc) }); n > 1 {
		t.Errorf("StorageCollisions on sorted input: %v allocs/run, want at most 1", n)
	}
	if n := testing.AllocsPerRun(50, func() { StorageCollisions(proxyAcc, proxyAcc) }); n != 0 {
		t.Errorf("StorageCollisions with nothing to report: %v allocs/run, want 0", n)
	}

	// Every exact hit rebuilds a forwarding verdict's Reason: one string.
	logic := etypes.Address{0x00, 0xab, 19: 0xff}
	if got, want := forwardedReason(logic), "fallback forwarded the probe call data via DELEGATECALL to "+logic.Hex(); got != want {
		t.Errorf("forwardedReason = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(50, func() { forwardedReason(logic) }); n != 1 {
		t.Errorf("forwardedReason: %v allocs/run, want 1", n)
	}
}

// overlaySink keeps the overlays an allocation test makes on the heap, as a
// probe's are.
var overlaySink *overlayState

// maxRetainedBytesPerCodeHash bounds what a detector keeps per distinct
// bytecode of the near-clone shape that dominates the landscape. The same
// test read 1,162 bytes when verdicts sat in an LRU of their own, each in a
// map of its own with a Reason string, and 503 with one record per
// bytecode; the ceiling is half the former.
const maxRetainedBytesPerCodeHash = 581

// TestRetainedBytesPerCodeHash analyzes thousands of distinct EIP-1167
// stamps and storage-slot twins on a fresh detector — one emulation per
// family, every other bytecode promoted — and bounds the live heap the
// detector holds afterwards per distinct code hash, so that a field added to
// the per-bytecode record fails here before it shows in the benchmark's
// retained heap.
func TestRetainedBytesPerCodeHash(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles thousands of contracts")
	}
	const perShape = 2000
	c := chain.New()
	logic := structAddr(0x01)
	c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
	addrs := make([]etypes.Address, 0, 2*perShape)
	for i := 0; i < perShape; i++ {
		stamp := etypes.BytesToAddress([]byte{0x5a, byte(i >> 8), byte(i)})
		c.InstallContract(stamp, disasm.MinimalProxyRuntime(etypes.BytesToAddress([]byte{0x7e, byte(i >> 8), byte(i)})))
		twin := etypes.BytesToAddress([]byte{0x7b, byte(i >> 8), byte(i)})
		slot := etypes.Keccak([]byte{0x51, byte(i >> 8), byte(i)})
		c.InstallContract(twin, solc.MustCompile(&solc.Contract{
			Name: "Twin", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot}}))
		c.SetStorageDirect(twin, slot, etypes.HashFromWord(logic.Word()))
		addrs = append(addrs, stamp, twin)
	}

	d := NewDetector(c)
	var stats pipeline.Stats
	opts := AnalyzeOptions{Stats: &stats}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	evm.ResetDecodeCache()
	before := liveHeap()
	for _, a := range addrs {
		if it := d.AnalyzeAddress(a, nil, opts); !it.Report.IsProxy {
			t.Fatalf("%s: not detected: %+v", a, it.Report)
		}
	}
	perCodeHash := float64(liveHeap()-before) / float64(len(addrs))
	runtime.KeepAlive(d)
	if got, families := stats.Emulations.Load(), d.StructuralFamilies(); got != int64(families) || families > 8 {
		t.Fatalf("test setup: %d emulations for %d families, want one per family and a handful of families", got, families)
	}
	t.Logf("%.0f bytes retained per distinct code hash", perCodeHash)
	if perCodeHash > maxRetainedBytesPerCodeHash {
		t.Errorf("%.0f bytes retained per distinct code hash, want at most %d", perCodeHash, maxRetainedBytesPerCodeHash)
	}
}

// collidingProxy and collidingLogic disagree on slot 0: the proxy packs an
// address and a bool where the logic keeps one address-wide owner at a
// different boundary (the Audius shape).
func collidingProxy() *solc.Contract {
	return &solc.Contract{
		Name: "P",
		Vars: []solc.Var{{Name: "initialized", Type: solc.TypeBool}, {Name: "initializing", Type: solc.TypeBool}},
		Funcs: []solc.Func{{
			ABI:  abi.Function{Name: "initialized"},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: "initialized"}},
		}},
	}
}

func collidingLogic() *solc.Contract {
	return &solc.Contract{
		Name: "L",
		Vars: []solc.Var{{Name: "owner", Type: solc.TypeAddress}},
		Funcs: []solc.Func{{
			ABI:  abi.Function{Name: "owner"},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}},
		}},
	}
}

func mustCode(t testing.TB, c *solc.Contract) []byte {
	t.Helper()
	code, err := solc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return code
}
