package proxion

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/u256"
)

// replayAllocCeiling is what one replay of the Audius pair allocates
// (replayGuarded, TestReplayAllocationCeiling): the function table and the
// selector list, the call data, the overlay and its maps, the tracer, the
// two EVMs and what the runs write. No map of collided or written slots,
// no sort swapper, no per-opcode copy, no closure per journaled write.
const replayAllocCeiling = 17

// TestReplayAllocationCeiling holds the exploit replay of a collided pair
// to replayAllocCeiling allocations: it keeps no maps, and the collided
// slots are a slice. (A -race build's sync.Pool drops a share of the
// interpreter's pooled frames, so there the count is not checked.)
func TestReplayAllocationCeiling(t *testing.T) {
	// The gen catalogue's Audius pair: the proxy's owner address at slot 0
	// collides with the logic's packed initializer guard.
	proxyT, logicT := gen.AudiusPair()
	proxy := etypes.MustAddress("0x00000000000000000000000000000000000a0d10")
	logic := etypes.MustAddress("0x00000000000000000000000000000000000a0d11")
	c := chain.New()
	c.InstallContract(proxy, proxyT.Code)
	c.InstallContract(logic, logicT.Code)
	c.SetStorageDirect(proxy, etypes.HashFromWord(u256.One()), etypes.HashFromWord(logic.Word()))
	d := NewDetector(c)
	pa := d.AnalyzePair(proxy, logic, nil)
	collided := exploitableSlots(pa.Storage)
	if !pa.ExploitVerified || len(collided) == 0 {
		t.Fatalf("test setup: the Audius pair must verify: %+v", pa)
	}
	logicCode := c.Code(logic)
	art := d.artifacts.of(c.CodeHash(logic))
	n := testing.AllocsPerRun(20, func() {
		if !d.replayGuarded(proxy, art, logicCode, collided) {
			t.Fatal("replay stopped verifying the Audius pair")
		}
	})
	if n > replayAllocCeiling && !raceEnabled {
		t.Errorf("replayGuarded on the Audius pair: %v allocs/run, want at most %d", n, replayAllocCeiling)
	}
}

// TestExploitableSlotsInSlotOrder: the exploitable slots of collisions
// given in any order come back sorted, and non-exploitable ones are left
// out.
func TestExploitableSlotsInSlotOrder(t *testing.T) {
	s := func(v uint64) etypes.Hash { return etypes.HashFromWord(u256.FromUint64(v)) }
	got := exploitableSlots([]StorageCollision{
		{Slot: s(9), Exploitable: true},
		{Slot: s(2)},
		{Slot: s(4), Exploitable: true},
		{Slot: s(1), Exploitable: true},
	})
	if want := []etypes.Hash{s(1), s(4), s(9)}; !slices.Equal(got, want) {
		t.Errorf("exploitableSlots = %x, want %x", got, want)
	}
	if got := exploitableSlots([]StorageCollision{{Slot: s(3)}}); got != nil {
		t.Errorf("no exploitable collision: got %x, want nil", got)
	}
}

// TestConfigureUnchangedAllocatesNothing: a call whose cache settings are
// the ones in force — every call of a service after its first — allocates
// nothing; a change of settings still applies.
func TestConfigureUnchangedAllocatesNothing(t *testing.T) {
	d := NewDetector(chain.New())
	opts := AnalyzeOptions{CacheCapacity: 8}
	d.configure(opts)
	if n := testing.AllocsPerRun(100, func() { d.configure(opts) }); n != 0 {
		t.Errorf("configure with unchanged settings: %v allocs/run, want 0", n)
	}
	d.configure(AnalyzeOptions{CacheCapacity: 16, DisableStructural: true})
	if got := *d.applied.Load(); got != (cacheSettings{16, true}) {
		t.Errorf("applied = %+v after a change, want {16 true}", got)
	}
}

// TestFunctionMemoBounded inserts one prototype more than the memo holds:
// it never passes functionMemoCap, and lookups after it emptied itself
// return the right selector and prototype.
func TestFunctionMemoBounded(t *testing.T) {
	memoLen := func() int {
		functionMu.RLock()
		defer functionMu.RUnlock()
		return len(functionMemo)
	}
	fn := func(i int) abi.Function {
		return abi.Function{Name: fmt.Sprintf("memoBound%d", i), Params: []string{"uint256"}}
	}
	t.Cleanup(func() {
		functionMu.Lock()
		clear(functionMemo)
		functionMu.Unlock()
	})
	for i := 0; i <= functionMemoCap; i++ {
		lookupFunction(fn(i))
		if n := memoLen(); n > functionMemoCap {
			t.Fatalf("memo holds %d entries after %d inserts, bound %d", n, i+1, functionMemoCap)
		}
	}
	functionMu.RLock()
	_, kept := functionMemo[fn(0).Prototype()]
	functionMu.RUnlock()
	if kept {
		t.Errorf("the first prototype survived %d later inserts: the memo never emptied", functionMemoCap)
	}
	for _, i := range []int{0, functionMemoCap / 2, functionMemoCap} {
		f := fn(i)
		got := lookupFunction(f)
		if got.sel != f.Selector() || got.proto != f.Prototype() {
			t.Errorf("lookup %d after the bound: %x %q, want %x %q", i, got.sel, got.proto, f.Selector(), f.Prototype())
		}
	}
}
