package watch

import (
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/proxion"
	"repro/internal/solc"
	"repro/internal/u256"
)

// The follower's Invalidate keeps a storage proxy's verdict when every hit
// re-reads what it depends on, so an upgrade is served by an exact hit.
// These tests follow hand-built proxies whose fallbacks read more than the
// implementation slot, and hold every delivered item to a cold detector's
// analysis of the state the upgrade left.

var (
	reanchorImplSlot  = etypes.HashFromWord(u256.FromUint64(1))
	reanchorPauseSlot = etypes.HashFromWord(u256.FromUint64(2))
)

// forwardFrom appends the forwarding tail: copy the call data and
// delegatecall the address held in slot with it.
func forwardFrom(p *asm.Program, slot etypes.Hash) []byte {
	p.Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).
		Push(slot.Word()).Op(evm.SLOAD).
		Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP)
	return p.MustAssemble()
}

// pausableProxy reverts while its pause slot holds a nonzero value and
// otherwise forwards to its implementation slot's address.
func pausableProxy() []byte {
	var p asm.Program
	p.Push(reanchorPauseSlot.Word()).Op(evm.SLOAD).Op(evm.ISZERO).JumpI("fwd").
		PushUint(0).PushUint(0).Op(evm.REVERT).
		Label("fwd")
	return forwardFrom(&p, reanchorImplSlot)
}

// zeroCheckedProxy forwards to its implementation slot's address only if
// the slot is nonzero: require(impl != 0), as legacy upgradeability
// proxies do.
func zeroCheckedProxy() []byte {
	var p asm.Program
	p.Push(reanchorImplSlot.Word()).Op(evm.SLOAD).JumpI("fwd").
		PushUint(0).PushUint(0).Op(evm.REVERT).
		Label("fwd")
	return forwardFrom(&p, reanchorImplSlot)
}

// codeSizeGatedProxy forwards to its implementation slot's address only if
// that address has code: EXTCODESIZE(sload(implSlot)) > 0.
func codeSizeGatedProxy() []byte {
	var p asm.Program
	p.Push(reanchorImplSlot.Word()).Op(evm.SLOAD).Op(evm.EXTCODESIZE).JumpI("fwd").
		PushUint(0).PushUint(0).Op(evm.REVERT).
		Label("fwd")
	return forwardFrom(&p, reanchorImplSlot)
}

// reanchorHarness follows a hand-built chain holding one proxy and two
// logic contracts, a and b.
type reanchorHarness struct {
	t      *testing.T
	c      *chain.Chain
	f      *Follower
	proxy  etypes.Address
	a, b   etypes.Address
	events []UpgradeEvent
}

// newReanchorHarness deploys the logics and code at a proxy address whose
// implementation slot holds a, all in block 1, and follows the chain up to
// it.
func newReanchorHarness(t *testing.T, code []byte) *reanchorHarness {
	t.Helper()
	h := &reanchorHarness{t: t, c: chain.New(), proxy: etypes.Address{0x9a, 0x01},
		a: etypes.Address{0x9b, 0x01}, b: etypes.Address{0x9b, 0x02}}
	h.c.AdvanceBlocks(1)
	for _, l := range []etypes.Address{h.a, h.b} {
		h.c.InstallContract(l, solc.MustCompile(&solc.Contract{
			Name:  "Logic",
			Vars:  []solc.Var{{Name: "reserved", Type: solc.TypeAddress}, {Name: "value", Type: solc.TypeUint256}},
			Funcs: []solc.Func{{ABI: abi.Function{Name: "value"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "value"}}}},
		}))
	}
	h.c.InstallContract(h.proxy, code)
	h.c.SetStorageDirect(h.proxy, reanchorImplSlot, addrWord(h.a))
	f, err := New(Config{
		Reader:    h.c,
		Analyzer:  NewDetectorAnalyzer(proxion.NewDetector(h.c), nil, nil),
		OnUpgrade: func(ev UpgradeEvent) { h.events = append(h.events, ev) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.f = f
	if err := f.Poll(); err != nil {
		t.Fatalf("deploy poll: %v", err)
	}
	return h
}

// block writes the proxy's storage in one fresh block and follows it. It
// returns the one upgrade delivered and how many cache tiers the upgrade
// invalidated, after holding the delivered item to a cold detector's
// analysis of the state the block left.
func (h *reanchorHarness) block(writes map[etypes.Hash]etypes.Hash) (UpgradeEvent, uint64) {
	h.t.Helper()
	h.c.AdvanceBlocks(1)
	for k, v := range writes {
		h.c.SetStorageDirect(h.proxy, k, v)
	}
	before, seen := h.f.Stats().Invalidations, len(h.events)
	if err := h.f.Poll(); err != nil {
		h.t.Fatalf("poll: %v", err)
	}
	if len(h.events) != seen+1 {
		h.t.Fatalf("block delivered %d upgrades, want 1", len(h.events)-seen)
	}
	ev := h.events[seen]
	cold := proxion.NewDetector(h.c).AnalyzeAddress(h.proxy, nil, proxion.AnalyzeOptions{})
	if ev.Item == nil || !reflect.DeepEqual(*ev.Item, cold) {
		h.t.Fatalf("delivered item %+v, cold analysis %+v", ev.Item, cold)
	}
	return ev, h.f.Stats().Invalidations - before
}

func addrWord(a etypes.Address) etypes.Hash { return etypes.HashFromWord(a.Word()) }

// TestReanchorGuardSlotUpgrade: one block rewrites both the implementation
// slot and the pause slot of a proxy whose fallback checks the pause slot.
// The kept verdict was recorded under the old pause value, so the lookup
// under the new one misses and re-emulates: the pausing upgrade delivers a
// non-proxy. The record now holds a negative verdict too, so the next
// upgrade, which unpauses, drops it.
func TestReanchorGuardSlotUpgrade(t *testing.T) {
	h := newReanchorHarness(t, pausableProxy())
	ev, n := h.block(map[etypes.Hash]etypes.Hash{reanchorImplSlot: addrWord(h.b), reanchorPauseSlot: {31: 1}})
	if ev.Item.Report.IsProxy || n != 0 {
		t.Fatalf("pausing upgrade: proxy %v, %d tiers invalidated; want a non-proxy and the record kept", ev.Item.Report.IsProxy, n)
	}
	ev, n = h.block(map[etypes.Hash]etypes.Hash{reanchorImplSlot: addrWord(h.a), reanchorPauseSlot: {}})
	if !ev.Item.Report.IsProxy || ev.Item.Report.Logic != h.a || n == 0 {
		t.Fatalf("unpausing upgrade: %+v, %d tiers invalidated; want a proxy of %s and the record dropped", ev.Item.Report, n, h.a)
	}
	ev, n = h.block(map[etypes.Hash]etypes.Hash{reanchorImplSlot: addrWord(h.b)})
	if !ev.Item.Report.IsProxy || ev.Item.Report.Logic != h.b || n != 0 {
		t.Fatalf("plain upgrade: %+v, %d tiers invalidated; want a proxy of %s and the record kept", ev.Item.Report, n, h.b)
	}
}

// TestReanchorCodeSizeGateUpgrade: a proxy that checks its logic's code
// size before forwarding is upgraded to an address without code. Its
// verdict read state outside its own storage, so Invalidate must drop it:
// a kept verdict would re-anchor to the code-less address and call it a
// proxy, where emulation reverts.
func TestReanchorCodeSizeGateUpgrade(t *testing.T) {
	h := newReanchorHarness(t, codeSizeGatedProxy())
	ev, n := h.block(map[etypes.Hash]etypes.Hash{reanchorImplSlot: addrWord(h.b)})
	if !ev.Item.Report.IsProxy || ev.Item.Report.Logic != h.b || n == 0 {
		t.Fatalf("upgrade to b: %+v, %d tiers invalidated; want a proxy of %s and the record dropped", ev.Item.Report, n, h.b)
	}
	ev, n = h.block(map[etypes.Hash]etypes.Hash{reanchorImplSlot: addrWord(etypes.Address{0xde, 0xad})})
	if ev.Item.Report.IsProxy || n == 0 {
		t.Fatalf("upgrade to a code-less address: proxy %v, %d tiers invalidated; want a non-proxy and the record dropped", ev.Item.Report.IsProxy, n)
	}
}

// TestReanchorZeroSlotUpgrade: a proxy that requires a nonzero
// implementation is upgraded to 0x0. Its verdict read only its own storage,
// so Invalidate keeps it, but the implementation slot is not a guard slot:
// the hit must refuse the zero slot and re-emulate, which reverts. The next
// upgrade, back to a logic, is served by the kept verdict.
func TestReanchorZeroSlotUpgrade(t *testing.T) {
	h := newReanchorHarness(t, zeroCheckedProxy())
	ev, n := h.block(map[etypes.Hash]etypes.Hash{reanchorImplSlot: {}})
	if ev.Item.Report.IsProxy || n != 0 {
		t.Fatalf("upgrade to 0x0: proxy %v, %d tiers invalidated; want a non-proxy and the record kept", ev.Item.Report.IsProxy, n)
	}
	ev, n = h.block(map[etypes.Hash]etypes.Hash{reanchorImplSlot: addrWord(h.b)})
	if !ev.Item.Report.IsProxy || ev.Item.Report.Logic != h.b || n != 0 {
		t.Fatalf("upgrade to b: %+v, %d tiers invalidated; want a proxy of %s and the record kept", ev.Item.Report, n, h.b)
	}
}
