package proxion_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/proxion"
	"repro/internal/solc"
	"repro/internal/u256"
)

var (
	logicAt = etypes.MustAddress("0x0000000000000000000000000000000000009001")
	proxyAt = etypes.MustAddress("0x0000000000000000000000000000000000009002")
	userA   = etypes.MustAddress("0x000000000000000000000000000000000000a001")
)

// simpleLogic returns a logic contract with a value getter/setter at slot 1.
func simpleLogic() *solc.Contract {
	return &solc.Contract{
		Name: "Logic",
		Vars: []solc.Var{
			{Name: "reserved", Type: solc.TypeAddress},
			{Name: "value", Type: solc.TypeUint256},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "value"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "value"}}},
			{ABI: abi.Function{Name: "setValue", Params: []string{"uint256"}},
				Body: []solc.Stmt{solc.AssignArg{Var: "value", Arg: 0}}},
		},
	}
}

// newChainWithPair deploys a storage-slot proxy (impl at implSlot) plus a
// logic contract and wires them up.
func newChainWithPair(t *testing.T, implSlot etypes.Hash) *chain.Chain {
	t.Helper()
	c := chain.New()
	c.InstallContract(logicAt, solc.MustCompile(simpleLogic()))
	proxy := &solc.Contract{
		Name:     "Proxy",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: implSlot},
	}
	c.InstallContract(proxyAt, solc.MustCompile(proxy))
	c.SetStorageDirect(proxyAt, implSlot, etypes.HashFromWord(logicAt.Word()))
	return c
}

func TestDetectStorageProxy(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(7))
	c := newChainWithPair(t, implSlot)
	d := proxion.NewDetector(c)

	rep := d.Check(proxyAt)
	if !rep.IsProxy {
		t.Fatalf("storage proxy not detected: %+v", rep)
	}
	if rep.Logic != logicAt {
		t.Errorf("logic = %s, want %s", rep.Logic, logicAt)
	}
	if rep.Target != proxion.TargetStorage {
		t.Errorf("target = %s, want storage", rep.Target)
	}
	if rep.ImplSlot != implSlot {
		t.Errorf("impl slot = %s, want %s", rep.ImplSlot, implSlot)
	}
	if rep.Standard != proxion.StandardOther {
		t.Errorf("standard = %s, want Others", rep.Standard)
	}
	// The logic contract itself is not a proxy.
	if lr := d.Check(logicAt); lr.IsProxy {
		t.Error("logic contract misdetected as proxy")
	}
}

func TestDetectEIP1967AndEIP1822(t *testing.T) {
	cases := []struct {
		name string
		slot etypes.Hash
		want proxion.Standard
	}{
		{"eip1967", proxion.SlotEIP1967, proxion.StandardEIP1967},
		{"eip1822", proxion.SlotEIP1822, proxion.StandardEIP1822},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newChainWithPair(t, tc.slot)
			rep := proxion.NewDetector(c).Check(proxyAt)
			if !rep.IsProxy || rep.Standard != tc.want {
				t.Errorf("report = %+v, want standard %s", rep, tc.want)
			}
		})
	}
}

func TestDetectMinimalProxy(t *testing.T) {
	c := chain.New()
	c.InstallContract(logicAt, solc.MustCompile(simpleLogic()))
	c.InstallContract(proxyAt, disasm.MinimalProxyRuntime(logicAt))

	rep := proxion.NewDetector(c).Check(proxyAt)
	if !rep.IsProxy {
		t.Fatalf("minimal proxy not detected: %+v", rep)
	}
	if rep.Standard != proxion.StandardEIP1167 {
		t.Errorf("standard = %s, want EIP-1167", rep.Standard)
	}
	if rep.Target != proxion.TargetHardcoded {
		t.Errorf("target = %s, want hardcoded", rep.Target)
	}
	if rep.Logic != logicAt {
		t.Errorf("logic = %s", rep.Logic)
	}
}

func TestNonDelegatingContractRejectedByDisasm(t *testing.T) {
	c := chain.New()
	plain := &solc.Contract{
		Name: "Plain",
		Funcs: []solc.Func{{
			ABI:  abi.Function{Name: "ping"},
			Body: []solc.Stmt{solc.ReturnConst{Value: u256.One()}},
		}},
	}
	c.InstallContract(proxyAt, solc.MustCompile(plain))
	rep := proxion.NewDetector(c).Check(proxyAt)
	if rep.IsProxy {
		t.Error("plain contract detected as proxy")
	}
	if rep.HasDelegateCall {
		t.Error("step-1 filter should reject before emulation")
	}
}

func TestLibraryCallExcluded(t *testing.T) {
	// Contains DELEGATECALL but constructs its own call data: the library
	// idiom the paper explicitly excludes (Section 2.2).
	lib := etypes.MustAddress("0x0000000000000000000000000000000000009100")
	c := chain.New()
	c.InstallContract(lib, []byte{0x00})
	contract := &solc.Contract{
		Name:     "UsesLib",
		Fallback: solc.Fallback{Kind: solc.FallbackLibraryCall, Target: lib, Proto: "sqrt(uint256)"},
	}
	c.InstallContract(proxyAt, solc.MustCompile(contract))

	rep := proxion.NewDetector(c).Check(proxyAt)
	if !rep.HasDelegateCall {
		t.Fatal("library contract should pass the opcode filter")
	}
	if rep.IsProxy {
		t.Error("library-call contract misclassified as proxy (call data was not forwarded)")
	}
}

func TestDiamondMissedAsDocumented(t *testing.T) {
	// EIP-2535 diamonds revert for unregistered selectors before any
	// delegatecall; random probe data cannot reach a facet (Section 8.1).
	c := chain.New()
	diamond := &solc.Contract{
		Name:     "Diamond",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateDiamond, Slot: etypes.HashFromWord(u256.FromUint64(0x2535))},
	}
	c.InstallContract(proxyAt, solc.MustCompile(diamond))
	rep := proxion.NewDetector(c).Check(proxyAt)
	if rep.IsProxy {
		t.Error("diamond detected — the paper documents this as a known miss; dataset labels depend on it")
	}
	if !rep.HasDelegateCall {
		t.Error("diamond should pass the opcode filter")
	}
}

func TestEmulationErrorReported(t *testing.T) {
	// Bytecode with a DELEGATECALL but an immediate stack underflow.
	c := chain.New()
	c.InstallContract(proxyAt, []byte{byte(evm.ADD), byte(evm.DELEGATECALL)})
	rep := proxion.NewDetector(c).Check(proxyAt)
	if rep.IsProxy {
		t.Error("broken bytecode detected as proxy")
	}
	if !errors.Is(rep.EmulationErr, evm.ErrStackUnderflow) {
		t.Errorf("emulation err = %v, want stack underflow", rep.EmulationErr)
	}
}

func TestCraftCallDataAvoidsAllPush4(t *testing.T) {
	contract := &solc.Contract{
		Name: "Many",
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "a"}, Body: []solc.Stmt{solc.Stop{}}},
			{ABI: abi.Function{Name: "b"}, Body: []solc.Stmt{solc.Stop{}}},
		},
		DecoyPush4: [][4]byte{{1, 2, 3, 4}},
	}
	code := solc.MustCompile(contract)
	data := proxion.CraftCallData(proxyAt, code)
	if len(data) < 4 {
		t.Fatal("call data too short")
	}
	var sel [4]byte
	copy(sel[:], data)
	for _, avoid := range disasm.Push4Candidates(code) {
		if sel == avoid {
			t.Fatalf("crafted selector %x collides with PUSH4 candidate", sel)
		}
	}
	// Deterministic for the same inputs.
	if string(data) != string(proxion.CraftCallData(proxyAt, code)) {
		t.Error("crafted call data not deterministic")
	}
}

func TestCheckDoesNotMutateChain(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(7))
	c := newChainWithPair(t, implSlot)
	before := c.CurrentBlock()
	d := proxion.NewDetector(c)
	d.Check(proxyAt)
	if c.CurrentBlock() != before {
		t.Error("detection advanced the chain")
	}
	if got := c.TxCount(proxyAt); got != 0 {
		t.Errorf("detection recorded %d transactions", got)
	}
}

func TestLogicHistoryBinarySearch(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(1))
	c := chain.New()
	proxy := &solc.Contract{
		Name:     "Upgradeable",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: implSlot},
	}
	c.InstallContract(proxyAt, solc.MustCompile(proxy))

	// Three logic versions installed at spread-out heights.
	logics := []etypes.Address{
		etypes.MustAddress("0x0000000000000000000000000000000000009201"),
		etypes.MustAddress("0x0000000000000000000000000000000000009202"),
		etypes.MustAddress("0x0000000000000000000000000000000000009203"),
	}
	heights := []uint64{100, 5_000, 90_000}
	for i, l := range logics {
		c.AdvanceTo(heights[i])
		c.SetStorageDirect(proxyAt, implSlot, etypes.HashFromWord(l.Word()))
	}
	c.AdvanceTo(150_000)

	d := proxion.NewDetector(c)
	c.ResetAPICalls()
	got := d.LogicHistory(proxyAt, implSlot)
	calls := c.APICalls()

	if len(got) != 3 {
		t.Fatalf("history = %d logics, want 3: %v", len(got), got)
	}
	want := map[etypes.Address]bool{logics[0]: true, logics[1]: true, logics[2]: true}
	for _, a := range got {
		if !want[a] {
			t.Errorf("unexpected logic %s", a)
		}
	}
	// The whole point of Algorithm 1: API calls must be logarithmic-ish,
	// orders of magnitude below the 150k-block naive scan (the paper
	// reports ~26 calls per proxy on 15M blocks).
	if calls > 300 {
		t.Errorf("binary search used %d getStorageAt calls; too many", calls)
	}
	if calls == 0 {
		t.Error("no API calls counted")
	}

	// Naive scan agrees on the result set.
	c.ResetAPICalls()
	naive := d.NaiveLogicHistory(proxyAt, implSlot)
	naiveCalls := c.APICalls()
	if len(naive) != 3 {
		t.Fatalf("naive history = %v", naive)
	}
	if naiveCalls <= calls*10 {
		t.Errorf("naive (%d calls) should dwarf binary search (%d)", naiveCalls, calls)
	}

	if got := d.UpgradeCount(proxyAt, implSlot); got != 2 {
		t.Errorf("upgrade count = %d, want 2", got)
	}
}

// TestLogicHistoryOldestFirst: the history comes back in the order the
// proxy delegated to its logics, not in address order — here each upgrade
// installs a lower address than the last — from Algorithm 1 and the naive
// scan alike.
func TestLogicHistoryOldestFirst(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(1))
	c := chain.New()
	c.InstallContract(proxyAt, solc.MustCompile(&solc.Contract{
		Name:     "Upgradeable",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: implSlot},
	}))
	logics := []etypes.Address{
		etypes.MustAddress("0x0000000000000000000000000000000000009303"),
		etypes.MustAddress("0x0000000000000000000000000000000000009302"),
		etypes.MustAddress("0x0000000000000000000000000000000000009301"),
	}
	for i, l := range logics {
		c.AdvanceTo(uint64(1_000 + 7_000*i))
		c.SetStorageDirect(proxyAt, implSlot, etypes.HashFromWord(l.Word()))
	}
	c.AdvanceTo(30_000)

	d := proxion.NewDetector(c)
	if got := d.LogicHistory(proxyAt, implSlot); !slices.Equal(got, logics) {
		t.Errorf("history = %v, want %v", got, logics)
	}
	if got := d.NaiveLogicHistory(proxyAt, implSlot); !slices.Equal(got, logics) {
		t.Errorf("naive history = %v, want %v", got, logics)
	}
	if got := d.UpgradeCount(proxyAt, implSlot); got != 2 {
		t.Errorf("upgrade count = %d, want 2", got)
	}
}

func TestLogicHistorySingleVersion(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(1))
	c := newChainWithPair(t, implSlot)
	c.AdvanceTo(10_000)
	d := proxion.NewDetector(c)
	got := d.LogicHistory(proxyAt, implSlot)
	if len(got) != 1 || got[0] != logicAt {
		t.Errorf("history = %v, want [%s]", got, logicAt)
	}
	if d.UpgradeCount(proxyAt, implSlot) != 0 {
		t.Error("single logic means zero upgrades")
	}
}

func TestReportReasons(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(7))
	c := newChainWithPair(t, implSlot)
	d := proxion.NewDetector(c)

	if rep := d.Check(proxyAt); rep.Reason == "" || rep.Reason[:8] != "fallback" {
		t.Errorf("proxy reason = %q", rep.Reason)
	}
	if rep := d.Check(logicAt); rep.Reason == "" {
		t.Errorf("non-proxy reason empty")
	}
	nobody := etypes.MustAddress("0x00000000000000000000000000000000000ddddd")
	if rep := d.Check(nobody); rep.Reason != "no code at address" {
		t.Errorf("empty account reason = %q", rep.Reason)
	}
	// Broken bytecode carries the emulation error in its reason.
	broken := etypes.MustAddress("0x00000000000000000000000000000000000ddd01")
	c.InstallContract(broken, []byte{byte(evm.ADD), byte(evm.DELEGATECALL)})
	rep := d.Check(broken)
	if rep.EmulationErr == nil || rep.Reason == "" {
		t.Errorf("broken reason = %q err = %v", rep.Reason, rep.EmulationErr)
	}
}
