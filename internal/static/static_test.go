package static

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/abi"
	"repro/internal/asm"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/solc"
	"repro/internal/u256"
)

var (
	addrA = etypes.MustAddress("0x00000000000000000000000000000000000000aa")
	addrB = etypes.MustAddress("0x00000000000000000000000000000000000000bb")

	slot1967 = etypes.Keccak([]byte("eip1967.proxy.implementation"))
)

func fn(proto string) abi.Function {
	f, err := abi.ParsePrototype(proto)
	if err != nil {
		panic(err)
	}
	return f
}

// storageProxy builds a solc-compiled upgradeable proxy forwarding to the
// address stored at slot.
func storageProxy(t *testing.T, slot etypes.Hash, funcs ...solc.Func) []byte {
	t.Helper()
	code, err := solc.Compile(&solc.Contract{
		Name:     "Proxy",
		Funcs:    funcs,
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
	})
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestAnalyzeMinimalProxy(t *testing.T) {
	code := disasm.MinimalProxyRuntime(addrA)
	sum := Analyze(code)

	if !sum.HasDelegateCall {
		t.Fatal("HasDelegateCall = false")
	}
	if sum.Truncated || sum.MaskedImmFlow {
		t.Fatalf("Truncated=%v MaskedImmFlow=%v, want false/false", sum.Truncated, sum.MaskedImmFlow)
	}
	if len(sum.Delegates) != 1 {
		t.Fatalf("Delegates = %+v, want exactly one", sum.Delegates)
	}
	dc := sum.Delegates[0]
	if dc.Provenance != ProvHardcoded || dc.Target != addrA {
		t.Fatalf("delegate = %+v, want hardcoded %s", dc, addrA)
	}
	if !dc.ForwardsCalldata || dc.TargetTainted {
		t.Fatalf("delegate = %+v, want forwarding and untainted", dc)
	}
	if len(sum.Selectors) != 0 || len(sum.SlotReads) != 0 {
		t.Fatalf("unexpected selectors %v / slot reads %v", sum.Selectors, sum.SlotReads)
	}
}

func TestFingerprintMasksEmbeddedAddresses(t *testing.T) {
	a := disasm.MinimalProxyRuntime(addrA)
	b := disasm.MinimalProxyRuntime(addrB)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("EIP-1167 stamps with different targets should share a fingerprint")
	}
	if etypes.Keccak(a) == etypes.Keccak(b) {
		t.Fatal("test is vacuous: code hashes collide")
	}
	// Small immediates (jump offsets, selectors) must stay distinguishing.
	c := append([]byte(nil), a...)
	for i, op := range c {
		if evm.Op(op) == evm.PUSH1 {
			c[i+1] ^= 0x01
			break
		}
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("changing a PUSH1 immediate should change the fingerprint")
	}
}

func TestAnalyzeStorageProxy(t *testing.T) {
	f1 := solc.Func{ABI: fn("owner()"), Body: []solc.Stmt{solc.ReturnCaller{}}}
	f2 := solc.Func{ABI: fn("upgradeTo(address)"), Body: []solc.Stmt{solc.Stop{}}}
	code := storageProxy(t, slot1967, f1, f2)
	sum := Analyze(code)

	if sum.Truncated || sum.MaskedImmFlow {
		t.Fatalf("Truncated=%v MaskedImmFlow=%v, want false/false", sum.Truncated, sum.MaskedImmFlow)
	}
	want := map[[4]byte]bool{f1.ABI.Selector(): true, f2.ABI.Selector(): true}
	if len(sum.Selectors) != len(want) {
		t.Fatalf("Selectors = %x, want %d entries", sum.Selectors, len(want))
	}
	for _, sel := range sum.Selectors {
		if !want[sel] {
			t.Fatalf("unexpected selector %x", sel)
		}
	}
	if !sum.ReadsSlot(slot1967) {
		t.Fatalf("SlotReads = %v, missing impl slot %s", sum.SlotReads, slot1967)
	}
	if len(sum.Delegates) != 1 {
		t.Fatalf("Delegates = %+v, want exactly one", sum.Delegates)
	}
	dc := sum.Delegates[0]
	if dc.Provenance != ProvSlotConst || dc.Slot != slot1967 {
		t.Fatalf("delegate = %+v, want slot-const %s", dc, slot1967)
	}
	if !dc.ForwardsCalldata || dc.TargetTainted {
		t.Fatalf("delegate = %+v, want forwarding and untainted", dc)
	}
}

func TestStorageProxyTwinsShareFingerprint(t *testing.T) {
	// Two 32-byte implementation slots: the wide PUSH32 immediates are
	// masked, so the twins normalize identically; the promotion protocol
	// must re-anchor the slot per contract.
	slotA := etypes.Keccak([]byte("slot.a"))
	slotB := etypes.Keccak([]byte("slot.b"))
	a := storageProxy(t, slotA)
	b := storageProxy(t, slotB)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("storage twins with different 32-byte slots should share a fingerprint")
	}
	if Analyze(a).Delegates[0].Slot != slotA || Analyze(b).Delegates[0].Slot != slotB {
		t.Fatal("each twin must report its own slot")
	}
	// Ad-hoc one-byte slots are emitted as PUSH1: structurally distinguishing.
	var s0, s1 etypes.Hash
	s1[31] = 1
	if Fingerprint(storageProxy(t, s0)) == Fingerprint(storageProxy(t, s1)) {
		t.Fatal("small-immediate slots must stay distinguishing")
	}
}

func TestAnalyzeHardcodedForwarder(t *testing.T) {
	code, err := solc.Compile(&solc.Contract{
		Name:     "Forwarder",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateHardcoded, Target: addrB},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := Analyze(code)
	if len(sum.Delegates) != 1 {
		t.Fatalf("Delegates = %+v, want exactly one", sum.Delegates)
	}
	dc := sum.Delegates[0]
	if dc.Provenance != ProvHardcoded || dc.Target != addrB || !dc.ForwardsCalldata {
		t.Fatalf("delegate = %+v, want forwarding hardcoded %s", dc, addrB)
	}
}

func TestAnalyzeDiamond(t *testing.T) {
	base := etypes.Keccak([]byte("diamond.storage"))
	code, err := solc.Compile(&solc.Contract{
		Name:     "Diamond",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateDiamond, Slot: base},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := Analyze(code)
	if sum.KeccakReads == 0 {
		t.Fatal("diamond facet lookup should count as a keccak-derived read")
	}
	if len(sum.Delegates) != 1 {
		t.Fatalf("Delegates = %+v, want exactly one", sum.Delegates)
	}
	dc := sum.Delegates[0]
	if dc.Provenance != ProvSlotKeccak || !dc.ForwardsCalldata {
		t.Fatalf("delegate = %+v, want forwarding slot-keccak", dc)
	}
}

func TestAnalyzeLibraryCaller(t *testing.T) {
	code, err := solc.Compile(&solc.Contract{
		Name: "UsesLib",
		Fallback: solc.Fallback{
			Kind: solc.FallbackLibraryCall, Target: addrB, Proto: "helper()",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := Analyze(code)
	if len(sum.Delegates) != 1 {
		t.Fatalf("Delegates = %+v, want exactly one", sum.Delegates)
	}
	dc := sum.Delegates[0]
	if dc.ForwardsCalldata {
		t.Fatalf("delegate = %+v: constructed call data must not count as forwarding", dc)
	}
	if dc.Provenance != ProvHardcoded || dc.Target != addrB {
		t.Fatalf("delegate = %+v, want hardcoded %s", dc, addrB)
	}
}

func TestAnalyzeDispatcherExcludesDecoys(t *testing.T) {
	f := solc.Func{ABI: fn("ping()"), Body: []solc.Stmt{solc.ReturnConst{Value: u256.One()}}}
	decoy := [4]byte{0xde, 0xad, 0xbe, 0xef}
	code, err := solc.Compile(&solc.Contract{
		Name:       "Plain",
		Funcs:      []solc.Func{f},
		Fallback:   solc.Fallback{Kind: solc.FallbackRevert},
		DecoyPush4: [][4]byte{decoy},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := Analyze(code)
	if sum.HasDelegateCall || len(sum.Delegates) != 0 {
		t.Fatalf("non-proxy reported delegates: %+v", sum.Delegates)
	}
	if want := [][4]byte{f.ABI.Selector()}; !reflect.DeepEqual(sum.Selectors, want) {
		t.Fatalf("Selectors = %x, want %x: decoy %x excluded", sum.Selectors, want, decoy)
	}
}

func TestCalldataTargetProvenance(t *testing.T) {
	// delegatecall(gas, calldataload(4), 0, calldatasize, 0, 0)
	code := (&asm.Program{}).
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).
		PushUint(4).Op(evm.CALLDATALOAD).
		Op(evm.GAS).Op(evm.DELEGATECALL).
		Op(evm.STOP).MustAssemble()
	sum := Analyze(code)
	if len(sum.Delegates) != 1 || sum.Delegates[0].Provenance != ProvCalldata {
		t.Fatalf("Delegates = %+v, want one calldata-provenance site", sum.Delegates)
	}
}

func TestMaskedImmFlowOnWideJumpTarget(t *testing.T) {
	// PUSH32 <jumpdest> JUMP: a masked immediate decides control flow, so
	// two codes sharing this fingerprint can diverge — the summary must
	// refuse promotion via MaskedImmFlow.
	var imm [32]byte
	imm[31] = 34 // the JUMPDEST below: 1 + 32 (PUSH32) + 1 (JUMP)
	code := (&asm.Program{}).
		PushBytes(imm[:]).Op(evm.JUMP).
		Op(evm.JUMPDEST).Op(evm.STOP).MustAssemble()
	sum := Analyze(code)
	if !sum.MaskedImmFlow {
		t.Fatal("PUSH32 jump target must set MaskedImmFlow")
	}
	if sum.ReachableBlocks != 2 {
		t.Fatalf("ReachableBlocks = %d, want 2 (the jump still resolves)", sum.ReachableBlocks)
	}

	// The same shape with a narrow PUSH1 target is clean.
	clean := (&asm.Program{}).
		PushUint(3).Op(evm.JUMP).
		Op(evm.JUMPDEST).Op(evm.STOP).MustAssemble()
	if got := Analyze(clean); got.MaskedImmFlow {
		t.Fatal("PUSH1 jump target must not set MaskedImmFlow")
	}
}

func TestMaskedImmFlowOnComparedImmediate(t *testing.T) {
	// Branching on calldata == <32-byte constant>: the comparison outcome
	// depends on a masked immediate.
	salt := etypes.Keccak([]byte("salt"))
	code := (&asm.Program{}).
		PushUint(0).Op(evm.CALLDATALOAD).
		Push(salt.Word()).Op(evm.EQ).
		JumpI("yes").
		Op(evm.STOP).
		Label("yes").Op(evm.STOP).MustAssemble()
	sum := Analyze(code)
	if !sum.MaskedImmFlow {
		t.Fatal("branch on masked-constant comparison must set MaskedImmFlow")
	}
}

// TestImmediatesOpaqueOrInspected pins which masked immediates the
// analysis reads the value of and which it only moves or uses as a
// DELEGATECALL target or storage slot, and which opaque immediate each
// delegate's target or slot comes from (-1: none; the value is fixed by the
// rest of the code).
func TestImmediatesOpaqueOrInspected(t *testing.T) {
	forward := func() *asm.Program { // call data to memory; ret/args operands
		return (&asm.Program{}).
			Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
			PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0)
	}
	for _, tc := range []struct {
		name      string
		code      []byte
		inspected []bool // per masked immediate, in code order
		imms      []int  // per delegate: the index of its immediate, or -1
	}{
		{name: "stamp", code: disasm.MinimalProxyRuntime(addrA),
			inspected: []bool{false}, imms: []int{0}},
		{name: "storage proxy: the slot opaque, the address mask inspected", code: storageProxy(t, slot1967),
			inspected: []bool{false, true}, imms: []int{0}},
		{name: "slot computed by an addition", code: forward().
			PushBytes(slot1967[:]).PushUint(1).Op(evm.ADD).Op(evm.SLOAD).
			Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).MustAssemble(),
			inspected: []bool{true}, imms: []int{-1}},
		{name: "two sites", code: forward().
			Op(evm.CALLDATASIZE).JumpI("other").
			PushBytes(addrA[:]).Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).
			Label("other").PushBytes(addrA[:]).Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).MustAssemble(),
			inspected: []bool{false, false}, imms: []int{0, 1}},
		{name: "two immediates joined", code: forward().
			Op(evm.CALLDATASIZE).JumpI("other").
			PushBytes(addrA[:]).Jump("call").
			Label("other").PushBytes(addrA[:]).
			Label("call").Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).MustAssemble(),
			inspected: []bool{true, true}, imms: []int{-1}},
		{name: "target also stored to memory", code: forward().
			PushBytes(addrA[:]).Op(evm.DUP1).PushUint(0x80).Op(evm.MSTORE).
			Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).MustAssemble(),
			inspected: []bool{true}, imms: []int{-1}},
		{name: "salt popped, slot swapped into place", code: forward().
			PushBytes(slot1967[:]).Op(evm.POP).
			PushUint(7).PushBytes(slot1967[:]).Op(evm.SWAP1).Op(evm.POP).Op(evm.SLOAD).
			Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).MustAssemble(),
			inspected: []bool{false, false}, imms: []int{1}},
	} {
		var pcs []uint64
		for _, ins := range disasm.Disassemble(tc.code) {
			if ins.Op.PushSize() >= maskWidth {
				pcs = append(pcs, ins.PC)
			}
		}
		sum := Analyze(tc.code)
		var want []Immediate
		for i, pc := range pcs {
			want = append(want, Immediate{PC: pc, Inspected: tc.inspected[i]})
		}
		if !reflect.DeepEqual(sum.Immediates, want) {
			t.Errorf("%s: immediates %+v, want %+v", tc.name, sum.Immediates, want)
		}
		if len(sum.Delegates) != len(tc.imms) {
			t.Fatalf("%s: delegates %+v, want %d", tc.name, sum.Delegates, len(tc.imms))
		}
		for i, del := range sum.Delegates {
			want := -1
			if tc.imms[i] >= 0 {
				want = int(pcs[tc.imms[i]])
			}
			if del.Imm != want || del.Provenance != ProvHardcoded && del.Provenance != ProvSlotConst {
				t.Errorf("%s: delegate %d = %+v, want a hardcoded or slot target from immediate at %d", tc.name, i, del, want)
			}
		}
	}
}

func TestCFGResolvesDispatcherEdges(t *testing.T) {
	f := solc.Func{ABI: fn("ping()"), Body: []solc.Stmt{solc.ReturnConst{Value: u256.One()}}}
	code := storageProxy(t, slot1967, f)
	sum, cfg := AnalyzeWithCFG(code)
	if len(cfg.Blocks) != sum.Blocks {
		t.Fatalf("CFG blocks %d != summary blocks %d", len(cfg.Blocks), sum.Blocks)
	}
	if sum.ReachableBlocks < 3 {
		t.Fatalf("ReachableBlocks = %d, want the dispatcher, fallback and body reached", sum.ReachableBlocks)
	}
	edges := 0
	for i, succs := range cfg.Succs {
		for _, j := range succs {
			if j < 0 || j >= len(cfg.Blocks) {
				t.Fatalf("edge %d->%d out of range", i, j)
			}
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("CFG has no edges")
	}
}

func TestAnalyzeLoopStabilizes(t *testing.T) {
	// JUMPDEST PUSH1 1 PUSH2 0 JUMP: the stack grows every iteration, but
	// the top-aligned join folds the growth away, so the dataflow
	// stabilizes without tripping any budget.
	code := (&asm.Program{}).
		Label("l").PushUint(1).Jump("l").MustAssemble()
	sum := Analyze(code)
	if sum.Truncated {
		t.Fatal("converging loop must not mark the summary Truncated")
	}
	if sum.ReachableBlocks != 1 {
		t.Fatalf("ReachableBlocks = %d, want 1", sum.ReachableBlocks)
	}
}

func TestAnalyzeBudgetExhaustionMarksTruncated(t *testing.T) {
	// White-box: a summary produced under an exhausted step budget must
	// be flagged Truncated so the promotion protocol refuses it.
	code := storageProxy(t, slot1967,
		solc.Func{ABI: fn("owner()"), Body: []solc.Stmt{solc.ReturnCaller{}}})
	a := newAnalysis(code, disasm.BasicBlocks(code))
	a.steps = 5
	a.run()
	if !a.summary(etypes.Hash{}, etypes.Hash{}).Truncated {
		t.Fatal("step-budget exhaustion must mark the summary Truncated")
	}
}

func TestAnalyzeTotalOnGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x60},                          // truncated PUSH1
		{0x7f, 0x01, 0x02},              // truncated PUSH32
		{0x56},                          // JUMP on empty stack
		{0xfe, 0x5b, 0x00},              // INVALID then unreachable block
		bytes.Repeat([]byte{0x5b}, 300), // jumpdest spam
		bytes.Repeat([]byte{0x80}, 300), // DUP1 on empty stack, repeatedly
	}
	for _, code := range cases {
		sum, cfg := AnalyzeWithCFG(code)
		if sum == nil || cfg == nil {
			t.Fatalf("nil result for %x", code)
		}
		if sum.ReachableBlocks > sum.Blocks {
			t.Fatalf("reachable %d > blocks %d for %x", sum.ReachableBlocks, sum.Blocks, code)
		}
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	code := storageProxy(t, slot1967,
		solc.Func{ABI: fn("owner()"), Body: []solc.Stmt{solc.ReturnCaller{}}})
	a, b := Analyze(code), Analyze(code)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Analyze is not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestPeakDepthCoversEveryBlock: a block's state copy is sized once, by
// peakDepth, and interpreting the block must never outgrow it — from an
// empty entry stack, a typical one, and one at the modeled ceiling.
func TestPeakDepthCoversEveryBlock(t *testing.T) {
	blocksSeen := 0
	for _, l := range taxonomy(t).Labels {
		blocks := disasm.BasicBlocks(l.Code)
		for idx, b := range blocks {
			for _, entry := range []int{0, 1, 5, 40, maxStackDepth - 1, maxStackDepth} {
				a := newAnalysis(l.Code, blocks)
				peak := peakDepth(b, entry)
				if peak > maxStackDepth || peak < entry {
					t.Fatalf("%v block %d entry %d: peakDepth %d out of range", l.Shape, idx, entry, peak)
				}
				from := absState{stack: make([]absValue, entry)}
				st := from.clone(peak)
				if cap(st.stack) != peak {
					t.Fatalf("clone(%d) of %d slots has capacity %d", peak, entry, cap(st.stack))
				}
				backing := unsafe.SliceData(st.stack)
				a.runBlock(idx, &st)
				if unsafe.SliceData(st.stack) != backing {
					t.Fatalf("%v block %d (pc %d) entry %d: the stack outgrew peakDepth %d", l.Shape, idx, b.Start, entry, peak)
				}
			}
			blocksSeen++
		}
	}
	if blocksSeen < 500 {
		t.Fatalf("only %d blocks checked", blocksSeen)
	}
}
