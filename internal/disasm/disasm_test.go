package disasm_test

import (
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/asm"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/solc"
	"repro/internal/u256"
)

func TestDisassembleBasic(t *testing.T) {
	var p asm.Program
	p.PushUint(0x80).PushUint(0x40).Op(evm.MSTORE).Op(evm.STOP)
	code := p.MustAssemble()
	instrs := disasm.Disassemble(code)
	if len(instrs) != 4 {
		t.Fatalf("instrs = %d, want 4", len(instrs))
	}
	if instrs[0].Op != evm.PUSH1 || instrs[0].Imm(code)[0] != 0x80 {
		t.Errorf("first = %s", instrs[0])
	}
	if instrs[2].Op != evm.MSTORE || instrs[2].PC != 4 {
		t.Errorf("third = %s", instrs[2])
	}
}

func TestDisassembleTruncatedPush(t *testing.T) {
	code := []byte{byte(evm.PUSH32), 0xaa}
	instrs := disasm.Disassemble(code)
	if len(instrs) != 1 {
		t.Fatalf("instrs = %d", len(instrs))
	}
	if imm := instrs[0].Imm(code); len(imm) != 32 || imm[0] != 0xaa || imm[1] != 0 {
		t.Errorf("truncated push imm = %x", imm)
	}
}

func TestContainsOpRespectsPushData(t *testing.T) {
	// 0xF4 inside push data must not count as DELEGATECALL.
	code := []byte{byte(evm.PUSH2), 0xf4, 0xf4, byte(evm.STOP)}
	if disasm.ContainsOp(code, evm.DELEGATECALL) {
		t.Error("push data misread as DELEGATECALL")
	}
	code = append(code, byte(evm.DELEGATECALL))
	if !disasm.ContainsOp(code, evm.DELEGATECALL) {
		t.Error("real DELEGATECALL missed")
	}
}

func TestPush4CandidatesDedup(t *testing.T) {
	var p asm.Program
	sel := []byte{0xde, 0xad, 0xbe, 0xef}
	p.PushBytes(sel).Op(evm.POP).PushBytes(sel).Op(evm.POP).
		PushBytes([]byte{1, 2, 3, 4}).Op(evm.POP)
	got := disasm.Push4Candidates(p.MustAssemble())
	if len(got) != 2 {
		t.Fatalf("candidates = %d, want 2 (deduped)", len(got))
	}
}

func TestDispatcherSelectorsOnCompiledContract(t *testing.T) {
	c := &solc.Contract{
		Name: "Dispatch",
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "alpha"}, Body: []solc.Stmt{solc.Stop{}}},
			{ABI: abi.Function{Name: "beta", Params: []string{"uint256", "address"}}, Body: []solc.Stmt{solc.Stop{}}},
		},
		DecoyPush4: [][4]byte{{9, 9, 9, 9}},
	}
	code := solc.MustCompile(c)
	got := disasm.DispatcherSelectors(code)
	if len(got) != 2 {
		t.Fatalf("selectors = %x, want the 2 real ones", got)
	}
	want := map[[4]byte]bool{
		c.Funcs[0].ABI.Selector(): true,
		c.Funcs[1].ABI.Selector(): true,
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected selector %x", s)
		}
	}
}

func TestDispatcherTargetsPointAtBodies(t *testing.T) {
	c := &solc.Contract{
		Name: "Targets",
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "one"}, Body: []solc.Stmt{solc.ReturnConst{Value: u256.One()}}},
			{ABI: abi.Function{Name: "two"}, Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(2)}}},
		},
	}
	code := solc.MustCompile(c)
	targets := disasm.DispatcherTargets(code)
	if len(targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(targets))
	}
	for sel, pc := range targets {
		if pc == 0 || pc >= uint64(len(code)) {
			t.Errorf("selector %x target %d out of range", sel, pc)
		}
		// Each target must be a JUMPDEST.
		if evm.Op(code[pc]) != evm.JUMPDEST {
			t.Errorf("selector %x target %d is %s, not JUMPDEST", sel, pc, evm.Op(code[pc]))
		}
	}
}

func TestMinimalProxyRoundTrip(t *testing.T) {
	target := etypes.MustAddress("0x00000000000000000000000000000000000055aa")
	code := disasm.MinimalProxyRuntime(target)
	if len(code) != 45 {
		t.Errorf("EIP-1167 runtime length = %d, want 45", len(code))
	}
	got, ok := disasm.MinimalProxyTarget(code)
	if !ok || got != target {
		t.Fatalf("target = %s ok=%v", got, ok)
	}
	// Wrong length or corrupted prefix must not match.
	if _, ok := disasm.MinimalProxyTarget(code[:44]); ok {
		t.Error("short code matched")
	}
	bad := append([]byte{}, code...)
	bad[0] = 0x00
	if _, ok := disasm.MinimalProxyTarget(bad); ok {
		t.Error("corrupt prefix matched")
	}
}

func TestBasicBlocks(t *testing.T) {
	var p asm.Program
	p.PushUint(1).JumpI("a"). // block 0: ends at JUMPI
					PushUint(2).Op(evm.POP). // block 1
					Label("a").              // block 2 starts at JUMPDEST
					Op(evm.STOP)
	code := p.MustAssemble()
	blocks := disasm.BasicBlocks(code)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(blocks))
	}
	if blocks[0].Start != 0 {
		t.Errorf("block 0 start = %d", blocks[0].Start)
	}
	last := blocks[0].Instrs[len(blocks[0].Instrs)-1]
	if last.Op != evm.JUMPI {
		t.Errorf("block 0 terminator = %s", last.Op)
	}
	if blocks[2].Instrs[0].Op != evm.JUMPDEST {
		t.Errorf("block 2 leader = %s", blocks[2].Instrs[0].Op)
	}
	if blocks[1].End() != blocks[2].Start {
		t.Errorf("block 1 end %d != block 2 start %d", blocks[1].End(), blocks[2].Start)
	}
}

func TestFormatListing(t *testing.T) {
	var p asm.Program
	p.PushBytes([]byte{0xdf, 0x4a, 0x31, 0x06}).Op(evm.EQ)
	listing := disasm.Format(p.MustAssemble())
	if !strings.Contains(listing, "PUSH4 0xdf4a3106") {
		t.Errorf("listing missing PUSH4:\n%s", listing)
	}
	if !strings.Contains(listing, "EQ") {
		t.Errorf("listing missing EQ:\n%s", listing)
	}
}
