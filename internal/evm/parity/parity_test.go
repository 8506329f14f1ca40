package parity

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

var (
	testCaller = etypes.MustAddress("0x00000000000000000000000000000000000caffe")
	testTarget = etypes.MustAddress("0x0000000000000000000000000000000000001234")
)

// checkCode installs code on a fresh chain and runs the full parity check.
func checkCode(t *testing.T, code, input []byte, gas uint64) {
	t.Helper()
	st := chain.New()
	st.AdvanceTo(1)
	st.InstallContract(testTarget, code)
	spec := Spec{
		Caller:  testCaller,
		To:      testTarget,
		Input:   input,
		Gas:     gas,
		Block:   evm.DefaultBlockContext(),
		Lenient: true,
	}
	if ms := Check(st, spec); len(ms) > 0 {
		for _, m := range ms {
			t.Errorf("%s", m)
		}
		t.Fatalf("parity broken for code %x input %x gas %d", code, input, gas)
	}
}

// dispatcherCode assembles a Solidity-style selector dispatcher: N
// PUSH4/EQ/JUMPI arms, each arm returning its index.
func dispatcherCode(arms int) []byte {
	p := (&asm.Program{})
	p.PushUint(0).Op(evm.CALLDATALOAD).PushUint(224).Op(evm.SHR)
	for i := 0; i < arms; i++ {
		p.Op(evm.DUP1).PushUint(uint64(0xa0000000 + i)).Op(evm.EQ)
		p.JumpI(armLabel(i))
	}
	p.PushUint(0).PushUint(0).Op(evm.REVERT)
	for i := 0; i < arms; i++ {
		p.Label(armLabel(i))
		p.PushUint(uint64(i)).PushUint(0).Op(evm.MSTORE)
		p.PushUint(32).PushUint(0).Op(evm.RETURN)
	}
	return p.MustAssemble()
}

func armLabel(i int) string { return "arm" + string(rune('a'+i)) }

func selector(i int) []byte {
	v := uint64(0xa0000000 + i)
	return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

func TestParityDispatcher(t *testing.T) {
	code := dispatcherCode(8)
	for i := 0; i < 8; i++ {
		checkCode(t, code, selector(i), 1_000_000)
	}
	checkCode(t, code, selector(99), 1_000_000)       // falls through to REVERT
	checkCode(t, code, []byte{0x01, 0x02}, 1_000_000) // short calldata
	checkCode(t, code, nil, 1_000_000)                // empty calldata
}

// TestParityIdioms covers the control-flow idioms compilers emit —
// static jumps, dispatcher and duplicated-condition branches, discard
// below the top — one at a time, plus the degenerate codes.
func TestParityIdioms(t *testing.T) {
	cases := map[string][]byte{
		// PUSH dest; JUMP
		"push-jump": (&asm.Program{}).
			Jump("end").Op(evm.INVALID).
			Label("end").PushUint(7).PushUint(0).Op(evm.MSTORE).
			PushUint(32).PushUint(0).Op(evm.RETURN).
			MustAssemble(),
		// PUSH dest; JUMPI, both taken and not
		"push-jumpi-taken": (&asm.Program{}).
			PushUint(1).JumpI("end").Op(evm.INVALID).
			Label("end").Op(evm.STOP).
			MustAssemble(),
		"push-jumpi-not-taken": (&asm.Program{}).
			PushUint(0).JumpI("end").PushUint(5).Op(evm.POP).Op(evm.STOP).
			Label("end").Op(evm.INVALID).
			MustAssemble(),
		// DUPn; PUSH dest; JUMPI
		"dup-push-jumpi": (&asm.Program{}).
			PushUint(1).Op(evm.DUP1).JumpI("yes").Op(evm.INVALID).
			Label("yes").Op(evm.POP).Op(evm.STOP).
			MustAssemble(),
		"dup2-push-jumpi": (&asm.Program{}).
			PushUint(0).PushUint(3).Op(evm.DUP1 + 1).JumpI("t").
			Op(evm.POP).Op(evm.POP).Op(evm.STOP).
			Label("t").Op(evm.INVALID).
			MustAssemble(),
		// SWAPn; POP
		"swap-pop": (&asm.Program{}).
			PushUint(10).PushUint(20).Op(evm.SWAP1, evm.POP).
			PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.RETURN).
			MustAssemble(),
		// Jump to a non-JUMPDEST: PUSH/JUMP with an invalid dest
		"push-jump-invalid": (&asm.Program{}).
			PushUint(1).Op(evm.JUMP).Op(evm.STOP).
			MustAssemble(),
		"push-jumpi-invalid-taken": (&asm.Program{}).
			PushUint(1).PushUint(3).Op(evm.SWAP1).Op(evm.JUMPI).Op(evm.STOP).
			MustAssemble(),
		// PUSH immediate truncated by end of code
		"truncated-push": {byte(evm.PUSH4), 0xAA, 0xBB},
		// Undefined opcode after some work
		"invalid-opcode": {byte(evm.PUSH1), 0x01, 0x0c, byte(evm.STOP)},
		// INVALID opcode
		"designated-invalid": {byte(evm.INVALID)},
		// Raw empty code
		"empty": {},
		// Jump into push data (invalid even though the byte is 0x5b)
		"jump-into-pushdata": {
			byte(evm.PUSH1), 0x04, byte(evm.JUMP),
			byte(evm.PUSH1), byte(evm.JUMPDEST), byte(evm.STOP),
		},
	}
	for name, code := range cases {
		t.Run(name, func(t *testing.T) {
			checkCode(t, code, nil, 500_000)
		})
	}
}

// TestParityIdiomBoundaries fails an idiom part-way through: exhausted gas
// at every instruction of a dispatcher arm, the step limit landing on
// every instruction of a loop body, and stack underflow at a JUMPI.
func TestParityIdiomBoundaries(t *testing.T) {
	// Gas runs out inside the dispatcher sequence for low budgets; sweep
	// budgets so every instruction boundary is hit.
	code := dispatcherCode(4)
	for gas := uint64(0); gas < 120; gas++ {
		checkCode(t, code, selector(2), gas)
	}

	// JUMPI underflows: PUSH dest; JUMPI with an empty stack beneath.
	underflow := (&asm.Program{}).
		JumpI("end").Label("end").Op(evm.STOP).
		MustAssemble()
	checkCode(t, underflow, nil, 100_000)

	// Step limits landing on every instruction of a loop body.
	loop := (&asm.Program{}).
		Label("top").PushUint(1).Op(evm.POP).Jump("top").
		MustAssemble()
	st := chain.New()
	st.AdvanceTo(1)
	st.InstallContract(testTarget, loop)
	for limit := uint64(1); limit <= 16; limit++ {
		spec := Spec{
			Caller: testCaller, To: testTarget, Gas: 1_000_000,
			Block: evm.DefaultBlockContext(), Lenient: true,
			StepLimit: limit,
		}
		if ms := Check(st, spec); len(ms) > 0 {
			t.Fatalf("step limit %d: %v", limit, ms)
		}
	}
}

// TestParityStackDepthBoundary drives the stack to exactly the 1024 limit
// so the overflow check is exercised at the boundary.
func TestParityStackDepthBoundary(t *testing.T) {
	deep := (&asm.Program{})
	for i := 0; i < 1023; i++ {
		deep.PushUint(uint64(i))
	}
	// One DUP1 reaches exactly 1024; the next overflows.
	deep.Op(evm.DUP1, evm.DUP1)
	checkCode(t, deep.MustAssemble(), nil, 10_000_000)
}

// TestParityMemoryAndState covers memory expansion, storage writes, logs,
// hashing, and the environment opcodes.
func TestParityMemoryAndState(t *testing.T) {
	p := (&asm.Program{}).
		PushUint(0xdeadbeef).PushUint(64).Op(evm.MSTORE).
		PushUint(32).PushUint(64).Op(evm.KECCAK256).
		PushUint(3).Op(evm.SSTORE).
		PushUint(3).Op(evm.SLOAD).PushUint(0).Op(evm.MSTORE).
		Op(evm.CALLER, evm.ADDRESS, evm.ORIGIN, evm.TIMESTAMP, evm.NUMBER,
				evm.CHAINID, evm.GAS, evm.MSIZE, evm.PC, evm.CALLVALUE).
		Op(evm.LOG0). // consumes msize, pc... (off,size from stack)
		PushUint(32).PushUint(0).Op(evm.RETURN)
	checkCode(t, p.MustAssemble(), nil, 5_000_000)
}

// TestParityNestedCalls exercises the call family and CREATE through a
// proxy-style delegatecall chain, the shape the Proxion probe hits.
func TestParityNestedCalls(t *testing.T) {
	logicAddr := etypes.MustAddress("0x00000000000000000000000000000000000f00d0")
	logic := (&asm.Program{}).
		PushUint(0x42).PushUint(0).Op(evm.SSTORE).
		PushUint(0x99).PushUint(0).Op(evm.MSTORE).
		PushUint(32).PushUint(0).Op(evm.RETURN).
		MustAssemble()
	proxy := (&asm.Program{}).
		PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).
		PushBytes(logicAddr[:]).Op(evm.GAS, evm.DELEGATECALL).
		PushUint(0).Op(evm.RETURNDATASIZE).PushUint(0).PushUint(0).Op(evm.RETURNDATACOPY).
		Op(evm.RETURNDATASIZE).PushUint(0).Op(evm.RETURN).
		MustAssemble()

	st := chain.New()
	st.AdvanceTo(1)
	st.InstallContract(logicAddr, logic)
	st.InstallContract(testTarget, proxy)
	spec := Spec{
		Caller: testCaller, To: testTarget, Input: []byte{0xab, 0xcd, 0xef, 0x01},
		Gas: 5_000_000, Block: evm.DefaultBlockContext(), Lenient: true,
	}
	if ms := Check(st, spec); len(ms) > 0 {
		t.Fatalf("delegatecall parity: %v", ms)
	}

	// CREATE from inside a frame: the init code (PUSH1 2; PUSH1 0;
	// MSTORE8; PUSH1 1; PUSH1 0; RETURN) deploys a 1-byte runtime.
	initCode := []byte{0x60, 0x02, 0x60, 0x00, 0x53, 0x60, 0x01, 0x60, 0x00, 0xf3}
	creator := (&asm.Program{}).
		PushBytes(initCode).PushUint(0).Op(evm.MSTORE).
		PushUint(uint64(len(initCode))).PushUint(uint64(32 - len(initCode))).
		PushUint(0).Op(evm.CREATE).
		PushUint(0).Op(evm.MSTORE).
		PushUint(32).PushUint(0).Op(evm.RETURN).
		MustAssemble()
	checkCode(t, creator, nil, 5_000_000)
}

// TestParityRunRevertsState proves Run leaves the shared state untouched,
// which is what lets Check execute three runs against one chain.
func TestParityRunRevertsState(t *testing.T) {
	code := (&asm.Program{}).
		PushUint(7).PushUint(1).Op(evm.SSTORE).Op(evm.STOP).
		MustAssemble()
	st := chain.New()
	st.AdvanceTo(1)
	st.InstallContract(testTarget, code)
	spec := Spec{
		Caller: testCaller, To: testTarget, Gas: 1_000_000,
		Block: evm.DefaultBlockContext(), Lenient: true,
	}
	out := Run(st, spec, evm.InterpFast, false)
	if out.Err != nil {
		t.Fatalf("run failed: %v", out.Err)
	}
	if len(out.Events) == 0 {
		t.Fatal("expected recorded state events")
	}
	slot := etypes.HashFromWord(u256.FromUint64(1))
	if got := st.GetState(testTarget, slot); got != (etypes.Hash{}) {
		t.Fatalf("state leaked through Run: slot=%x", got)
	}
}

// TestParityDiffDetectsDivergence sanity-checks the comparators themselves:
// hand-built diverging outcomes must be flagged.
func TestParityDiffDetectsDivergence(t *testing.T) {
	base := Outcome{Output: []byte{1}, GasLeft: 100, Events: []string{"a"}}
	cases := map[string]Outcome{
		"output": {Output: []byte{2}, GasLeft: 100, Events: []string{"a"}},
		"gas":    {Output: []byte{1}, GasLeft: 99, Events: []string{"a"}},
		"error":  {Output: []byte{1}, GasLeft: 100, Events: []string{"a"}, Err: evm.ErrRevert},
		"events": {Output: []byte{1}, GasLeft: 100, Events: []string{"b"}},
	}
	for name, got := range cases {
		if ms := DiffOutcome("x", base, got); len(ms) == 0 {
			t.Errorf("%s divergence not detected", name)
		}
	}
	if ms := DiffOutcome("x", base, base); len(ms) != 0 {
		t.Errorf("identical outcomes flagged: %v", ms)
	}

	withSteps := Outcome{Steps: []evm.StructLog{{PC: 1, Op: evm.ADD}}}
	diverged := Outcome{Steps: []evm.StructLog{{PC: 2, Op: evm.ADD}}}
	if ms := DiffLockstep("x", withSteps, diverged); len(ms) == 0 {
		t.Error("step divergence not detected")
	}
}
