package evm_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/u256"
)

var (
	haltLogic = etypes.MustAddress("0x00000000000000000000000000000000000f00d0")
	haltLeaf  = etypes.MustAddress("0x00000000000000000000000000000000000f00d1")
)

// haltChain installs code at testTarget on a chain that also holds a
// three-frame call chain to halt in: a logic contract that CALLs a leaf
// (which writes storage and returns a word), then deploys a one-byte
// contract with CREATE, and returns. Forwarding proxies reach it through
// haltLogic.
func haltChain(code []byte) *chain.Chain {
	leaf := (&asm.Program{}).
		PushUint(0x42).PushUint(0).Op(evm.SSTORE).
		PushUint(0x99).PushUint(0).Op(evm.MSTORE).
		PushUint(32).PushUint(0).Op(evm.RETURN).
		MustAssemble()
	// PUSH1 2; PUSH1 0; MSTORE8; PUSH1 1; PUSH1 0; RETURN.
	initCode := []byte{0x60, 0x02, 0x60, 0x00, 0x53, 0x60, 0x01, 0x60, 0x00, 0xf3}
	logic := (&asm.Program{}).
		PushUint(32).PushUint(0).PushUint(0).PushUint(0).PushUint(0).
		PushBytes(haltLeaf[:]).Op(evm.GAS, evm.CALL).Op(evm.POP).
		PushBytes(initCode).PushUint(0).Op(evm.MSTORE).
		PushUint(uint64(len(initCode))).PushUint(uint64(32 - len(initCode))).
		PushUint(0).Op(evm.CREATE).Op(evm.POP).
		PushUint(7).PushUint(1).Op(evm.SSTORE).
		PushUint(32).PushUint(0).Op(evm.RETURN).
		MustAssemble()
	st := chain.New()
	st.AdvanceTo(1)
	st.InstallContract(haltLeaf, leaf)
	st.InstallContract(haltLogic, logic)
	st.InstallContract(testTarget, code)
	return st
}

// forwardingProxy copies the call data and DELEGATECALLs haltLogic with it,
// then returns what came back: the shape the detector's probe halts in.
func forwardingProxy() []byte {
	return (&asm.Program{}).
		PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).
		PushBytes(haltLogic[:]).Op(evm.GAS, evm.DELEGATECALL).
		PushUint(0).Op(evm.RETURNDATASIZE).PushUint(0).PushUint(0).Op(evm.RETURNDATACOPY).
		Op(evm.RETURNDATASIZE).PushUint(0).Op(evm.RETURN).
		MustAssemble()
}

func haltSpec(input []byte, gas uint64) paritySpec {
	return paritySpec{
		Caller: testCaller, To: testTarget, Input: input, Gas: gas,
		Value: u256.Zero(), Block: evm.DefaultBlockContext(), Lenient: true,
	}
}

// TestParityHaltAtEveryFrame halts the proxy → logic → leaf/CREATE chain at
// each of its four frames in turn, and once past the last: both loops must
// unwind identically, every entered frame exiting, ErrHalted on top — and a
// halt that never fires must leave the run as it was.
func TestParityHaltAtEveryFrame(t *testing.T) {
	st := haltChain(forwardingProxy())
	spec := haltSpec([]byte{0xab, 0xcd, 0xef, 0x01}, 5_000_000)
	full := parityRun(st, spec, evm.New, true)
	if full.Err != nil || len(full.Calls) != 4 || full.Exits != 4 {
		t.Fatalf("test setup: full run err=%v with %d frames, %d exits; want 4 clean frames", full.Err, len(full.Calls), full.Exits)
	}
	wantKinds := []evm.CallKind{evm.CallKindCall, evm.CallKindDelegateCall, evm.CallKindCall, evm.CallKindCreate}
	for k := 1; k <= 5; k++ {
		if ms := checkHaltParity(st, spec, k); len(ms) > 0 {
			t.Errorf("halt at frame %d: %v", k, ms)
		}
		spec.HaltAt = k
		for _, loop := range []struct {
			name  string
			build newEVM
		}{{"reference", evm.NewReference}, {"fast", evm.New}} {
			out := parityRun(st, spec, loop.build, true)
			if k > 4 {
				if out.Err != nil || len(out.Calls) != 4 || len(out.Events) != len(full.Events) {
					t.Errorf("%s loop, halt past the last frame: err=%v frames=%d", loop.name, out.Err, len(out.Calls))
				}
				continue
			}
			if out.Err != evm.ErrHalted || out.GasLeft != 0 || len(out.Output) != 0 {
				t.Errorf("%s loop, halt at frame %d: err=%v gas=%d output=%x", loop.name, k, out.Err, out.GasLeft, out.Output)
			}
			if got := out.Calls[k-1].Kind; got != wantKinds[k-1] {
				t.Errorf("%s loop: frame %d is a %v, want %v", loop.name, k, got, wantKinds[k-1])
			}
			// The leaf's frame (3) is closed by the time the CREATE (4) is
			// entered; every frame still open unwinds with ErrHalted.
			for i, c := range out.Calls {
				var want error = evm.ErrHalted
				if k == 4 && i+1 == 3 {
					want = nil
				}
				if c.Err != want {
					t.Errorf("%s loop, halt at frame %d: frame %d exited with %v, want %v", loop.name, k, i+1, c.Err, want)
				}
			}
		}
	}

	// Halted at the DELEGATECALL, nothing of the logic runs: no state event
	// but the outer frame's snapshot and its rollback.
	spec.HaltAt = 2
	out := parityRun(st, spec, evm.New, true)
	for _, s := range out.Steps {
		if s.Depth > 1 {
			t.Fatalf("a step ran at depth %d after the halt: %v", s.Depth, s)
		}
	}
}

// TestParityHaltInsidePrecompileAndEmptyCalls covers the frames without an
// interpreter loop of their own: a precompile and a code-less account.
func TestParityHaltInsidePrecompileAndEmptyCalls(t *testing.T) {
	identity := etypes.BytesToAddress([]byte{4})
	nobody := etypes.MustAddress("0x00000000000000000000000000000000000d00d0")
	code := (&asm.Program{}).
		PushUint(0).PushUint(0).PushUint(0).PushUint(0).
		PushBytes(identity[:]).Op(evm.GAS, evm.STATICCALL).Op(evm.POP).
		PushUint(0).PushUint(0).PushUint(0).PushUint(0).PushUint(0).
		PushBytes(nobody[:]).Op(evm.GAS, evm.CALL).Op(evm.POP).
		Op(evm.STOP).
		MustAssemble()
	st := haltChain(code)
	spec := haltSpec(nil, 1_000_000)
	for k := 1; k <= 4; k++ {
		if ms := checkHaltParity(st, spec, k); len(ms) > 0 {
			t.Errorf("halt at frame %d: %v", k, ms)
		}
	}
}

// TestParityHaltOverTaxonomy halts every generated shape's probe run at the
// first nested frame — where the detector halts a proxy — and one deeper.
func TestParityHaltOverTaxonomy(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 3, Contracts: 48})
	if got := len(c.Shapes()); got < 9 {
		t.Fatalf("corpus holds %d shapes, want the full taxonomy", got)
	}
	halted := 0
	for _, l := range c.Labels {
		spec := paritySpec{
			Caller: testCaller, To: l.Address, Input: proxion.CraftCallData(l.Address, l.Code),
			Gas: 5_000_000, Value: u256.Zero(), Block: evm.DefaultBlockContext(),
			Tx: evm.TxContext{Origin: testCaller}, StepLimit: 1 << 15, Lenient: true,
		}
		for k := 2; k <= 3; k++ {
			if ms := checkHaltParity(c.Chain, spec, k); len(ms) > 0 {
				t.Errorf("%v %s, halt at frame %d: %v", l.Kind, l.Address, k, ms)
			}
		}
		spec.HaltAt = 2
		if parityRun(c.Chain, spec, evm.New, true).Err == evm.ErrHalted {
			halted++
		}
	}
	if halted < 10 {
		t.Fatalf("only %d probe runs reached a nested frame to halt at", halted)
	}
}
