package evm_test

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

func TestCreate2DeterministicAddress(t *testing.T) {
	runtime := []byte{byte(evm.STOP)}
	var init asm.Program
	init.PushUint(uint64(len(runtime))).PushLabel("rt").PushUint(0).Op(evm.CODECOPY).
		PushUint(uint64(len(runtime))).PushUint(0).Op(evm.RETURN).
		DataLabel("rt").Raw(runtime)
	initCode := init.MustAssemble()

	salt := etypes.HashFromWord(u256.FromUint64(0x5a17))
	var creator asm.Program
	creator.PushUint(uint64(len(initCode))).PushLabel("data").PushUint(0).Op(evm.CODECOPY).
		Push(salt.Word()).
		PushUint(uint64(len(initCode))).PushUint(0).PushUint(0).
		Op(evm.CREATE2)
	creator.PushUint(0).Op(evm.MSTORE).
		PushUint(32).PushUint(0).Op(evm.RETURN).
		DataLabel("data").Raw(initCode)

	st := newMemState()
	st.code[addrA] = creator.MustAssemble()
	e := evm.New(st, evm.Config{Lenient: true})
	res := e.Call(user, addrA, nil, testGas, u256.Zero())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	created := etypes.AddressFromWord(u256.FromBytes(res.Output))
	want := etypes.CreateAddress2(addrA, salt, initCode)
	if created != want {
		t.Errorf("CREATE2 address = %s, want %s", created, want)
	}
	if string(st.code[created]) != string(runtime) {
		t.Errorf("deployed code = %x", st.code[created])
	}
}

func TestCallCodeUsesOwnStorage(t *testing.T) {
	// Callee stores 7 at slot 0; via CALLCODE the write must land in the
	// CALLER's storage (like delegatecall but with self as msg.sender).
	var callee asm.Program
	callee.PushUint(7).PushUint(0).Op(evm.SSTORE).Op(evm.STOP)

	var caller asm.Program
	caller.PushUint(0).PushUint(0).
		PushUint(0).PushUint(0).
		PushUint(0). // value
		PushBytes(addrB[:]).
		PushUint(1_000_000).
		Op(evm.CALLCODE).Op(evm.POP).Op(evm.STOP)

	st := newMemState()
	st.code[addrA] = caller.MustAssemble()
	st.code[addrB] = callee.MustAssemble()
	e := evm.New(st, evm.Config{Lenient: true})
	if res := e.Call(user, addrA, nil, testGas, u256.Zero()); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := st.storage[addrA][etypes.Hash{}].Word(); got.Uint64() != 7 {
		t.Errorf("callcode write landed wrong: caller slot0 = %s", got)
	}
	if len(st.storage[addrB]) != 0 {
		t.Error("callcode polluted callee storage")
	}
}

func TestExtCodeOpcodes(t *testing.T) {
	// EXTCODESIZE / EXTCODEHASH / EXTCODECOPY of addrB.
	target := []byte{byte(evm.PUSH1), 0x2a, byte(evm.STOP)}

	var p asm.Program
	p.PushBytes(addrB[:]).Op(evm.EXTCODESIZE)
	st := newMemState()
	st.code[addrA] = returnTop(&p)
	st.code[addrB] = target
	e := evm.New(st, evm.Config{Lenient: true})
	res := e.Call(user, addrA, nil, testGas, u256.Zero())
	if got := u256.FromBytes(res.Output); got.Uint64() != uint64(len(target)) {
		t.Errorf("extcodesize = %s, want %d", got, len(target))
	}

	var q asm.Program
	q.PushBytes(addrB[:]).Op(evm.EXTCODEHASH)
	st2 := newMemState()
	st2.code[addrA] = returnTop(&q)
	st2.code[addrB] = target
	res = evm.New(st2, evm.Config{Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
	if got := etypes.HashFromWord(u256.FromBytes(res.Output)); got != etypes.Keccak(target) {
		t.Errorf("extcodehash mismatch")
	}

	// EXTCODECOPY the whole code to memory 0 and return it.
	var r asm.Program
	r.PushUint(uint64(len(target))).PushUint(0).PushUint(0).PushBytes(addrB[:]).
		Op(evm.EXTCODECOPY).
		PushUint(uint64(len(target))).PushUint(0).Op(evm.RETURN)
	st3 := newMemState()
	st3.code[addrA] = r.MustAssemble()
	st3.code[addrB] = target
	res = evm.New(st3, evm.Config{Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
	if string(res.Output) != string(target) {
		t.Errorf("extcodecopy = %x, want %x", res.Output, target)
	}
}

func TestBlockhashOpcode(t *testing.T) {
	known := etypes.Keccak([]byte("block-42"))
	blk := evm.DefaultBlockContext()
	blk.BlockHash = func(n uint64) etypes.Hash {
		if n == 42 {
			return known
		}
		return etypes.Hash{}
	}
	var p asm.Program
	p.PushUint(42).Op(evm.BLOCKHASH)
	st := newMemState()
	st.code[addrA] = returnTop(&p)
	res := evm.New(st, evm.Config{Block: blk, Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
	if got := etypes.HashFromWord(u256.FromBytes(res.Output)); got != known {
		t.Errorf("blockhash(42) = %s", got)
	}
}

func TestSignExtendAndSarPrograms(t *testing.T) {
	// signextend(0, 0xff) == -1; then sar(4, -1) == -1 still.
	var p asm.Program
	p.PushUint(0xff).PushUint(0).Op(evm.SIGNEXTEND).
		PushUint(4).Op(evm.SAR)
	out, err := runCode(t, returnTop(&p), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := u256.FromBytes(out); !got.Eq(u256.Max()) {
		t.Errorf("signextend+sar = %s, want -1", got)
	}
}

func TestMsizeTracksExpansion(t *testing.T) {
	var p asm.Program
	p.PushUint(1).PushUint(100).Op(evm.MSTORE). // touch offset 100..131
							Op(evm.MSIZE)
	out, err := runCode(t, returnTop(&p), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 132 rounded up to a word boundary = 160.
	if got := u256.FromBytes(out); got.Uint64() != 160 {
		t.Errorf("msize = %s, want 160", got)
	}
}

func TestMemoryExpansionCostsGas(t *testing.T) {
	// Writing at a huge offset must exhaust gas, not OOM.
	var p asm.Program
	p.PushUint(1).Push(u256.FromUint64(1 << 30)).Op(evm.MSTORE)
	st := newMemState()
	st.code[addrA] = p.MustAssemble()
	res := evm.New(st, evm.Config{Lenient: true}).Call(user, addrA, nil, 100_000, u256.Zero())
	if !errors.Is(res.Err, evm.ErrOutOfGas) {
		t.Errorf("err = %v, want out of gas", res.Err)
	}
}

func TestAbsurdOffsetIsOutOfGas(t *testing.T) {
	var p asm.Program
	p.PushUint(1).Push(u256.Max()).Op(evm.MSTORE)
	st := newMemState()
	st.code[addrA] = p.MustAssemble()
	res := evm.New(st, evm.Config{Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
	if !errors.Is(res.Err, evm.ErrOutOfGas) {
		t.Errorf("err = %v, want out of gas", res.Err)
	}
}

func TestGasForwardingKeepsSixtyFourth(t *testing.T) {
	// Child burns everything it gets; the parent must retain ~1/64 and
	// finish successfully.
	var burner asm.Program
	burner.Label("spin").Jump("spin")

	var caller asm.Program
	caller.PushUint(0).PushUint(0).
		PushUint(0).PushUint(0).
		PushUint(0).
		PushBytes(addrB[:]).
		Op(evm.GAS). // request everything
		Op(evm.CALL)
	code := returnTop(&caller)

	st := newMemState()
	st.code[addrA] = code
	st.code[addrB] = burner.MustAssemble()
	e := evm.New(st, evm.Config{StepLimit: 1 << 22, Lenient: true})
	res := e.Call(user, addrA, nil, 2_000_000, u256.Zero())
	if res.Err != nil {
		t.Fatalf("parent must survive child exhaustion: %v", res.Err)
	}
	if got := u256.FromBytes(res.Output); !got.IsZero() {
		t.Errorf("child success flag = %s, want 0", got)
	}
}

func TestNestedRevertRestoresOnlyChildWrites(t *testing.T) {
	// Parent writes slot 0 = 1, then calls child which writes slot 1 = 2
	// and reverts. Slot 0 must survive; slot 1 must not.
	var child asm.Program
	child.PushUint(2).PushUint(1).Op(evm.SSTORE).
		PushUint(0).PushUint(0).Op(evm.REVERT)

	var parent asm.Program
	parent.PushUint(1).PushUint(0).Op(evm.SSTORE).
		PushUint(0).PushUint(0).
		PushUint(0).PushUint(0).
		PushUint(0).
		PushBytes(addrB[:]).
		PushUint(500_000).
		Op(evm.CALL).Op(evm.POP).Op(evm.STOP)

	st := newMemState()
	st.code[addrA] = parent.MustAssemble()
	st.code[addrB] = child.MustAssemble()
	e := evm.New(st, evm.Config{Lenient: true})
	if res := e.Call(user, addrA, nil, testGas, u256.Zero()); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := st.storage[addrA][etypes.Hash{}].Word(); got.Uint64() != 1 {
		t.Errorf("parent write lost: %s", got)
	}
	if got := st.storage[addrB][etypes.HashFromWord(u256.One())]; got != (etypes.Hash{}) {
		t.Errorf("child write survived revert: %s", got)
	}
}

func TestCallToEmptyAccountSucceeds(t *testing.T) {
	var p asm.Program
	p.PushUint(0).PushUint(0).
		PushUint(0).PushUint(0).
		PushUint(0).
		PushBytes(addrB[:]). // no code there
		PushUint(100_000).
		Op(evm.CALL)
	out, err := runCode(t, returnTop(&p), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := u256.FromBytes(out); got.Uint64() != 1 {
		t.Errorf("call to empty account = %s, want success", got)
	}
}

func TestStackSnapshotAndPeek(t *testing.T) {
	var s evm.Stack
	s.Push(u256.FromUint64(1))
	s.Push(u256.FromUint64(2))
	if got := s.Peek(0); got.Uint64() != 2 {
		t.Errorf("peek(0) = %s", got)
	}
	if got := s.Peek(1); got.Uint64() != 1 {
		t.Errorf("peek(1) = %s", got)
	}
	if got := s.Peek(5); !got.IsZero() {
		t.Errorf("deep peek = %s, want 0", got)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[1].Uint64() != 2 {
		t.Errorf("snapshot = %v", snap)
	}
}
