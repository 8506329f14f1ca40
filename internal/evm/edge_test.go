package evm_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

func TestRevertCarriesOutput(t *testing.T) {
	// revert with a 4-byte payload: the caller sees the data and the error.
	var p asm.Program
	p.Push(u256.MustHex("0xdeadbeef")).PushUint(0).Op(evm.MSTORE).
		PushUint(4).PushUint(28).Op(evm.REVERT)
	st := newMemState()
	st.code[addrA] = p.MustAssemble()
	res := evm.New(st, evm.Config{Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
	if !errors.Is(res.Err, evm.ErrRevert) {
		t.Fatalf("err = %v", res.Err)
	}
	if string(res.Output) != string([]byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Errorf("revert output = %x", res.Output)
	}
}

func TestStrictModeBalanceChecks(t *testing.T) {
	// Without Lenient, an unfunded caller cannot transfer value.
	st := newMemState()
	st.code[addrA] = []byte{byte(evm.STOP)}
	e := evm.New(st, evm.Config{})
	res := e.Call(user, addrA, nil, testGas, u256.FromUint64(100))
	if !errors.Is(res.Err, evm.ErrInsufficientFund) {
		t.Errorf("err = %v, want insufficient funds", res.Err)
	}
	// Funded: value moves.
	st.balance[user] = u256.FromUint64(1000)
	res = e.Call(user, addrA, nil, testGas, u256.FromUint64(100))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := st.balance[addrA]; got.Uint64() != 100 {
		t.Errorf("recipient balance = %s", got)
	}
	if got := st.balance[user]; got.Uint64() != 900 {
		t.Errorf("sender balance = %s", got)
	}
}

func TestStrictCreateBalanceCheck(t *testing.T) {
	st := newMemState()
	e := evm.New(st, evm.Config{})
	res := e.Create(user, []byte{byte(evm.STOP)}, testGas, u256.FromUint64(5))
	if !errors.Is(res.Err, evm.ErrInsufficientFund) {
		t.Errorf("create err = %v", res.Err)
	}
}

func TestCreateCodeSizeLimit(t *testing.T) {
	// Init code returning > 24576 bytes must fail with the EIP-170 error.
	var init asm.Program
	init.PushUint(30_000).PushUint(0).Op(evm.RETURN)
	st := newMemState()
	e := evm.New(st, evm.Config{Lenient: true})
	res := e.Create(user, init.MustAssemble(), testGas, u256.Zero())
	if !errors.Is(res.Err, evm.ErrCodeSizeLimit) {
		t.Errorf("err = %v, want code size limit", res.Err)
	}
}

func TestStaticBlocksCreateAndLog(t *testing.T) {
	// A caller at A STATICCALLs B, whose body writes; the callee frame must
	// end in ErrWriteProtection and the caller see a 0 success flag.
	for name, body := range map[string][]byte{
		"create": {byte(evm.PUSH0), byte(evm.PUSH0), byte(evm.PUSH0), byte(evm.CREATE)},
		"log0":   {byte(evm.PUSH0), byte(evm.PUSH0), byte(evm.LOG0)},
		"selfdestruct": {
			byte(evm.PUSH0), byte(evm.SELFDESTRUCT),
		},
	} {
		var caller asm.Program
		caller.PushUint(0).PushUint(0).
			PushUint(0).PushUint(0).
			PushBytes(addrB[:]).
			PushUint(1_000_000).
			Op(evm.STATICCALL)
		st := newMemState()
		st.code[addrA] = returnTop(&caller)
		st.code[addrB] = body
		logger := &evm.StructLogger{}
		res := evm.New(st, evm.Config{Tracer: logger, Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
		if res.Err != nil {
			t.Fatalf("%s: caller failed: %v", name, res.Err)
		}
		if got := u256.FromBytes(res.Output); !got.IsZero() {
			t.Errorf("%s in static context: success flag = %s, want 0", name, got)
		}
		calls := logger.Calls()
		if len(calls) != 2 || calls[1].Kind != evm.CallKindStaticCall {
			t.Fatalf("%s: call tree %+v, want the outer call and one STATICCALL", name, calls)
		}
		if !errors.Is(calls[1].Err, evm.ErrWriteProtection) {
			t.Errorf("%s in static context: err = %v", name, calls[1].Err)
		}
	}
}

func TestDelegateCallPublicEntry(t *testing.T) {
	// A call with value enters A, which DELEGATECALLs B: B's code runs in
	// A's context, so ADDRESS is A and CALLVALUE the outer call's value,
	// and both writes land in A's storage.
	var logic asm.Program
	logic.Op(evm.ADDRESS).PushUint(0).Op(evm.SSTORE).
		Op(evm.CALLVALUE).PushUint(1).Op(evm.SSTORE).Op(evm.STOP)
	var proxy asm.Program
	proxy.PushUint(0).PushUint(0).
		PushUint(0).PushUint(0).
		PushBytes(addrB[:]).
		PushUint(1_000_000).
		Op(evm.DELEGATECALL)
	st := newMemState()
	st.code[addrA] = returnTop(&proxy)
	st.code[addrB] = logic.MustAssemble()
	res := evm.New(st, evm.Config{Lenient: true}).Call(user, addrA, nil, testGas, u256.FromUint64(9))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := u256.FromBytes(res.Output); got.Uint64() != 1 {
		t.Fatalf("delegatecall success flag = %s, want 1", got)
	}
	if got := st.storage[addrA][etypes.Hash{}]; etypes.BytesToAddress(got[:]) != addrA {
		t.Errorf("ADDRESS in the delegated frame = %s, want the proxy %s", etypes.BytesToAddress(got[:]), addrA)
	}
	var slot1 etypes.Hash
	slot1[31] = 1
	if got := st.storage[addrA][slot1].Word(); got.Uint64() != 9 {
		t.Errorf("CALLVALUE in the delegated frame = %s, want 9", got)
	}
	if len(st.storage[addrB]) != 0 {
		t.Error("delegatecall wrote to the logic contract's storage")
	}
}

func TestCopyOpcodesOutOfRangeSources(t *testing.T) {
	// RETURNDATACOPY/CALLDATACOPY with absurd source offsets must
	// zero-fill, and absurd destination offsets must exhaust gas.
	var p asm.Program
	p.PushUint(8).Push(u256.Max()).PushUint(0).Op(evm.CALLDATACOPY). // src = 2^256-1
										PushUint(8).PushUint(0).Op(evm.RETURN)
	out, err := runCode(t, p.MustAssemble(), []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range out {
		if b != 0 {
			t.Fatalf("out-of-range copy not zero-filled: %x", out)
		}
	}

	var q asm.Program
	q.PushUint(8).PushUint(0).Push(u256.Max()).Op(evm.CALLDATACOPY) // dst = 2^256-1
	if _, err := runCode(t, q.MustAssemble(), nil); !errors.Is(err, evm.ErrOutOfGas) {
		t.Errorf("absurd destination: err = %v", err)
	}
}

func TestCalldataloadHugeOffset(t *testing.T) {
	var p asm.Program
	p.Push(u256.Max()).Op(evm.CALLDATALOAD)
	out, err := runCode(t, returnTop(&p), []byte{0xff, 0xff})
	if err != nil {
		t.Fatal(err)
	}
	if got := u256.FromBytes(out); !got.IsZero() {
		t.Errorf("calldataload(max) = %s, want 0", got)
	}
}

func TestExpGasScalesWithExponentWidth(t *testing.T) {
	run := func(exp u256.Int) uint64 {
		var p asm.Program
		p.Push(exp).PushUint(3).Op(evm.EXP).Op(evm.POP).Op(evm.STOP)
		st := newMemState()
		st.code[addrA] = p.MustAssemble()
		res := evm.New(st, evm.Config{Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return testGas - res.GasLeft
	}
	small := run(u256.FromUint64(3))
	wide := run(u256.Max())
	if wide <= small {
		t.Errorf("EXP gas: wide exponent %d <= narrow %d", wide, small)
	}
}

func TestCallKindStrings(t *testing.T) {
	want := map[evm.CallKind]string{
		evm.CallKindCall:         "CALL",
		evm.CallKindDelegateCall: "DELEGATECALL",
		evm.CallKindStaticCall:   "STATICCALL",
		evm.CallKindCallCode:     "CALLCODE",
		evm.CallKindCreate:       "CREATE",
		evm.CallKindCreate2:      "CREATE2",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("kind %d = %q", k, k.String())
		}
	}
	if !strings.Contains(evm.CallKind(99).String(), "UNKNOWN") {
		t.Error("unknown kind should say so")
	}
}

func TestBalanceAndSelfBalanceOpcodes(t *testing.T) {
	st := newMemState()
	st.balance[addrA] = u256.FromUint64(777)
	st.balance[addrB] = u256.FromUint64(333)

	var p asm.Program
	p.PushBytes(addrB[:]).Op(evm.BALANCE)
	st.code[addrA] = returnTop(&p)
	res := evm.New(st, evm.Config{Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
	if got := u256.FromBytes(res.Output); got.Uint64() != 333 {
		t.Errorf("balance(B) = %s", got)
	}

	var q asm.Program
	q.Op(evm.SELFBALANCE)
	st.code[addrA] = returnTop(&q)
	res = evm.New(st, evm.Config{Lenient: true}).Call(user, addrA, nil, testGas, u256.Zero())
	if got := u256.FromBytes(res.Output); got.Uint64() != 777 {
		t.Errorf("selfbalance = %s", got)
	}
}
