package abi_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/u256"
)

func TestPrototypeAndSelector(t *testing.T) {
	f := abi.Function{Name: "transfer", Params: []string{"address", "uint256"}}
	if got := f.Prototype(); got != "transfer(address,uint256)" {
		t.Errorf("prototype = %q", got)
	}
	if got := f.Selector(); got != [4]byte{0xa9, 0x05, 0x9c, 0xbb} {
		t.Errorf("selector = %x", got)
	}
	empty := abi.Function{Name: "init"}
	if got := empty.Prototype(); got != "init()" {
		t.Errorf("no-arg prototype = %q", got)
	}
}

// TestAppendPrototype: the one builder appends after what dst holds, and
// the selector hashes its bytes without allocating.
func TestAppendPrototype(t *testing.T) {
	f := abi.Function{Name: "transferFrom", Params: []string{"address", "address", "uint256"}}
	if got := string(f.AppendPrototype([]byte("x:"))); got != "x:transferFrom(address,address,uint256)" {
		t.Errorf("AppendPrototype = %q", got)
	}
	if got := f.Selector(); got != abi.SelectorOf(f.Prototype()) {
		t.Errorf("Selector = %x, the prototype hashes to %x", got, abi.SelectorOf(f.Prototype()))
	}
	if n := testing.AllocsPerRun(50, func() { f.Selector() }); n != 0 {
		t.Errorf("Selector: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { _ = f.Prototype() }); n != 1 {
		t.Errorf("Prototype: %v allocs/run, want 1", n)
	}
}

func TestParsePrototype(t *testing.T) {
	f, err := abi.ParsePrototype("transfer(address,uint256)")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "transfer" || len(f.Params) != 2 || f.Params[1] != "uint256" {
		t.Errorf("parsed = %+v", f)
	}
	noArgs, err := abi.ParsePrototype("pause()")
	if err != nil {
		t.Fatal(err)
	}
	if noArgs.Name != "pause" || len(noArgs.Params) != 0 {
		t.Errorf("parsed = %+v", noArgs)
	}
	for _, bad := range []string{"", "foo", "foo(", "(uint256)", "foo(,)"} {
		if _, err := abi.ParsePrototype(bad); err == nil {
			t.Errorf("ParsePrototype(%q) should fail", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	protos := []string{
		"f()",
		"balanceOf(address)",
		"swap(uint256,uint256,address,bytes32)",
	}
	for _, proto := range protos {
		f, err := abi.ParsePrototype(proto)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if f.Prototype() != proto {
			t.Errorf("round trip %q -> %q", proto, f.Prototype())
		}
		if f.Selector() != abi.SelectorOf(proto) {
			t.Errorf("%s: selector mismatch", proto)
		}
	}
}

func TestEncodeDecodeCall(t *testing.T) {
	sel := abi.SelectorOf("setValue(uint256)")
	data := abi.EncodeCall(sel, u256.FromUint64(0xbeef))
	if len(data) != 36 {
		t.Fatalf("call data length = %d", len(data))
	}
	gotSel, ok := abi.DecodeSelector(data)
	if !ok || gotSel != sel {
		t.Errorf("decoded selector = %x", gotSel)
	}
	if got := abi.Word(data, 0); got.Uint64() != 0xbeef {
		t.Errorf("arg 0 = %s", got)
	}
	if got := abi.Word(data, 1); !got.IsZero() {
		t.Errorf("out-of-range arg = %s, want 0", got)
	}
	if _, ok := abi.DecodeSelector([]byte{1, 2}); ok {
		t.Error("short call data decoded")
	}
}

func TestWordPartial(t *testing.T) {
	// Call data cut mid-word must still decode with zero padding on the
	// right (EVM CALLDATALOAD semantics).
	sel := abi.SelectorOf("f(uint256)")
	full := abi.EncodeCall(sel, u256.MustHex("0xff00000000000000000000000000000000000000000000000000000000000000"))
	cut := full[:4+1] // selector + 1 byte of the arg
	if got := abi.Word(cut, 0); got.Bytes32()[0] != 0xff {
		t.Errorf("partial word = %s", got)
	}
}
