package evm

import "testing"

func TestOpcodeStringAndParsing(t *testing.T) {
	cases := []struct {
		op   Op
		name string
	}{
		{DELEGATECALL, "DELEGATECALL"},
		{PUSH4, "PUSH4"},
		{PUSH0, "PUSH0"},
		{DUP1 + 6, "DUP7"},
		{SWAP1 + 15, "SWAP16"},
		{LOG0 + 2, "LOG2"},
		{KECCAK256, "KECCAK256"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.name {
			t.Errorf("String(%02x) = %q, want %q", byte(c.op), got, c.name)
		}
	}

	// Round trip: every defined opcode has a mnemonic no other opcode
	// shares, and each of opNames' entries is the one String prints.
	byName := make(map[string]Op)
	for i := 0; i < 256; i++ {
		op := Op(i)
		if !op.Defined() {
			continue
		}
		name := op.String()
		if prev, dup := byName[name]; dup {
			t.Errorf("%02x and %02x are both %q", byte(prev), byte(op), name)
		}
		byName[name] = op
	}
	for op, name := range opNames {
		if back, ok := byName[name]; !ok || back != op {
			t.Errorf("opNames[%02x] = %q resolves to %02x (defined %v)", byte(op), name, byte(back), ok)
		}
	}
	if len(byName) < len(opNames)+32+16+16+5 {
		t.Errorf("%d defined mnemonics, want opNames' %d plus the PUSH/DUP/SWAP/LOG families", len(byName), len(opNames))
	}

	if Op(0xef).Defined() {
		t.Error("0xef should be undefined")
	}
	if got := Op(0xef).String(); got != "UNDEFINED(0xef)" {
		t.Errorf("undefined opcode string = %q", got)
	}
}
