package evm

import "fmt"

// Op is a single EVM opcode byte.
type Op byte

// Opcode values through the Shanghai fork.
const (
	STOP       Op = 0x00
	ADD        Op = 0x01
	MUL        Op = 0x02
	SUB        Op = 0x03
	DIV        Op = 0x04
	SDIV       Op = 0x05
	MOD        Op = 0x06
	SMOD       Op = 0x07
	ADDMOD     Op = 0x08
	MULMOD     Op = 0x09
	EXP        Op = 0x0a
	SIGNEXTEND Op = 0x0b

	LT     Op = 0x10
	GT     Op = 0x11
	SLT    Op = 0x12
	SGT    Op = 0x13
	EQ     Op = 0x14
	ISZERO Op = 0x15
	AND    Op = 0x16
	OR     Op = 0x17
	XOR    Op = 0x18
	NOT    Op = 0x19
	BYTE   Op = 0x1a
	SHL    Op = 0x1b
	SHR    Op = 0x1c
	SAR    Op = 0x1d

	KECCAK256 Op = 0x20

	ADDRESS        Op = 0x30
	BALANCE        Op = 0x31
	ORIGIN         Op = 0x32
	CALLER         Op = 0x33
	CALLVALUE      Op = 0x34
	CALLDATALOAD   Op = 0x35
	CALLDATASIZE   Op = 0x36
	CALLDATACOPY   Op = 0x37
	CODESIZE       Op = 0x38
	CODECOPY       Op = 0x39
	GASPRICE       Op = 0x3a
	EXTCODESIZE    Op = 0x3b
	EXTCODECOPY    Op = 0x3c
	RETURNDATASIZE Op = 0x3d
	RETURNDATACOPY Op = 0x3e
	EXTCODEHASH    Op = 0x3f

	BLOCKHASH   Op = 0x40
	COINBASE    Op = 0x41
	TIMESTAMP   Op = 0x42
	NUMBER      Op = 0x43
	DIFFICULTY  Op = 0x44 // PREVRANDAO post-merge; the byte is the same
	GASLIMIT    Op = 0x45
	CHAINID     Op = 0x46
	SELFBALANCE Op = 0x47
	BASEFEE     Op = 0x48

	POP      Op = 0x50
	MLOAD    Op = 0x51
	MSTORE   Op = 0x52
	MSTORE8  Op = 0x53
	SLOAD    Op = 0x54
	SSTORE   Op = 0x55
	JUMP     Op = 0x56
	JUMPI    Op = 0x57
	PC       Op = 0x58
	MSIZE    Op = 0x59
	GAS      Op = 0x5a
	JUMPDEST Op = 0x5b
	PUSH0    Op = 0x5f

	PUSH1  Op = 0x60
	PUSH2  Op = 0x61
	PUSH3  Op = 0x62
	PUSH4  Op = 0x63
	PUSH5  Op = 0x64
	PUSH8  Op = 0x67
	PUSH20 Op = 0x73
	PUSH32 Op = 0x7f

	DUP1  Op = 0x80
	DUP16 Op = 0x8f

	SWAP1  Op = 0x90
	SWAP16 Op = 0x9f

	LOG0 Op = 0xa0
	LOG4 Op = 0xa4

	CREATE       Op = 0xf0
	CALL         Op = 0xf1
	CALLCODE     Op = 0xf2
	RETURN       Op = 0xf3
	DELEGATECALL Op = 0xf4
	CREATE2      Op = 0xf5
	STATICCALL   Op = 0xfa
	REVERT       Op = 0xfd
	INVALID      Op = 0xfe
	SELFDESTRUCT Op = 0xff
)

// IsPush reports whether op is PUSH1..PUSH32 (PUSH0 carries no immediate).
func (op Op) IsPush() bool { return op >= PUSH1 && op <= PUSH32 }

// PushSize returns the number of immediate bytes following a PUSH opcode
// (zero for non-push opcodes and PUSH0).
func (op Op) PushSize() int {
	if op.IsPush() {
		return int(op-PUSH1) + 1
	}
	return 0
}

// InstrCount returns the number of instructions a linear decode of code
// yields, a PUSH truncated by the end of code counting as one — what a
// decoder needs to size its output exactly.
func InstrCount(code []byte) int {
	n := 0
	for pc := 0; pc < len(code); n++ {
		pc += 1 + Op(code[pc]).PushSize()
	}
	return n
}

// IsDup reports whether op is DUP1..DUP16.
func (op Op) IsDup() bool { return op >= DUP1 && op <= DUP16 }

// IsSwap reports whether op is SWAP1..SWAP16.
func (op Op) IsSwap() bool { return op >= SWAP1 && op <= SWAP16 }

// IsLog reports whether op is LOG0..LOG4.
func (op Op) IsLog() bool { return op >= LOG0 && op <= LOG4 }

// opNames maps defined opcodes to their mnemonics.
var opNames = map[Op]string{
	STOP: "STOP", ADD: "ADD", MUL: "MUL", SUB: "SUB", DIV: "DIV",
	SDIV: "SDIV", MOD: "MOD", SMOD: "SMOD", ADDMOD: "ADDMOD",
	MULMOD: "MULMOD", EXP: "EXP", SIGNEXTEND: "SIGNEXTEND",
	LT: "LT", GT: "GT", SLT: "SLT", SGT: "SGT", EQ: "EQ", ISZERO: "ISZERO",
	AND: "AND", OR: "OR", XOR: "XOR", NOT: "NOT", BYTE: "BYTE",
	SHL: "SHL", SHR: "SHR", SAR: "SAR",
	KECCAK256: "KECCAK256",
	ADDRESS:   "ADDRESS", BALANCE: "BALANCE", ORIGIN: "ORIGIN",
	CALLER: "CALLER", CALLVALUE: "CALLVALUE", CALLDATALOAD: "CALLDATALOAD",
	CALLDATASIZE: "CALLDATASIZE", CALLDATACOPY: "CALLDATACOPY",
	CODESIZE: "CODESIZE", CODECOPY: "CODECOPY", GASPRICE: "GASPRICE",
	EXTCODESIZE: "EXTCODESIZE", EXTCODECOPY: "EXTCODECOPY",
	RETURNDATASIZE: "RETURNDATASIZE", RETURNDATACOPY: "RETURNDATACOPY",
	EXTCODEHASH: "EXTCODEHASH",
	BLOCKHASH:   "BLOCKHASH", COINBASE: "COINBASE", TIMESTAMP: "TIMESTAMP",
	NUMBER: "NUMBER", DIFFICULTY: "DIFFICULTY", GASLIMIT: "GASLIMIT",
	CHAINID: "CHAINID", SELFBALANCE: "SELFBALANCE", BASEFEE: "BASEFEE",
	POP: "POP", MLOAD: "MLOAD", MSTORE: "MSTORE", MSTORE8: "MSTORE8",
	SLOAD: "SLOAD", SSTORE: "SSTORE", JUMP: "JUMP", JUMPI: "JUMPI",
	PC: "PC", MSIZE: "MSIZE", GAS: "GAS", JUMPDEST: "JUMPDEST", PUSH0: "PUSH0",
	CREATE: "CREATE", CALL: "CALL", CALLCODE: "CALLCODE", RETURN: "RETURN",
	DELEGATECALL: "DELEGATECALL", CREATE2: "CREATE2", STATICCALL: "STATICCALL",
	REVERT: "REVERT", INVALID: "INVALID", SELFDESTRUCT: "SELFDESTRUCT",
}

// String returns the mnemonic for op, e.g. "PUSH4" or "DUP2".
func (op Op) String() string {
	switch {
	case op.IsPush():
		return fmt.Sprintf("PUSH%d", op.PushSize())
	case op.IsDup():
		return fmt.Sprintf("DUP%d", int(op-DUP1)+1)
	case op.IsSwap():
		return fmt.Sprintf("SWAP%d", int(op-SWAP1)+1)
	case op.IsLog():
		return fmt.Sprintf("LOG%d", int(op-LOG0))
	}
	if name, ok := opNames[op]; ok {
		return name
	}
	return fmt.Sprintf("UNDEFINED(0x%02x)", byte(op))
}

// Defined reports whether op is a defined opcode in this EVM revision.
func (op Op) Defined() bool {
	if op.IsPush() || op.IsDup() || op.IsSwap() || op.IsLog() {
		return true
	}
	_, ok := opNames[op]
	return ok
}
