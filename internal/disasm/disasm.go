// Package disasm disassembles EVM bytecode into instructions and basic
// blocks, and implements the static pattern analyses Proxion builds on:
// DELEGATECALL presence filtering (Section 4.1), PUSH4 selector-candidate
// scanning used to craft non-colliding call data (Section 4.2), dispatcher
// pattern matching for bytecode-level function-signature extraction
// (Section 5.1), and the EIP-1167 minimal-proxy matcher (Section 4.3).
package disasm

import (
	"fmt"
	"strings"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// Instruction is one decoded opcode. It holds no pointer: the immediate of
// a PUSHn (Op.PushSize() bytes) is read from the disassembled code through
// Imm or Value.
type Instruction struct {
	PC uint64
	Op evm.Op
}

// Imm returns the immediate of a PUSH1..PUSH32 in code, nil for any other
// op. A whole immediate is a read-only view of code (capacity-limited, so
// an append copies) — writing through it would patch the bytecode; one cut
// short by the end of code is a zero-padded copy.
func (ins Instruction) Imm(code []byte) []byte {
	n := ins.Op.PushSize()
	if n == 0 {
		return nil
	}
	start, end := int(ins.PC)+1, int(ins.PC)+1+n
	if end <= len(code) {
		return code[start:end:end]
	}
	imm := make([]byte, n)
	copy(imm, code[min(start, len(code)):])
	return imm
}

// Value returns the immediate of a PUSH1..PUSH32 in code as a word, zero for
// any other op; a PUSH cut short by the end of code reads zero-padded, as
// the interpreter reads it.
func (ins Instruction) Value(code []byte) u256.Int {
	n := ins.Op.PushSize()
	if n == 0 {
		return u256.Zero()
	}
	start := int(ins.PC) + 1
	var buf [32]byte
	copy(buf[32-n:], code[min(start, len(code)):min(start+n, len(code))])
	return u256.FromBytes32(buf)
}

// String formats the instruction like "001F PUSH4"; Format adds the
// immediates.
func (ins Instruction) String() string {
	return fmt.Sprintf("%04X %s", ins.PC, ins.Op)
}

// Disassemble decodes code into a linear instruction stream. Truncated
// trailing PUSH immediates read zero-padded, matching interpreter behaviour.
// Undefined opcode bytes decode as single-byte instructions so that data
// trailers (e.g. Solidity metadata) do not derail the stream.
func Disassemble(code []byte) []Instruction {
	instrs := make([]Instruction, 0, evm.InstrCount(code))
	for pc := 0; pc < len(code); {
		op := evm.Op(code[pc])
		instrs = append(instrs, Instruction{PC: uint64(pc), Op: op})
		pc += 1 + op.PushSize()
	}
	return instrs
}

// Format renders a human-readable listing of the disassembly.
func Format(code []byte) string {
	var b strings.Builder
	for _, ins := range Disassemble(code) {
		b.WriteString(ins.String())
		if imm := ins.Imm(code); len(imm) > 0 {
			fmt.Fprintf(&b, " 0x%x", imm)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ContainsOp reports whether the decoded instruction stream contains op.
// This respects PUSH immediates: an 0xF4 byte inside push data does not
// count as DELEGATECALL, unlike a raw byte scan.
func ContainsOp(code []byte, op evm.Op) bool {
	for pc := 0; pc < len(code); {
		cur := evm.Op(code[pc])
		if cur == op {
			return true
		}
		pc += 1 + cur.PushSize()
	}
	return false
}

// Scan is what one pass over the instruction boundaries of a bytecode
// learns about it, without materialising an instruction stream: the facts
// the analyzer asks of every bytecode it probes or pairs.
type Scan struct {
	// Push4 is Push4Candidates(code).
	Push4 [][4]byte
	// Selectors is DispatcherSelectors(code).
	Selectors [][4]byte
	// StorageOps reports that an SLOAD or SSTORE instruction exists.
	StorageOps bool
}

// ScanCode makes that one pass. Both lists keep first-seen order.
func ScanCode(code []byte) Scan {
	// The lists are short (a contract's functions plus a few constants):
	// collect on the stack, de-duplicate by looking, copy out once.
	var push4Buf, selBuf [32][4]byte
	push4, sels := push4Buf[:0], selBuf[:0]
	storageOps := false
	for pc := 0; pc < len(code); {
		op := evm.Op(code[pc])
		switch op {
		case evm.PUSH4:
			// Cut short by the end of code, the immediate reads zero-padded,
			// as the interpreter and Disassemble read it.
			var sel [4]byte
			copy(sel[:], code[pc+1:])
			push4 = appendDistinct(push4, sel)
			if _, _, ok := dispatcherJump(code, pc+5); ok {
				sels = appendDistinct(sels, sel)
			}
		case evm.SLOAD, evm.SSTORE:
			storageOps = true
		}
		pc += 1 + op.PushSize()
	}
	return Scan{Push4: copyOut(push4), Selectors: copyOut(sels), StorageOps: storageOps}
}

func appendDistinct(list [][4]byte, sel [4]byte) [][4]byte {
	for _, have := range list {
		if have == sel {
			return list
		}
	}
	return append(list, sel)
}

// copyOut moves a scratch list to the heap at its exact size (nil if empty).
func copyOut(list [][4]byte) [][4]byte {
	if len(list) == 0 {
		return nil
	}
	return append(make([][4]byte, 0, len(list)), list...)
}

// Push4Candidates returns every distinct 4-byte immediate following a PUSH4
// opcode. Not all of these are function selectors (arbitrary constants also
// use PUSH4) — Proxion uses this over-approximation to pick call data that
// avoids every candidate (Section 4.2).
func Push4Candidates(code []byte) [][4]byte { return ScanCode(code).Push4 }

// DispatcherSelectors extracts the 4-byte function signatures that the
// contract's selector dispatcher compares against. It matches the code
// shape emitted by Solidity and Vyper:
//
//	DUP1; PUSH4 <sig>; EQ; PUSH2 <dest>; JUMPI
//
// tolerating the common variations (operands swapped, GT/LT split search
// trees omitted, an extra DUP/SWAP between EQ and the jump push). A PUSH4
// whose value never feeds an EQ+JUMPI comparison is treated as data, which
// is what lets this analysis avoid the false positives of the naive
// any-PUSH4 approach (Section 3.1).
func DispatcherSelectors(code []byte) [][4]byte { return ScanCode(code).Selectors }

// DispatcherTargets maps each dispatcher-compared selector to the code
// offset its JUMPI branches to — the entry point of the function's body.
// This is how per-function analyses (e.g. attributing storage accesses to
// the function that performs them) segment bytecode without source.
func DispatcherTargets(code []byte) map[[4]byte]uint64 {
	out := make(map[[4]byte]uint64)
	for pc := 0; pc < len(code); {
		op := evm.Op(code[pc])
		if op == evm.PUSH4 {
			if target, pushed, ok := dispatcherJump(code, pc+5); ok && pushed {
				var sel [4]byte
				copy(sel[:], code[pc+1:])
				if _, dup := out[sel]; !dup {
					out[sel] = target
				}
			}
		}
		pc += 1 + op.PushSize()
	}
	return out
}

// dispatcherJump reports whether the instructions from pc on — what follows
// a PUSH4 — compare (EQ, or SUB used as an inequality test) and reach a
// JUMPI within a small window; stack-neutral shuffles (DUPn, SWAPn),
// polarity flips (ISZERO) and the jump-target push are allowed in between,
// anything else is not a dispatcher entry. target is the value of the last
// PUSH before the JUMPI, if one was pushed.
func dispatcherJump(code []byte, pc int) (target uint64, pushed, ok bool) {
	const window = 6
	sawCompare := false
	for n := 0; n < window && pc < len(code); n++ {
		op := evm.Op(code[pc])
		size := op.PushSize()
		switch {
		case op == evm.EQ || op == evm.SUB:
			sawCompare = true
		case op == evm.JUMPI:
			return target, pushed, sawCompare
		case op.IsDup() || op.IsSwap() || op == evm.ISZERO:
		case size > 0:
			// A push cut short by the end of code has no JUMPI after it,
			// so only whole immediates are ever returned.
			target, pushed = 0, true
			for _, b := range code[pc+1 : min(pc+1+size, len(code))] {
				target = target<<8 | uint64(b)
			}
		default:
			return 0, false, false
		}
		pc += 1 + size
	}
	return 0, false, false
}

// minimalProxyPrefix and minimalProxySuffix frame the EIP-1167 runtime:
// 363d3d373d3d3d363d73 <address> 5af43d82803e903d91602b57fd5bf3.
var (
	minimalProxyPrefix = []byte{
		0x36, 0x3d, 0x3d, 0x37, 0x3d, 0x3d, 0x3d, 0x36, 0x3d, 0x73,
	}
	minimalProxySuffix = []byte{
		0x5a, 0xf4, 0x3d, 0x82, 0x80, 0x3e, 0x90, 0x3d, 0x91, 0x60,
		0x2b, 0x57, 0xfd, 0x5b, 0xf3,
	}
)

// MinimalProxyRuntime builds the canonical EIP-1167 runtime bytecode
// delegating to target.
func MinimalProxyRuntime(target etypes.Address) []byte {
	out := make([]byte, 0, len(minimalProxyPrefix)+20+len(minimalProxySuffix))
	out = append(out, minimalProxyPrefix...)
	out = append(out, target[:]...)
	out = append(out, minimalProxySuffix...)
	return out
}

// MinimalProxyTarget reports whether code is an EIP-1167 minimal proxy and,
// if so, the hard-coded logic contract address.
func MinimalProxyTarget(code []byte) (etypes.Address, bool) {
	want := len(minimalProxyPrefix) + 20 + len(minimalProxySuffix)
	if len(code) != want {
		return etypes.Address{}, false
	}
	for i, b := range minimalProxyPrefix {
		if code[i] != b {
			return etypes.Address{}, false
		}
	}
	for i, b := range minimalProxySuffix {
		if code[len(minimalProxyPrefix)+20+i] != b {
			return etypes.Address{}, false
		}
	}
	return etypes.BytesToAddress(code[len(minimalProxyPrefix) : len(minimalProxyPrefix)+20]), true
}
