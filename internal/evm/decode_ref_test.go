package evm

import (
	"fmt"

	"repro/internal/u256"
)

// The decoder as it was before the single-pass, compact form: a first pass
// into rawInstr scratch with every immediate materialised as a u256.Int and
// a second pass emitting refInstrs that hold the word itself. It is the
// oracle TestDecodeMatchesReference and FuzzDecode hold decode
// against; nothing else calls it.

type refInstr struct {
	imm  u256.Int
	pc   uint32
	kind uint16
	gas  uint16
	need uint16
	peak int16
	op   Op
	n    uint8
}

type refProgram struct {
	instrs  []refInstr
	jumpIdx []int32 // pc → instruction index of a JUMPDEST there, else -1
	codeLen uint64
}

type rawInstr struct {
	op  Op
	pc  uint32
	imm u256.Int
	n   uint8
}

func refDecode(code []byte) *refProgram {
	p := &refProgram{jumpIdx: make([]int32, len(code)), codeLen: uint64(len(code))}
	for i := range p.jumpIdx {
		p.jumpIdx[i] = -1
	}
	raws := make([]rawInstr, 0, InstrCount(code))
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		r := rawInstr{op: op, pc: uint32(pc)}
		if op.IsPush() {
			n := op.PushSize()
			var buf [32]byte
			copy(buf[:n], code[min(pc+1, len(code)):min(pc+1+n, len(code))])
			r.imm = u256.FromBytes(buf[:n])
			r.n = uint8(n)
			pc += 1 + n
		} else {
			pc++
		}
		raws = append(raws, r)
	}
	p.instrs = make([]refInstr, 0, len(raws))
	for _, r := range raws {
		if r.op == JUMPDEST {
			p.jumpIdx[r.pc] = int32(len(p.instrs))
		}
		p.instrs = append(p.instrs, refPlainInstr(r))
	}
	return p
}

func refPlainInstr(r rawInstr) refInstr {
	in := refInstr{pc: r.pc, op: r.op}
	op := r.op
	switch {
	case !op.Defined() || op == INVALID:
		in.kind = kindInvalid
		return in
	case isPushLike(op):
		in.kind = kindPush
		in.imm = r.imm
		in.n = r.n
	case op.IsDup():
		in.kind = kindDup
		in.n = uint8(op-DUP1) + 1
	case op.IsSwap():
		in.kind = kindSwap
		in.n = uint8(op-SWAP1) + 1
	case op.IsLog():
		in.kind = kindLog
		in.n = uint8(op - LOG0)
	default:
		in.kind = uint16(op)
	}
	pops, pushes := stackReq(op)
	in.need = uint16(pops)
	in.peak = int16(pushes - pops)
	in.gas = uint16(constGas(op))
	return in
}

// DiffDecode decodes code both ways and describes the first difference
// between the compact program and the reference ("" if none). Every field
// is compared, the immediate through the compact form's accessor.
// Exported for the external tests, which can reach the generators'
// corpora.
func DiffDecode(code []byte) string {
	got := decode(code)
	return diffProgram(&got, refDecode(code))
}

func diffProgram(got *program, want *refProgram) string {
	if got.codeLen != want.codeLen || len(got.jumpIdx) != len(want.jumpIdx) {
		return fmt.Sprintf("code length %d/%d, want %d/%d", got.codeLen, len(got.jumpIdx), want.codeLen, len(want.jumpIdx))
	}
	for pc := range want.jumpIdx {
		if g := got.jumpIdx[pc] - 1; g != want.jumpIdx[pc] {
			return fmt.Sprintf("jump table at pc %d = %d, want %d", pc, g, want.jumpIdx[pc])
		}
	}
	if len(got.instrs) != len(want.instrs) {
		return fmt.Sprintf("%d instructions, want %d", len(got.instrs), len(want.instrs))
	}
	for i := range want.instrs {
		g, w := &got.instrs[i], want.instrs[i]
		view := refInstr{
			pc: g.pc, kind: g.kind, gas: g.gas, need: g.need, peak: g.peak, op: g.op, n: g.n,
		}
		if g.kind == kindPush {
			view.imm = *got.word(g.imm)
		}
		if view != w {
			return fmt.Sprintf("instruction %d = %+v, want %+v", i, view, w)
		}
	}
	return ""
}
