package evm

import (
	"fmt"

	"repro/internal/u256"
)

// The decoder as it was before the single-pass, 32-byte form: a first pass
// into rawInstr scratch with every immediate materialised as a u256.Int, a
// second pass emitting 64-byte refInstrs, a third resolving fused jumps.
// It is the oracle TestDecodeMatchesReference and FuzzDecode hold decode
// against; nothing else calls it.

type refInstr struct {
	imm    u256.Int
	destPc uint64
	dest   int32
	pc     uint32
	kind   uint16
	gas    uint16
	need   uint16
	peak   int16
	op     Op
	destOp Op
	n      uint8
	steps  uint8
}

type refProgram struct {
	instrs  []refInstr
	jumpIdx []int32 // pc → instruction index of a JUMPDEST there, else -1
	codeLen uint64
}

func (p *refProgram) jumpTo(dest u256.Int) int32 {
	if !dest.IsUint64() {
		return -1
	}
	pc := dest.Uint64()
	if pc >= uint64(len(p.jumpIdx)) {
		return -1
	}
	return p.jumpIdx[pc]
}

type rawInstr struct {
	op  Op
	pc  uint32
	imm u256.Int
	n   uint8
}

func refDecode(code []byte, fuse bool) *refProgram {
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
	for i := 0; i < len(raws); {
		if fuse {
			if in, consumed := refTryFuse(raws, i); consumed > 0 {
				p.instrs = append(p.instrs, in)
				i += consumed
				continue
			}
		}
		r := raws[i]
		if r.op == JUMPDEST {
			p.jumpIdx[r.pc] = int32(len(p.instrs))
		}
		p.instrs = append(p.instrs, refPlainInstr(r))
		i++
	}
	for idx := range p.instrs {
		in := &p.instrs[idx]
		switch in.kind {
		case kindPushJump, kindPushJumpI:
			in.dest = p.jumpTo(in.imm)
		case kindDispatch, kindDupPushJumpI:
			in.dest = p.jumpTo(u256.FromUint64(in.destPc))
		}
	}
	return p
}

func refPlainInstr(r rawInstr) refInstr {
	in := refInstr{pc: r.pc, op: r.op, steps: 1, dest: -1}
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

func refTryFuse(raws []rawInstr, i int) (refInstr, int) {
	r0 := raws[i]
	rest := len(raws) - i
	if r0.op == PUSH4 && rest >= 4 &&
		raws[i+1].op == EQ && isPushLike(raws[i+2].op) && raws[i+3].op == JUMPI &&
		raws[i+2].imm.IsUint64() {
		return refFuseInstr(kindDispatch, raws[i:i+4], 2), 4
	}
	if r0.op.IsDup() && rest >= 3 &&
		isPushLike(raws[i+1].op) && raws[i+2].op == JUMPI &&
		raws[i+1].imm.IsUint64() {
		in := refFuseInstr(kindDupPushJumpI, raws[i:i+3], 1)
		in.n = uint8(r0.op-DUP1) + 1
		return in, 3
	}
	if isPushLike(r0.op) && rest >= 2 {
		switch raws[i+1].op {
		case JUMP:
			return refFuseInstr(kindPushJump, raws[i:i+2], -1), 2
		case JUMPI:
			return refFuseInstr(kindPushJumpI, raws[i:i+2], -1), 2
		}
	}
	if r0.op.IsSwap() && rest >= 2 && raws[i+1].op == POP {
		in := refFuseInstr(kindSwapPop, raws[i:i+2], -1)
		in.n = uint8(r0.op-SWAP1) + 1
		return in, 2
	}
	return refInstr{}, 0
}

func refFuseInstr(kind uint16, comps []rawInstr, destIdx int) refInstr {
	in := refInstr{
		kind:  kind,
		pc:    comps[0].pc,
		op:    comps[0].op,
		imm:   comps[0].imm,
		steps: uint8(len(comps)),
		dest:  -1,
	}
	if destIdx >= 0 {
		in.destOp = comps[destIdx].op
		in.destPc = comps[destIdx].imm.Uint64()
	}
	var gas uint64
	net, need, peak := 0, 0, -len(comps)
	for _, c := range comps {
		pops, pushes := stackReq(c.op)
		if d := pops - net; d > need {
			need = d
		}
		if d := net + pushes - pops; d > peak {
			peak = d
		}
		net += pushes - pops
		gas += constGas(c.op)
	}
	in.need = uint16(need)
	in.peak = int16(peak)
	in.gas = uint16(gas)
	return in
}

// DiffDecode decodes code both ways, fused and unfused, and describes the
// first difference between the compact program and the reference ("" if
// none). Every field is compared, the immediate and the dispatch/dup dest
// pc through the compact form's accessors, so a fusion the compact form
// declined would show as a kind mismatch. Exported for the external tests,
// which can reach the generators' corpora.
func DiffDecode(code []byte) string {
	for _, fuse := range []bool{true, false} {
		got, want := decode(code, fuse), refDecode(code, fuse)
		if d := diffProgram(&got, want); d != "" {
			return fmt.Sprintf("fused=%v: %s", fuse, d)
		}
	}
	return ""
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
			imm: refImmOf(got, g), destPc: refDestPcOf(g), dest: g.dest, pc: g.pc,
			kind: g.kind, gas: g.gas, need: g.need, peak: g.peak,
			op: g.op, destOp: g.destOp, n: g.n, steps: g.steps,
		}
		if view != w {
			return fmt.Sprintf("instruction %d = %+v, want %+v", i, view, w)
		}
	}
	return ""
}

// refImmOf reads what the reference kept in refInstr.imm: the pushed word
// of a PUSH kind, the selector of a dispatch, zero otherwise.
func refImmOf(p *program, in *instr) u256.Int {
	switch in.kind {
	case kindPush, kindPushJump, kindPushJumpI:
		return *p.word(in.imm)
	case kindDispatch:
		return u256.FromUint64(uint64(in.sel))
	}
	return u256.Zero()
}

// refDestPcOf reads what the reference kept in refInstr.destPc.
func refDestPcOf(in *instr) uint64 {
	switch in.kind {
	case kindDispatch, kindDupPushJumpI:
		return in.imm
	}
	return 0
}
