package evm

import (
	"sync"

	"repro/internal/etypes"
	"repro/internal/u256"
)

// This file implements the pre-decoded instruction stream the fast
// interpreter executes. One decode pass per bytecode produces a []instr
// with PUSH immediates materialized as u256.Int, per-op stack requirements
// and constant gas folded into each instr, a pc → instruction-index jump
// table replacing the lazy JUMPDEST map, and — for untraced runs — fused
// superinstructions for the Solidity dispatcher idiom. Programs are cached
// per code hash so landscape-scale probing decodes each distinct bytecode
// once.

// Instruction kinds. Plain opcodes use uint16(op) directly (0x00–0xff);
// pre-decoded and fused forms live above the opcode space so the run loop
// switches on one dense integer.
const (
	kindInvalid      uint16 = 0x100 + iota // undefined opcode or INVALID
	kindPush                               // PUSH0..PUSH32, immediate materialized
	kindDup                                // DUP1..DUP16
	kindSwap                               // SWAP1..SWAP16
	kindLog                                // LOG0..LOG4
	kindPushJump                           // PUSHn dest; JUMP
	kindPushJumpI                          // PUSHn dest; JUMPI
	kindDispatch                           // PUSH4 sel; EQ; PUSHn dest; JUMPI
	kindDupPushJumpI                       // DUPn; PUSHn dest; JUMPI
	kindSwapPop                            // SWAPn; POP
)

// fusedKindBase is the first fused-superinstruction kind; every kind at or
// above it folds multiple source instructions into one dispatch.
const fusedKindBase = kindPushJump

// instr is one pre-decoded instruction. For fused kinds the stack and gas
// fields hold the folded requirements of the whole component sequence:
// need is the minimum entry depth at which no component underflows, and
// peak is the worst-case depth delta such that entry depth + peak never
// exceeds stackLimit mid-sequence. Both are exact (derived per component
// against the running net stack delta), so the fast preconditions accept
// iff every component would pass the reference loop's per-op checks.
type instr struct {
	imm    u256.Int // PUSH immediate, or the PUSH4 selector for kindDispatch
	destPc uint64   // jump-target pc pushed by the dest PUSH of a fused seq
	dest   int32    // resolved jump-target instruction index; -1 = invalid
	pc     uint32   // source pc of the first component opcode
	kind   uint16
	gas    uint16 // folded constant gas (dynamic parts charged in the body)
	need   uint16 // minimum stack depth required on entry
	peak   int16  // overflow check: fail if depth+peak > stackLimit
	op     Op     // first component opcode (tracing, fallback replay)
	destOp Op     // dest PUSH opcode of a fused sequence (fallback replay)
	n      uint8  // dup/swap distance, log topic count, or push width
	steps  uint8  // source instructions folded into this instr
}

// program is a decoded bytecode ready for the fast loop.
type program struct {
	instrs  []instr
	jumpIdx []int32 // pc → instruction index of a JUMPDEST there, else -1
	codeLen uint64
	fused   bool
}

// jumpTo resolves a dynamic jump destination to an instruction index,
// returning -1 for anything the reference loop's validJumpdest rejects.
func (p *program) jumpTo(dest u256.Int) int32 {
	if !dest.IsUint64() {
		return -1
	}
	pc := dest.Uint64()
	if pc >= uint64(len(p.jumpIdx)) {
		return -1
	}
	return p.jumpIdx[pc]
}

// rawInstr is the first-pass decoding of one source instruction.
type rawInstr struct {
	op  Op
	pc  uint32
	imm u256.Int
	n   uint8 // push width
}

// isPushLike reports ops that push a known immediate (PUSH0..PUSH32).
func isPushLike(op Op) bool { return op == PUSH0 || op.IsPush() }

// decode pre-decodes code into a program. When fuse is set, the
// superinstruction pass runs; traced executions use unfused programs so
// tracers observe every source instruction at its original pc.
func decode(code []byte, fuse bool) *program {
	p := &program{
		jumpIdx: make([]int32, len(code)),
		codeLen: uint64(len(code)),
		fused:   fuse,
	}
	for i := range p.jumpIdx {
		p.jumpIdx[i] = -1
	}

	// Pass 1: linear scan into raw instructions, materializing immediates.
	// A PUSH truncated by end-of-code pads with trailing zero bytes, same
	// as the reference loop's copy-into-fresh-buffer semantics.
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

	// Pass 2: emit instrs, fusing where enabled. Fused components other
	// than the first are never JUMPDESTs (JUMPDEST is never a component),
	// so no jump can land mid-sequence.
	p.instrs = make([]instr, 0, len(raws))
	for i := 0; i < len(raws); {
		if fuse {
			if in, consumed := tryFuse(raws, i); consumed > 0 {
				p.instrs = append(p.instrs, in)
				i += consumed
				continue
			}
		}
		r := raws[i]
		if r.op == JUMPDEST {
			p.jumpIdx[r.pc] = int32(len(p.instrs))
		}
		p.instrs = append(p.instrs, plainInstr(r))
		i++
	}

	// Pass 3: resolve constant jump targets of fused instructions now that
	// the JUMPDEST index is complete.
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

// plainInstr folds one source instruction's static checks into an instr.
func plainInstr(r rawInstr) instr {
	in := instr{pc: r.pc, op: r.op, steps: 1, dest: -1}
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

// tryFuse attempts to fuse a superinstruction starting at raws[i],
// returning the fused instr and the number of source instructions it
// consumed (0 = no fusion). Longer patterns are matched first. The dest
// PUSH of dispatch/dup patterns must fit uint64 so the fallback replay can
// re-push it; wider immediates (never valid jump targets anyway) simply
// decline fusion.
func tryFuse(raws []rawInstr, i int) (instr, int) {
	r0 := raws[i]
	rest := len(raws) - i

	// PUSH4 sel; EQ; PUSHn dest; JUMPI — the Solidity selector dispatcher.
	if r0.op == PUSH4 && rest >= 4 &&
		raws[i+1].op == EQ && isPushLike(raws[i+2].op) && raws[i+3].op == JUMPI &&
		raws[i+2].imm.IsUint64() {
		return fuseInstr(kindDispatch, raws[i:i+4], 2), 4
	}
	// DUPn; PUSHn dest; JUMPI — the duplicated-condition branch.
	if r0.op.IsDup() && rest >= 3 &&
		isPushLike(raws[i+1].op) && raws[i+2].op == JUMPI &&
		raws[i+1].imm.IsUint64() {
		in := fuseInstr(kindDupPushJumpI, raws[i:i+3], 1)
		in.n = uint8(r0.op-DUP1) + 1
		return in, 3
	}
	// PUSHn dest; JUMP / JUMPI — the static branch.
	if isPushLike(r0.op) && rest >= 2 {
		switch raws[i+1].op {
		case JUMP:
			return fuseInstr(kindPushJump, raws[i:i+2], -1), 2
		case JUMPI:
			return fuseInstr(kindPushJumpI, raws[i:i+2], -1), 2
		}
	}
	// SWAPn; POP — the discard-below-top idiom stack schedulers emit.
	if r0.op.IsSwap() && rest >= 2 && raws[i+1].op == POP {
		in := fuseInstr(kindSwapPop, raws[i:i+2], -1)
		in.n = uint8(r0.op-SWAP1) + 1
		return in, 2
	}
	return instr{}, 0
}

// fuseInstr folds the component sequence comps into one instr of the given
// kind. destIdx names the component whose immediate is the jump target pc
// (-1 when the first component's immediate already is, or no dest applies).
// need/peak are computed exactly: tracking the net stack delta before each
// component, need = max(pops_i - net_i) and peak = max(net_i + pushes_i -
// pops_i), which reproduces the reference loop's underflow and overflow
// checks at every component for every entry depth.
func fuseInstr(kind uint16, comps []rawInstr, destIdx int) instr {
	in := instr{
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

// progKey identifies a cached program: the code hash plus whether the
// fusion pass ran (traced executions need unfused programs).
type progKey struct {
	hash  etypes.Hash
	fused bool
}

// progCacheCap bounds the global decode cache. At ~2k distinct bytecodes
// per generated landscape shard this comfortably holds a working set; on
// overflow an arbitrary eighth is evicted (the cache is a pure
// memoization, so eviction only costs a re-decode).
const progCacheCap = 4096

var progCache = struct {
	mu           sync.Mutex
	m            map[progKey]*program
	hits, misses uint64
}{m: make(map[progKey]*program)}

// programFor returns the decoded program for code, cached per code hash.
// A zero hash (a StateDB that does not track code hashes, or init code
// that has no account yet) skips the cache entirely.
func programFor(hash etypes.Hash, code []byte, fused bool) *program {
	if len(code) == 0 {
		return nil
	}
	if hash == (etypes.Hash{}) {
		return decode(code, fused)
	}
	key := progKey{hash: hash, fused: fused}
	progCache.mu.Lock()
	if p, ok := progCache.m[key]; ok && p.codeLen == uint64(len(code)) {
		progCache.hits++
		progCache.mu.Unlock()
		return p
	}
	progCache.misses++
	progCache.mu.Unlock()

	p := decode(code, fused)

	progCache.mu.Lock()
	if len(progCache.m) >= progCacheCap {
		drop := progCacheCap / 8
		for k := range progCache.m {
			delete(progCache.m, k)
			if drop--; drop == 0 {
				break
			}
		}
	}
	progCache.m[key] = p
	progCache.mu.Unlock()
	return p
}

// DecodeCacheStats reports hit/miss counters of the global program cache.
func DecodeCacheStats() (hits, misses uint64, entries int) {
	progCache.mu.Lock()
	defer progCache.mu.Unlock()
	return progCache.hits, progCache.misses, len(progCache.m)
}

// ResetDecodeCache empties the global program cache (tests, ablations).
func ResetDecodeCache() {
	progCache.mu.Lock()
	defer progCache.mu.Unlock()
	progCache.m = make(map[progKey]*program)
	progCache.hits, progCache.misses = 0, 0
}
