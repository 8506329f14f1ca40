package evm

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/etypes"
	"repro/internal/lru"
	"repro/internal/u256"
)

// This file implements the pre-decoded instruction stream the fast
// interpreter executes. One pass over the code bytes writes a []instr with
// per-op stack requirements and constant gas copied from a per-opcode
// template, PUSH immediates held in the instruction as a small word or an
// index into a per-program side table of words, a pc → instruction-index
// jump table replacing the lazy JUMPDEST map, and — for untraced runs —
// fused superinstructions for the Solidity dispatcher idiom. Programs are
// cached per code hash so landscape-scale probing decodes each distinct
// bytecode once.

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

// instr is one pre-decoded instruction, 32 bytes. For fused kinds the stack
// and gas fields hold the folded requirements of the whole component
// sequence: need is the minimum entry depth at which no component
// underflows, and peak is the worst-case depth delta such that entry depth
// + peak never exceeds stackLimit mid-sequence. Both are exact (derived per
// component against the running net stack delta), so the fast
// preconditions accept iff every component would pass the reference loop's
// per-op checks.
type instr struct {
	// imm is, for kindPush, kindPushJump and kindPushJumpI, the pushed word
	// in the form program.word reads: the word itself when it is a small
	// word, else len(smallWords) + its index in program.words. For
	// kindDispatch and kindDupPushJumpI it is the dest PUSH's value, which
	// fits a uint64 by construction: the jump-target pc the fallback replay
	// re-pushes.
	imm    uint64
	sel    uint32 // the PUSH4 selector of kindDispatch
	dest   int32  // resolved jump-target instruction index; -1 = invalid
	pc     uint32 // source pc of the first component opcode
	kind   uint16
	gas    uint16 // folded constant gas (dynamic parts charged in the body)
	need   uint16 // minimum stack depth required on entry
	peak   int16  // overflow check: fail if depth+peak > stackLimit
	op     Op     // first component opcode (tracing, fallback replay)
	destOp Op     // dest PUSH opcode of a fused sequence (fallback replay)
	n      uint8  // dup/swap distance, log topic count, or push width
	steps  uint8  // source instructions folded into this instr
}

// program is a decoded bytecode ready for the fast loop. It is held by
// value — in the cache and in the frame running it — so that a decode
// allocates only what it points at; copies share those arrays, which are
// never written after decode.
type program struct {
	instrs []instr
	// words holds, in program order, the pushed words that are not small
	// words — every PUSH9..PUSH32 immediate, and the PUSH1..PUSH8 ones of
	// 256 and up.
	words []u256.Int
	// jumpIdx maps a pc to 1 + the instruction index of a JUMPDEST there,
	// and anything else to 0, so the table needs no fill.
	jumpIdx []int32
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
	return p.jumpIdx[pc] - 1
}

// smallWords are the words 0..255, most of what a PUSH pushes. A push
// copies a word built beforehand — from here or from program.words — rather
// than building it from a uint64: the mixed-width stores that would take
// stall the next instruction's 16-byte load of the stack slot.
var smallWords = func() (t [256]u256.Int) {
	for i := range t {
		t[i] = u256.FromUint64(uint64(i))
	}
	return t
}()

// word returns where the word instr.imm of kindPush, kindPushJump or
// kindPushJumpI stands for is held, for the caller to copy.
func (p *program) word(imm uint64) *u256.Int {
	if imm < uint64(len(smallWords)) {
		return &smallWords[imm]
	}
	return &p.words[imm-uint64(len(smallWords))]
}

// isPushLike reports ops that push a known immediate (PUSH0..PUSH32).
func isPushLike(op Op) bool { return op == PUSH0 || op.IsPush() }

// opTemplate is, per opcode byte, the instr a plain occurrence of it
// decodes to, less its pc and immediate.
var opTemplate = func() (t [256]instr) {
	for i := range t {
		op := Op(i)
		in := instr{op: op, steps: 1, dest: -1}
		switch {
		case !op.Defined() || op == INVALID:
			in.kind = kindInvalid
			t[i] = in
			continue
		case isPushLike(op):
			in.kind = kindPush
			in.n = uint8(op.PushSize())
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
		t[i] = in
	}
	return t
}()

// decode pre-decodes code into a program. When fuse is set, superinstructions
// are matched as the pass goes; traced executions use unfused programs so
// tracers observe every source instruction at its original pc.
func decode(code []byte, fuse bool) program {
	p := program{
		// Exact unfused; fusion only shortens the stream.
		instrs:  make([]instr, 0, InstrCount(code)),
		jumpIdx: make([]int32, len(code)),
		codeLen: uint64(len(code)),
		fused:   fuse,
	}

	// One pass over the code. Fused components other than the first are
	// never JUMPDESTs (JUMPDEST is never a component), so no jump can land
	// mid-sequence.
	words := 0
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		if fuse {
			if in, next, ok := fuseAt(code, pc, &words); ok {
				p.instrs = append(p.instrs, in)
				pc = next
				continue
			}
		}
		in := opTemplate[op]
		in.pc = uint32(pc)
		if op.IsPush() {
			in.imm = pushImm(code, pc, op, &words)
		} else if op == JUMPDEST {
			p.jumpIdx[pc] = int32(len(p.instrs)) + 1
		}
		p.instrs = append(p.instrs, in)
		pc += 1 + op.PushSize()
	}

	// One pass over the instructions: store the words counted, at their
	// final size, and resolve the constant jump targets of fused
	// instructions now that the JUMPDEST index is complete.
	if words > 0 {
		p.words = make([]u256.Int, 0, words)
	}
	for i := range p.instrs {
		in := &p.instrs[i]
		switch in.kind {
		case kindPush, kindPushJump, kindPushJumpI:
			// The first component is the PUSH whose word imm stands for.
			if in.imm >= uint64(len(smallWords)) {
				p.words = append(p.words, pushWord(code, int(in.pc), in.op))
			}
			if in.kind != kindPush {
				in.dest = p.jumpTo(*p.word(in.imm))
			}
		case kindDispatch, kindDupPushJumpI:
			in.dest = p.jumpTo(u256.FromUint64(in.imm))
		}
	}
	return p
}

// pushImm returns the instr.imm of the PUSH-like op at pc. A word that is
// not small takes the next index of program.words, counted in *words; the
// word itself is stored once the count is final.
func pushImm(code []byte, pc int, op Op, words *int) uint64 {
	if op <= PUSH8 {
		if v := narrowImm(code, pc, op.PushSize()); v < uint64(len(smallWords)) {
			return v
		}
	}
	*words++
	return uint64(len(smallWords) + *words - 1)
}

// narrowImm reads the 0..8 immediate bytes after the PUSH at pc. A PUSH cut
// short by the end of code pads with trailing zero bytes, same as the
// reference loop's copy-into-fresh-buffer semantics.
func narrowImm(code []byte, pc, n int) uint64 {
	if pc+9 <= len(code) {
		return binary.BigEndian.Uint64(code[pc+1:pc+9]) >> (64 - 8*n)
	}
	var v uint64
	for i := pc + 1; i <= pc+n; i++ {
		v <<= 8
		if i < len(code) {
			v |= uint64(code[i])
		}
	}
	return v
}

// pushWord reads the immediate of the PUSH-like op at pc as a word,
// zero-padded on the right past the end of code.
func pushWord(code []byte, pc int, op Op) u256.Int {
	n := op.PushSize()
	var buf [32]byte
	copy(buf[32-n:], code[min(pc+1, len(code)):min(pc+1+n, len(code))])
	return u256.FromBytes32(buf)
}

// destImm returns the value of the PUSH-like op at pc when it fits a
// uint64 — the condition for a dispatch or dup dest the fallback replay
// re-pushes from instr.imm.
func destImm(code []byte, pc int, op Op) (uint64, bool) {
	w := pushWord(code, pc, op)
	return w.Uint64(), w.IsUint64()
}

// fuseAt matches a superinstruction starting at pc and returns it with the
// pc after its last component. Longer patterns are matched first. The dest
// PUSH of dispatch/dup patterns must fit uint64 so the fallback replay can
// re-push it; wider immediates (never valid jump targets anyway) simply
// decline fusion. Reading ops past a PUSH cut short by the end of code
// finds none, as that PUSH is the last instruction. words counts as in
// pushImm.
func fuseAt(code []byte, pc int, words *int) (instr, int, bool) {
	op0 := Op(code[pc])
	if !isPushLike(op0) && !op0.IsDup() && !op0.IsSwap() {
		return instr{}, 0, false
	}
	pc1 := pc + 1 + op0.PushSize()
	if pc1 >= len(code) {
		return instr{}, 0, false
	}
	op1 := Op(code[pc1])
	pc2 := pc1 + 1 + op1.PushSize()
	opAt := func(pc int) Op {
		if pc < len(code) {
			return Op(code[pc])
		}
		return STOP // never a component a pattern asks for
	}

	switch {
	case op0.IsSwap():
		// SWAPn; POP — the discard-below-top idiom stack schedulers emit.
		if op1 != POP {
			return instr{}, 0, false
		}
		in := fold(kindSwapPop, pc, op0, POP)
		in.n = uint8(op0-SWAP1) + 1
		return in, pc2, true

	case op0.IsDup():
		// DUPn; PUSHn dest; JUMPI — the duplicated-condition branch.
		if !isPushLike(op1) || opAt(pc2) != JUMPI {
			return instr{}, 0, false
		}
		dest, ok := destImm(code, pc1, op1)
		if !ok {
			return instr{}, 0, false
		}
		in := fold(kindDupPushJumpI, pc, op0, op1, JUMPI)
		in.n = uint8(op0-DUP1) + 1
		in.destOp, in.imm = op1, dest
		return in, pc2 + 1, true
	}

	// PUSH4 sel; EQ; PUSHn dest; JUMPI — the Solidity selector dispatcher.
	if op0 == PUSH4 && op1 == EQ && pc2 < len(code) {
		op2 := Op(code[pc2])
		pc3 := pc2 + 1 + op2.PushSize()
		if isPushLike(op2) && opAt(pc3) == JUMPI {
			if dest, ok := destImm(code, pc2, op2); ok {
				in := fold(kindDispatch, pc, PUSH4, EQ, op2, JUMPI)
				in.sel = uint32(narrowImm(code, pc, 4))
				in.destOp, in.imm = op2, dest
				return in, pc3 + 1, true
			}
		}
	}
	// PUSHn dest; JUMP / JUMPI — the static branch.
	var kind uint16
	switch op1 {
	case JUMP:
		kind = kindPushJump
	case JUMPI:
		kind = kindPushJumpI
	default:
		return instr{}, 0, false
	}
	in := fold(kind, pc, op0, op1)
	in.imm = pushImm(code, pc, op0, words)
	return in, pc2, true
}

// fold builds the fused instr of the given kind from its component opcodes.
// need/peak are computed exactly from the components' templates: tracking
// the net stack delta before each component, need = max(pops_i - net_i)
// and peak = max(net_i + pushes_i - pops_i), which reproduces the reference
// loop's underflow and overflow checks at every component for every entry
// depth.
func fold(kind uint16, pc int, ops ...Op) instr {
	net, need, peak, gas := 0, 0, -len(ops), 0
	for _, op := range ops {
		t := &opTemplate[op]
		need = max(need, int(t.need)-net)
		peak = max(peak, net+int(t.peak))
		net += int(t.peak)
		gas += int(t.gas)
	}
	return instr{
		kind:  kind,
		pc:    uint32(pc),
		op:    ops[0],
		steps: uint8(len(ops)),
		dest:  -1,
		need:  uint16(need),
		peak:  int16(peak),
		gas:   uint16(gas),
	}
}

// progKey identifies a cached program: the code hash plus whether the
// fusion pass ran (traced executions need unfused programs).
type progKey struct {
	hash  etypes.Hash
	fused bool
}

// progCacheCap bounds the global decode cache. At ~2k distinct bytecodes
// per generated landscape shard this comfortably holds a working set; past
// it the least recently used program goes (the cache is a pure
// memoization, so eviction only costs a re-decode).
const progCacheCap = 4096

// progCacheState is one generation of the decode cache; ResetDecodeCache
// swaps in a fresh one, counters included.
type progCacheState struct {
	programs     *lru.Cache[progKey, program]
	hits, misses atomic.Uint64
}

var progCache atomic.Pointer[progCacheState]

func init() { ResetDecodeCache() }

// programFor returns the decoded program for code, cached per code hash;
// empty code has the empty program. A zero hash (a StateDB that does not
// track code hashes, or init code that has no account yet) skips the cache
// entirely.
func programFor(hash etypes.Hash, code []byte, fused bool) program {
	if len(code) == 0 {
		return program{}
	}
	if hash == (etypes.Hash{}) {
		return decode(code, fused)
	}
	c := progCache.Load()
	key := progKey{hash: hash, fused: fused}
	if p, ok := c.programs.Get(key); ok && p.codeLen == uint64(len(code)) {
		c.hits.Add(1)
		return p
	}
	c.misses.Add(1)
	// Decode outside the cache's lock; a concurrent decode of the same
	// code that was added first stays, and either program serves.
	p := decode(code, fused)
	c.programs.Add(key, p)
	return p
}

// DecodeCacheStats reports hit/miss counters of the global program cache.
func DecodeCacheStats() (hits, misses uint64, entries int) {
	c := progCache.Load()
	return c.hits.Load(), c.misses.Load(), c.programs.Len()
}

// ResetDecodeCache empties the global program cache (tests, ablations).
func ResetDecodeCache() {
	progCache.Store(&progCacheState{programs: lru.New[progKey, program](progCacheCap)})
}
