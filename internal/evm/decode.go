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
// index into a per-program side table of words, and a pc → instruction-index
// jump table replacing the lazy JUMPDEST map. Programs are cached per code
// hash so landscape-scale probing decodes each distinct bytecode once.

// Instruction kinds. Plain opcodes use uint16(op) directly (0x00–0xff);
// pre-decoded forms live above the opcode space so the run loop switches
// on one dense integer.
const (
	kindInvalid uint16 = 0x100 + iota // undefined opcode or INVALID
	kindPush                          // PUSH0..PUSH32, immediate materialized
	kindDup                           // DUP1..DUP16
	kindSwap                          // SWAP1..SWAP16
	kindLog                           // LOG0..LOG4
)

// instr is one pre-decoded instruction, 24 bytes: one source instruction,
// so a tracer sees every step at its original pc.
type instr struct {
	// imm is, for kindPush, the pushed word in the form program.word
	// reads: the word itself when it is a small word, else
	// len(smallWords) + its index in program.words.
	imm  uint64
	pc   uint32 // source pc
	kind uint16
	gas  uint16 // constant gas (dynamic parts charged in the body)
	need uint16 // minimum stack depth required on entry
	peak int16  // overflow check: fail if depth+peak > stackLimit
	op   Op     // source opcode
	n    uint8  // dup/swap distance, log topic count, or push width
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
}

// jumpTo resolves a dynamic jump destination to an instruction index,
// returning -1 for anything but a JUMPDEST outside push data.
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

// word returns where the word instr.imm of kindPush stands for is held,
// for the caller to copy.
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
		in := instr{op: op}
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

// decode pre-decodes code into a program.
func decode(code []byte) program {
	p := program{
		instrs:  make([]instr, 0, InstrCount(code)),
		jumpIdx: make([]int32, len(code)),
		codeLen: uint64(len(code)),
	}

	words := 0
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
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
	// final size.
	if words > 0 {
		p.words = make([]u256.Int, 0, words)
		for i := range p.instrs {
			if in := &p.instrs[i]; in.kind == kindPush && in.imm >= uint64(len(smallWords)) {
				p.words = append(p.words, pushWord(code, int(in.pc), in.op))
			}
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
// short by the end of code pads with trailing zero bytes, as if the code
// went on in zeros.
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

// progCacheCap bounds the global decode cache. At ~2k distinct bytecodes
// per generated landscape shard this comfortably holds a working set; past
// it the least recently used program goes (the cache is a pure
// memoization, so eviction only costs a re-decode).
const progCacheCap = 4096

// progCacheState is one generation of the decode cache; ResetDecodeCache
// swaps in a fresh one, counters included.
type progCacheState struct {
	programs     *lru.Cache[etypes.Hash, program]
	hits, misses atomic.Uint64
}

var progCache atomic.Pointer[progCacheState]

func init() { ResetDecodeCache() }

// programFor returns the decoded program for code, cached per code hash;
// empty code has the empty program. A zero hash (a StateDB that does not
// track code hashes, or init code that has no account yet) skips the cache
// entirely.
func programFor(hash etypes.Hash, code []byte) program {
	if len(code) == 0 {
		return program{}
	}
	if hash == (etypes.Hash{}) {
		return decode(code)
	}
	c := progCache.Load()
	if p, ok := c.programs.Get(hash); ok && p.codeLen == uint64(len(code)) {
		c.hits.Add(1)
		return p
	}
	c.misses.Add(1)
	// Decode outside the cache's lock; a concurrent decode of the same
	// code that was added first stays, and either program serves.
	p := decode(code)
	c.programs.Add(hash, p)
	return p
}

// DecodeCacheStats reports hit/miss counters of the global program cache.
func DecodeCacheStats() (hits, misses uint64, entries int) {
	c := progCache.Load()
	return c.hits.Load(), c.misses.Load(), c.programs.Len()
}

// ResetDecodeCache empties the global program cache (tests, ablations).
func ResetDecodeCache() {
	progCache.Store(&progCacheState{programs: lru.New[etypes.Hash, program](progCacheCap)})
}
