package proxion

import (
	"slices"
	"sync"

	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// AccessKind distinguishes storage reads from writes.
type AccessKind int

// Access kinds.
const (
	AccessRead AccessKind = iota + 1
	AccessWrite
)

// StorageAccess is one recovered storage field access: which slot, the byte
// range within it, and how the value is used. This is the product of the
// CRUSH-style analysis (Section 5.2): program-slice the instructions
// feeding SLOAD/SSTORE, symbolically evaluate the shift/mask arithmetic to
// learn field offset and width, and tag sensitive uses.
type StorageAccess struct {
	Slot   etypes.Hash
	Offset int // bytes from the least-significant end
	Size   int // bytes
	Kind   AccessKind
	// PC is the code offset of the SLOAD/SSTORE, used to attribute the
	// access to a function body.
	PC uint64
	// Guard marks reads whose value decides a conditional branch — the
	// access-control and initializer-guard slots CRUSH calls sensitive.
	Guard bool
	// CallerCheck marks reads compared against msg.sender (ownership).
	CallerCheck bool
	// Tainted marks writes whose value derives from msg.sender or call
	// data, i.e. attacker-influenceable.
	Tainted bool
}

// field is a byte range in a slot.
type field struct{ offset, size int }

// symbolic value kinds for the lightweight evaluator.
type symKind uint8

const (
	symUnknown symKind = iota
	symConst
	symCaller
	symCalldata
	symSload        // (possibly shifted/masked) SLOAD result
	symWriteCombine // AND(old, keepMask) — the read-modify-write skeleton
)

// sym is an abstract stack value.
type sym struct {
	kind symKind
	// masked records that a field-extraction AND was applied.
	masked bool
	// taint propagates msg.sender / call-data influence.
	taint bool
	// acc refers to the access of the current block a symSload descends
	// from (its index in slicer.block plus one; zero is none), so later
	// mask/branch/compare instructions can refine or tag it.
	acc int32
	// shift tracks SHR offset applied to a symSload before masking.
	shift int
	// val is the constant of a symConst and the retained-bits mask of a
	// symWriteCombine.
	val u256.Int
}

// ExtractStorageAccesses recovers the storage field accesses of a
// contract's bytecode. It evaluates each basic block symbolically: constant
// slot arithmetic, the SHR/AND field extraction Solidity emits for packed
// reads, the AND/OR read-modify-write skeleton of packed writes, and the
// comparisons/branches that mark guard slots. The result is sorted by slot,
// then offset, then kind, and nil when there is none.
//
// The slice is read straight from the bytes, block by block
// (disasm.BlockEnd), without an instruction stream. Only a block holding an
// SLOAD or SSTORE is evaluated: a block starts from an empty stack, an
// access enters the result at its own SLOAD/SSTORE, and a Guard/CallerCheck
// tag only ever lands on an access of the same block, so the other blocks
// cannot contribute. The evaluator's stack and lists are pooled; what the
// call allocates is the result, copied out at its exact size.
func ExtractStorageAccesses(code []byte) []StorageAccess {
	var s *slicer
	for start := 0; start < len(code); {
		end := disasm.BlockEnd(code, start)
		if touchesStorage(code[start:end]) {
			if s == nil {
				s = slicerPool.Get().(*slicer)
				s.out = s.out[:0]
			}
			s.evalBlock(code, start, end)
		}
		start = end
	}
	if s == nil {
		return nil
	}
	defer slicerPool.Put(s)
	if len(s.out) == 0 {
		return nil
	}
	// Every access carries the PC of its own instruction, so no two are
	// equal and there is nothing to de-duplicate.
	slices.SortFunc(s.out, func(a, b StorageAccess) int {
		if c := compareSlots(a, b); c != 0 {
			return c
		}
		if a.Offset != b.Offset {
			return a.Offset - b.Offset
		}
		return int(a.Kind) - int(b.Kind)
	})
	out := make([]StorageAccess, len(s.out))
	copy(out, s.out)
	return out
}

// touchesStorage reports whether the instructions of block, a whole basic
// block, include an SLOAD or SSTORE.
func touchesStorage(block []byte) bool {
	for pc := 0; pc < len(block); {
		op := evm.Op(block[pc])
		if op == evm.SLOAD || op == evm.SSTORE {
			return true
		}
		pc += 1 + op.PushSize()
	}
	return false
}

// slicer is the symbolic evaluator's state across the blocks of one
// bytecode: one stack and one per-block access list, reused from block to
// block, and the accesses found so far. Slicers are pooled, so a slice
// allocates nothing but its result.
type slicer struct {
	stack []sym
	// block holds the accesses of the block under evaluation in program
	// order; one that turns out to be the load half of a read-modify-write
	// is dropped by zeroing its Kind.
	block []StorageAccess
	out   []StorageAccess
}

var slicerPool = sync.Pool{New: func() any { return new(slicer) }}

func (s *slicer) push(v sym) { s.stack = append(s.stack, v) }

func (s *slicer) pop() sym {
	if len(s.stack) == 0 {
		return sym{kind: symUnknown}
	}
	v := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return v
}

// access appends a to the current block's list and returns its reference.
func (s *slicer) access(a StorageAccess) int32 {
	s.block = append(s.block, a)
	return int32(len(s.block))
}

// drop removes the referenced access from the block's result.
func (s *slicer) drop(acc int32) {
	if acc != 0 {
		s.block[acc-1].Kind = 0
	}
}

// evalBlock symbolically executes the basic block code[start:end] with an
// empty entry stack (cross-block stack contents appear as unknowns) and
// appends the accesses it performs to s.out.
func (s *slicer) evalBlock(code []byte, start, end int) {
	s.stack, s.block = s.stack[:0], s.block[:0]
	for pc := start; pc < end; pc += 1 + evm.Op(code[pc]).PushSize() {
		ins := disasm.Instruction{PC: uint64(pc), Op: evm.Op(code[pc])}
		op := ins.Op
		switch {
		case op.IsPush():
			s.push(sym{kind: symConst, val: ins.Value(code)})
			continue
		case op == evm.PUSH0:
			s.push(sym{kind: symConst})
			continue
		case op.IsDup():
			n := int(op-evm.DUP1) + 1
			if n <= len(s.stack) {
				s.push(s.stack[len(s.stack)-n])
			} else {
				s.push(sym{kind: symUnknown})
			}
			continue
		case op.IsSwap():
			n := int(op-evm.SWAP1) + 1
			if n < len(s.stack) {
				top := len(s.stack) - 1
				s.stack[top], s.stack[top-n] = s.stack[top-n], s.stack[top]
			}
			continue
		}

		switch op {
		case evm.CALLER:
			s.push(sym{kind: symCaller, taint: true})
		case evm.CALLDATALOAD:
			s.pop()
			s.push(sym{kind: symCalldata, taint: true})
		case evm.SLOAD:
			key := s.pop()
			if key.kind == symConst {
				acc := s.access(StorageAccess{
					Slot:   etypes.HashFromWord(key.val),
					Offset: 0,
					Size:   32,
					Kind:   AccessRead,
					PC:     ins.PC,
				})
				s.push(sym{kind: symSload, acc: acc})
			} else {
				s.push(sym{kind: symUnknown})
			}
		case evm.SHR:
			shift, x := s.pop(), s.pop()
			if x.kind == symSload && shift.kind == symConst && shift.val.IsUint64() {
				x.shift += int(shift.val.Uint64())
				s.push(x)
			} else {
				s.push(sym{kind: symUnknown, taint: x.taint})
			}
		case evm.SHL:
			_, x := s.pop(), s.pop()
			s.push(sym{kind: symUnknown, taint: x.taint, acc: x.acc})
		case evm.AND:
			a, b := s.pop(), s.pop()
			// Normalize: v = the sload/derived side, m = the mask side.
			v, m := a, b
			if v.kind != symSload {
				v, m = b, a
			}
			if v.kind == symSload && m.kind == symConst {
				// Field-extraction masks start at bit 0 (they follow the
				// SHR); a mask whose ones start higher is a read-modify-
				// write keep mask, whose complement is the written field.
				if off, size, ok := lowRunMask(m.val); ok && off == 0 {
					// Field read: refine the recorded access. (If this value
					// is later OR-combined, the OR rule reinterprets it as a
					// read-modify-write keep mask — the two shapes coincide
					// for top-aligned fields.)
					s.block[v.acc-1].Offset = v.shift / 8
					s.block[v.acc-1].Size = size
					s.push(sym{kind: symSload, acc: v.acc, shift: v.shift, masked: true, taint: v.taint})
				} else if _, _, ok := complementRunMask(m.val); ok {
					// Read-modify-write skeleton: the SLOAD is not a
					// semantic field read; drop it from the access list.
					s.drop(v.acc)
					s.push(sym{kind: symWriteCombine, val: m.val, taint: v.taint})
				} else {
					s.push(sym{kind: symUnknown, taint: v.taint})
				}
			} else {
				s.push(sym{kind: symUnknown, taint: a.taint || b.taint, acc: firstAcc(a, b)})
			}
		case evm.OR:
			a, b := s.pop(), s.pop()
			w := a
			if w.kind != symWriteCombine {
				w = b
			}
			if w.kind == symWriteCombine {
				w.taint = a.taint || b.taint
				s.push(w)
				continue
			}
			// A masked, unshifted SLOAD being OR-combined is the other face
			// of the read-modify-write skeleton: AND(old, lowMask) kept the
			// low field, and the OR merges in a top-aligned value. The
			// SLOAD was not a semantic read after all.
			rmw := a
			if !(rmw.kind == symSload && rmw.masked && rmw.shift == 0) {
				rmw = b
			}
			if rmw.kind == symSload && rmw.masked && rmw.shift == 0 && s.block[rmw.acc-1].Offset == 0 {
				keep := u256.One().Shl(uint(s.block[rmw.acc-1].Size * 8)).Sub(u256.One())
				s.drop(rmw.acc)
				s.push(sym{kind: symWriteCombine, val: keep, taint: a.taint || b.taint})
				continue
			}
			s.push(sym{kind: symUnknown, taint: a.taint || b.taint})
		case evm.SSTORE:
			key, val := s.pop(), s.pop()
			if key.kind != symConst {
				continue
			}
			acc := StorageAccess{
				Slot:    etypes.HashFromWord(key.val),
				Offset:  0,
				Size:    32,
				Kind:    AccessWrite,
				Tainted: val.taint,
				PC:      ins.PC,
			}
			if val.kind == symWriteCombine {
				if off, size, ok := complementRunMask(val.val); ok {
					acc.Offset, acc.Size = off, size
				}
			}
			s.access(acc)
		case evm.EQ:
			a, b := s.pop(), s.pop()
			// CALLER == <storage read>: ownership check.
			if (a.kind == symCaller && b.acc != 0) || (b.kind == symCaller && a.acc != 0) {
				acc := firstAcc(a, b)
				s.block[acc-1].CallerCheck = true
				s.block[acc-1].Guard = true
				s.push(sym{kind: symUnknown, acc: acc})
			} else {
				s.push(sym{kind: symUnknown, acc: firstAcc(a, b), taint: a.taint || b.taint})
			}
		case evm.ISZERO:
			a := s.pop()
			s.push(sym{kind: symUnknown, acc: a.acc, taint: a.taint})
		case evm.JUMPI:
			_, cond := s.pop(), s.pop()
			if cond.acc != 0 {
				s.block[cond.acc-1].Guard = true
			}
		default:
			pops, pushes := evm.StackArity(op)
			var anyTaint bool
			var acc int32
			for i := 0; i < pops; i++ {
				v := s.pop()
				anyTaint = anyTaint || v.taint
				if acc == 0 {
					acc = v.acc
				}
			}
			for i := 0; i < pushes; i++ {
				s.push(sym{kind: symUnknown, taint: anyTaint, acc: acc})
			}
		}
	}

	for _, a := range s.block {
		if a.Kind != 0 {
			s.out = append(s.out, a)
		}
	}
}

// firstAcc returns the first access provenance among two values.
func firstAcc(a, b sym) int32 {
	if a.acc != 0 {
		return a.acc
	}
	return b.acc
}

// lowRunMask reports whether m is a contiguous run of ones starting at some
// byte boundary ≥ 0 with no gaps (e.g. 0xff, 0xffff, (1<<160)-1). Returns
// the run's byte offset and byte length.
func lowRunMask(m u256.Int) (offsetBytes, sizeBytes int, ok bool) {
	if m.IsZero() {
		return 0, 0, false
	}
	// Shifted down by its trailing zeros, a run of ones is all ones below
	// its top bit: adding one carries through every bit of it.
	lo := m.TrailingZeros()
	r := m.Shr(uint(lo))
	if !r.And(r.Add(u256.One())).IsZero() {
		return 0, 0, false
	}
	width := r.BitLen()
	if lo%8 != 0 || width%8 != 0 {
		return 0, 0, false
	}
	return lo / 8, width / 8, true
}

// complementRunMask reports whether ^m is a contiguous byte-aligned run —
// the shape of a read-modify-write keep mask. Returns the complement run's
// byte offset and length (the field being overwritten).
func complementRunMask(m u256.Int) (offsetBytes, sizeBytes int, ok bool) {
	return lowRunMask(m.Not())
}
