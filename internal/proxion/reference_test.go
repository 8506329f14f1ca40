package proxion

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// This file freezes the storage slicer and the collision grouping as they
// stood before the per-bytecode artifact (PR 19). They are the oracles the
// differential tests in artifact_test.go and collision_join_test.go hold
// the shipped code against; nothing outside tests calls them.

// Symbolic value kinds of the reference evaluator.
type refSymKind int

const (
	refUnknown refSymKind = iota
	refConst
	refCaller
	refCalldata
	refSload        // (possibly shifted/masked) SLOAD result
	refWriteCombine // AND(old, keepMask) — the read-modify-write skeleton
)

// refSym is an abstract stack value.
type refSym struct {
	kind refSymKind
	val  u256.Int // for refConst
	// acc points at the StorageAccess a refSload descends from, so later
	// mask/branch/compare instructions can refine or tag it.
	acc *StorageAccess
	// keep is the retained-bits mask for refWriteCombine.
	keep u256.Int
	// shift tracks SHR offset applied to a refSload before masking.
	shift int
	// masked records that a field-extraction AND was applied.
	masked bool
	// taint propagates msg.sender / call-data influence.
	taint bool
}

// refExtractStorageAccesses is ExtractStorageAccesses as it was before the
// per-bytecode artifact: every block evaluated, a fresh stack and a pointer
// per access for each, sort.Slice and a map to de-duplicate.
func refExtractStorageAccesses(code []byte) []StorageAccess {
	var out []StorageAccess
	for _, block := range disasm.BasicBlocks(code) {
		out = append(out, refEvalBlock(code, block)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slot != out[j].Slot {
			return refLessHash(out[i].Slot, out[j].Slot)
		}
		if out[i].Offset != out[j].Offset {
			return out[i].Offset < out[j].Offset
		}
		return out[i].Kind < out[j].Kind
	})
	return refDedupAccesses(out)
}

func refLessHash(a, b etypes.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func refDedupAccesses(in []StorageAccess) []StorageAccess {
	var out []StorageAccess
	seen := make(map[StorageAccess]struct{})
	for _, a := range in {
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			out = append(out, a)
		}
	}
	return out
}

// refEvalBlock symbolically executes one basic block of code with an empty
// entry stack (cross-block stack contents appear as unknowns) and returns
// the accesses it performs.
func refEvalBlock(code []byte, block disasm.BasicBlock) []StorageAccess {
	var accesses []*StorageAccess
	var stack []refSym

	push := func(s refSym) { stack = append(stack, s) }
	pop := func() refSym {
		if len(stack) == 0 {
			return refSym{kind: refUnknown}
		}
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return s
	}

	for _, ins := range block.Instrs {
		op := ins.Op
		switch {
		case op.IsPush():
			push(refSym{kind: refConst, val: u256.FromBytes(ins.Imm(code))})
			continue
		case op == evm.PUSH0:
			push(refSym{kind: refConst})
			continue
		case op.IsDup():
			n := int(op-evm.DUP1) + 1
			if n <= len(stack) {
				push(stack[len(stack)-n])
			} else {
				push(refSym{kind: refUnknown})
			}
			continue
		case op.IsSwap():
			n := int(op-evm.SWAP1) + 1
			if n < len(stack) {
				top := len(stack) - 1
				stack[top], stack[top-n] = stack[top-n], stack[top]
			}
			continue
		}

		switch op {
		case evm.CALLER:
			push(refSym{kind: refCaller, taint: true})
		case evm.CALLDATALOAD:
			pop()
			push(refSym{kind: refCalldata, taint: true})
		case evm.SLOAD:
			key := pop()
			if key.kind == refConst {
				acc := &StorageAccess{
					Slot:   etypes.HashFromWord(key.val),
					Offset: 0,
					Size:   32,
					Kind:   AccessRead,
					PC:     ins.PC,
				}
				accesses = append(accesses, acc)
				push(refSym{kind: refSload, acc: acc})
			} else {
				push(refSym{kind: refUnknown})
			}
		case evm.SHR:
			shift, x := pop(), pop()
			if x.kind == refSload && shift.kind == refConst && shift.val.IsUint64() {
				x.shift += int(shift.val.Uint64())
				push(x)
			} else {
				push(refSym{kind: refUnknown, taint: x.taint})
			}
		case evm.SHL:
			shift, x := pop(), pop()
			_ = shift
			push(refSym{kind: refUnknown, taint: x.taint, acc: x.acc})
		case evm.AND:
			a, b := pop(), pop()
			// Normalize: s = the sload/derived side, m = the mask side.
			s, m := a, b
			if s.kind != refSload {
				s, m = b, a
			}
			if s.kind == refSload && m.kind == refConst {
				// Field-extraction masks start at bit 0 (they follow the
				// SHR); a mask whose ones start higher is a read-modify-
				// write keep mask, whose complement is the written field.
				if off, size, ok := refLowRunMask(m.val); ok && off == 0 {
					// Field read: refine the recorded access. (If this value
					// is later OR-combined, the OR rule reinterprets it as a
					// read-modify-write keep mask — the two shapes coincide
					// for top-aligned fields.)
					s.acc.Offset = s.shift / 8
					s.acc.Size = size
					push(refSym{kind: refSload, acc: s.acc, shift: s.shift, masked: true, taint: s.taint})
				} else if _, _, ok := refLowRunMask(m.val.Not()); ok {
					// Read-modify-write skeleton: the SLOAD is not a
					// semantic field read; drop it from the access list.
					refRemoveAccess(&accesses, s.acc)
					push(refSym{kind: refWriteCombine, keep: m.val, taint: s.taint})
				} else {
					push(refSym{kind: refUnknown, taint: s.taint})
				}
			} else {
				push(refSym{kind: refUnknown, taint: a.taint || b.taint, acc: refFirstAcc(a, b)})
			}
		case evm.OR:
			a, b := pop(), pop()
			w := a
			if w.kind != refWriteCombine {
				w = b
			}
			if w.kind == refWriteCombine {
				w.taint = a.taint || b.taint
				push(w)
				continue
			}
			// A masked, unshifted SLOAD being OR-combined is the other face
			// of the read-modify-write skeleton: AND(old, lowMask) kept the
			// low field, and the OR merges in a top-aligned value. The
			// SLOAD was not a semantic read after all.
			rmw := a
			if !(rmw.kind == refSload && rmw.masked && rmw.shift == 0) {
				rmw = b
			}
			if rmw.kind == refSload && rmw.masked && rmw.shift == 0 && rmw.acc != nil && rmw.acc.Offset == 0 {
				keep := u256.One().Shl(uint(rmw.acc.Size * 8)).Sub(u256.One())
				refRemoveAccess(&accesses, rmw.acc)
				push(refSym{kind: refWriteCombine, keep: keep, taint: a.taint || b.taint})
				continue
			}
			push(refSym{kind: refUnknown, taint: a.taint || b.taint})
		case evm.SSTORE:
			key, val := pop(), pop()
			if key.kind != refConst {
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
			if val.kind == refWriteCombine {
				if off, size, ok := refLowRunMask(val.keep.Not()); ok {
					acc.Offset, acc.Size = off, size
				}
			}
			a := acc
			accesses = append(accesses, &a)
		case evm.EQ:
			a, b := pop(), pop()
			// CALLER == <storage read>: ownership check.
			if (a.kind == refCaller && b.acc != nil) || (b.kind == refCaller && a.acc != nil) {
				acc := refFirstAcc(a, b)
				acc.CallerCheck = true
				acc.Guard = true
				push(refSym{kind: refUnknown, acc: acc})
			} else {
				push(refSym{kind: refUnknown, acc: refFirstAcc(a, b), taint: a.taint || b.taint})
			}
		case evm.ISZERO:
			a := pop()
			push(refSym{kind: refUnknown, acc: a.acc, taint: a.taint})
		case evm.JUMPI:
			_, cond := pop(), pop()
			if cond.acc != nil {
				cond.acc.Guard = true
			}
		default:
			pops, pushes := stackEffect(op)
			var anyTaint bool
			var acc *StorageAccess
			for i := 0; i < pops; i++ {
				v := pop()
				anyTaint = anyTaint || v.taint
				if acc == nil {
					acc = v.acc
				}
			}
			for i := 0; i < pushes; i++ {
				push(refSym{kind: refUnknown, taint: anyTaint, acc: acc})
			}
		}
	}

	out := make([]StorageAccess, 0, len(accesses))
	for _, a := range accesses {
		if a != nil {
			out = append(out, *a)
		}
	}
	return out
}

// refFirstAcc returns the first non-nil access provenance among values.
func refFirstAcc(vals ...refSym) *StorageAccess {
	for _, v := range vals {
		if v.acc != nil {
			return v.acc
		}
	}
	return nil
}

// refRemoveAccess nils out the slot in the access list pointing at target.
func refRemoveAccess(accesses *[]*StorageAccess, target *StorageAccess) {
	if target == nil {
		return
	}
	for i, a := range *accesses {
		if a == target {
			(*accesses)[i] = nil
			return
		}
	}
}

// refStorageCollisions is StorageCollisions as it was: both lists grouped by
// slot in maps, collisions sorted afterwards.
func refStorageCollisions(proxyAcc, logicAcc []StorageAccess) []StorageCollision {
	proxyBySlot := refGroupBySlot(proxyAcc)
	logicBySlot := refGroupBySlot(logicAcc)

	var out []StorageCollision
	for slot, pAccs := range proxyBySlot {
		lAccs, shared := logicBySlot[slot]
		if !shared {
			continue
		}
		col, found := refCollideSlot(slot, pAccs, lAccs)
		if found {
			out = append(out, col)
		}
	}
	refSortStorageCollisions(out)
	return out
}

// refCollideSlot is collideSlot with the union of accesses copied out.
func refCollideSlot(slot etypes.Hash, pAccs, lAccs []StorageAccess) (StorageCollision, bool) {
	col := StorageCollision{Slot: slot}
	found := false
	for _, p := range pAccs {
		for _, l := range lAccs {
			if !fieldsOverlap(p.Offset, p.Size, l.Offset, l.Size) {
				continue
			}
			if sameField(p.Offset, p.Size, l.Offset, l.Size) {
				continue
			}
			if !found {
				col.ProxyOffset, col.ProxySize = p.Offset, p.Size
				col.LogicOffset, col.LogicSize = l.Offset, l.Size
				found = true
			}
			if p.Guard || l.Guard {
				col.GuardInvolved = true
			}
		}
	}
	if !found {
		return col, false
	}
	combined := make([]StorageAccess, 0, len(pAccs)+len(lAccs))
	combined = append(combined, pAccs...)
	combined = append(combined, lAccs...)
	for _, r := range combined {
		if r.Kind != AccessRead || !(r.Guard || r.CallerCheck) {
			continue
		}
		for _, w := range combined {
			if w.Kind != AccessWrite || !w.Tainted {
				continue
			}
			if fieldsOverlap(r.Offset, r.Size, w.Offset, w.Size) &&
				!sameField(r.Offset, r.Size, w.Offset, w.Size) {
				col.Exploitable = true
			}
		}
	}
	return col, found
}

func refGroupBySlot(accs []StorageAccess) map[etypes.Hash][]StorageAccess {
	out := make(map[etypes.Hash][]StorageAccess)
	for _, a := range accs {
		out[a.Slot] = append(out[a.Slot], a)
	}
	return out
}

func refSortStorageCollisions(cs []StorageCollision) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && refLessHash(cs[j].Slot, cs[j-1].Slot); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// stackEffect is the arity table the slicer carried before it took
// evm.StackArity: the interpreter's pop/push counts for the opcodes the
// symbolic evaluator does not model specially. The reference keeps it.
func stackEffect(op evm.Op) (pops, pushes int) {
	switch {
	case op.IsLog():
		return int(op-evm.LOG0) + 2, 0
	}
	switch op {
	case evm.STOP, evm.JUMPDEST, evm.INVALID:
		return 0, 0
	case evm.ADD, evm.MUL, evm.SUB, evm.DIV, evm.SDIV, evm.MOD, evm.SMOD,
		evm.SIGNEXTEND, evm.LT, evm.GT, evm.SLT, evm.SGT, evm.EXP,
		evm.BYTE, evm.SAR, evm.KECCAK256, evm.XOR:
		return 2, 1
	case evm.ADDMOD, evm.MULMOD:
		return 3, 1
	case evm.NOT, evm.BALANCE, evm.EXTCODESIZE, evm.EXTCODEHASH,
		evm.BLOCKHASH, evm.MLOAD:
		return 1, 1
	case evm.ADDRESS, evm.ORIGIN, evm.CALLVALUE, evm.CALLDATASIZE,
		evm.CODESIZE, evm.GASPRICE, evm.RETURNDATASIZE, evm.COINBASE,
		evm.TIMESTAMP, evm.NUMBER, evm.DIFFICULTY, evm.GASLIMIT,
		evm.CHAINID, evm.SELFBALANCE, evm.BASEFEE, evm.PC, evm.MSIZE,
		evm.GAS:
		return 0, 1
	case evm.POP, evm.JUMP, evm.SELFDESTRUCT:
		return 1, 0
	case evm.MSTORE, evm.MSTORE8, evm.RETURN, evm.REVERT:
		return 2, 0
	case evm.CALLDATACOPY, evm.CODECOPY, evm.RETURNDATACOPY:
		return 3, 0
	case evm.EXTCODECOPY:
		return 4, 0
	case evm.CREATE:
		return 3, 1
	case evm.CREATE2:
		return 4, 1
	case evm.CALL, evm.CALLCODE:
		return 7, 1
	case evm.DELEGATECALL, evm.STATICCALL:
		return 6, 1
	default:
		return 0, 0
	}
}

// refLowRunMask is lowRunMask as the per-bit loop it was: the lowest set
// bit found one bit at a time, then the run compared with a built mask.
func refLowRunMask(m u256.Int) (offsetBytes, sizeBytes int, ok bool) {
	if m.IsZero() {
		return 0, 0, false
	}
	lo := 0
	for m.Bit(uint(lo)) == 0 {
		lo++
	}
	hi := m.BitLen() - 1
	width := hi - lo + 1
	ones := u256.One().Shl(uint(width)).Sub(u256.One()).Shl(uint(lo))
	if !ones.Eq(m) {
		return 0, 0, false
	}
	if lo%8 != 0 || width%8 != 0 {
		return 0, 0, false
	}
	return lo / 8, width / 8, true
}

// TestLowRunMaskMatchesReference holds the word-op mask test to the per-bit
// loop over every run of ones (each offset and width, aligned or not), the
// same runs with a bit flipped inside, next to and far from them, and
// their complements.
func TestLowRunMaskMatchesReference(t *testing.T) {
	check := func(m u256.Int) {
		t.Helper()
		off, size, ok := lowRunMask(m)
		wantOff, wantSize, wantOK := refLowRunMask(m)
		if off != wantOff || size != wantSize || ok != wantOK {
			t.Fatalf("lowRunMask(%v) = (%d, %d, %v), the per-bit loop says (%d, %d, %v)",
				m, off, size, ok, wantOff, wantSize, wantOK)
		}
	}
	check(u256.Zero())
	runs := 0
	for lo := 0; lo < 256; lo++ {
		for width := 1; lo+width <= 256; width++ {
			run := u256.One().Shl(uint(width)).Sub(u256.One()).Shl(uint(lo))
			check(run)
			check(run.Not())
			for _, flip := range []int{lo, lo + width/2, lo + width - 1, lo + width, lo - 1, 255 - lo} {
				if flip >= 0 && flip < 256 {
					check(run.Xor(u256.One().Shl(uint(flip))))
				}
			}
			if _, _, ok := lowRunMask(run); ok {
				runs++
			}
		}
	}
	if runs != 32*33/2 {
		t.Fatalf("%d byte-aligned runs accepted, want %d", runs, 32*33/2)
	}
}

// FuzzSlicerMatchesReference holds the slicer, which reads blocks straight
// from the bytes, to the frozen evaluator over a disassembly on arbitrary
// code: the same accesses in the same order, nil for none.
func FuzzSlicerMatchesReference(f *testing.F) {
	for _, code := range artifactCorpus(f) {
		f.Add(code)
	}
	push32, jd := byte(evm.PUSH32), byte(evm.JUMPDEST)
	sload, sstore := byte(evm.SLOAD), byte(evm.SSTORE)
	// A PUSH32 cut short by the end of code, after a storage read.
	f.Add([]byte{byte(evm.PUSH1), 0, sload, push32, 0xff, 0xff})
	// JUMPDEST and SLOAD bytes inside push data, which start no block and
	// read nothing.
	f.Add([]byte{byte(evm.PUSH2), jd, sload, byte(evm.PUSH1), 1, sload, byte(evm.PUSH3), sload, jd, sstore, byte(evm.STOP)})
	// A storage block that ends the code, without a terminator.
	f.Add([]byte{jd, byte(evm.CALLER), byte(evm.PUSH1), 3, sstore, jd, byte(evm.PUSH1), 3, sload, byte(evm.PUSH1), 0xff, byte(evm.AND)})
	f.Fuzz(func(t *testing.T, code []byte) {
		if got, want := ExtractStorageAccesses(code), refExtractStorageAccesses(code); !reflect.DeepEqual(got, want) {
			t.Fatalf("code %x: slicer diverges from the reference:\n got %+v\nwant %+v", code, got, want)
		}
	})
}

// TestSlicerArityIsTheInterpreters pins the equivalence that let evalBlock
// call evm.StackArity: over all 256 opcodes the two tables differ only on
// opcodes evalBlock handles before its default branch, so none of the
// differences can reach the call.
func TestSlicerArityIsTheInterpreters(t *testing.T) {
	special := map[evm.Op]bool{
		evm.PUSH0: true,
		evm.EQ:    true, evm.ISZERO: true, evm.AND: true, evm.OR: true, evm.SHL: true, evm.SHR: true,
		evm.CALLER: true, evm.CALLDATALOAD: true, evm.SLOAD: true, evm.SSTORE: true, evm.JUMPI: true,
	}
	for b := 0; b < 256; b++ {
		op := evm.Op(b)
		if op.IsPush() || op.IsDup() || op.IsSwap() || special[op] {
			continue
		}
		wantPops, wantPushes := stackEffect(op)
		if pops, pushes := evm.StackArity(op); pops != wantPops || pushes != wantPushes {
			t.Errorf("opcode %#02x: evm.StackArity = (%d, %d), the slicer's table had (%d, %d)",
				b, pops, pushes, wantPops, wantPushes)
		}
	}
}
