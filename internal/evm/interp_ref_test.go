package evm

import (
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/u256"
)

// NewReference returns an EVM like New's whose frames, nested ones
// included, run on runReference instead of the pre-decoded fast loop.
func NewReference(state StateDB, cfg Config) *EVM {
	e := New(state, cfg)
	e.interp = e.runReference
	return e
}

// runReference executes the frame's code to completion and returns its
// output, decoding one opcode at a time. It is the reference interpreter
// the shipped loop, runFast (interp_fast.go), is held to: the lockstep
// harness (parity_harness_test.go) executes both over identical frames and
// diffs every observable — step traces, outputs, gas, errors, and state
// writes. Keep the two loops in sync; a behavioral change must land in
// both or the parity suite fails.
func (e *EVM) runReference(f *Frame) ([]byte, error) {
	if len(f.code) == 0 {
		return nil, nil // calls to code-less accounts succeed with no output
	}
	var pc uint64
	codeLen := uint64(len(f.code))
	// jumpdests is the code's JUMPDEST set, outside push data, computed
	// on the first jump.
	var jumpdests map[uint64]struct{}
	validJumpdest := func(dest u256.Int) bool {
		if !dest.IsUint64() || dest.Uint64() >= codeLen {
			return false
		}
		if jumpdests == nil {
			jumpdests = make(map[uint64]struct{})
			for pc := 0; pc < len(f.code); {
				op := Op(f.code[pc])
				if op == JUMPDEST {
					jumpdests[uint64(pc)] = struct{}{}
				}
				pc += 1 + op.PushSize()
			}
		}
		_, ok := jumpdests[dest.Uint64()]
		return ok
	}

	for pc < codeLen {
		if e.steps >= e.cfg.StepLimit {
			return nil, ErrStepLimit
		}
		e.steps++

		op := Op(f.code[pc])
		if !op.Defined() || op == INVALID {
			return nil, ErrInvalidOpcode
		}
		pops, pushes := stackReq(op)
		if f.stack.Len() < pops {
			return nil, ErrStackUnderflow
		}
		if f.stack.Len()-pops+pushes > stackLimit {
			return nil, ErrStackOverflow
		}
		if err := f.chargeGas(constGas(op)); err != nil {
			return nil, err
		}
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.CaptureStep(f, pc, op)
		}

		switch {
		case op.IsPush():
			n := uint64(op.PushSize())
			end := pc + 1 + n
			if end > codeLen {
				end = codeLen
			}
			imm := make([]byte, n)
			copy(imm, f.code[pc+1:end])
			f.stack.Push(u256.FromBytes(imm))
			pc += 1 + n
			continue
		case op.IsDup():
			f.stack.dup(int(op-DUP1) + 1)
			pc++
			continue
		case op.IsSwap():
			f.stack.swap(int(op-SWAP1) + 1)
			pc++
			continue
		case op.IsLog():
			if err := e.opLog(f, int(op-LOG0)); err != nil {
				return nil, err
			}
			pc++
			continue
		}

		switch op {
		case STOP:
			return nil, nil

		case ADD:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.Add(b))
		case MUL:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.Mul(b))
		case SUB:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.Sub(b))
		case DIV:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.Div(b))
		case SDIV:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.SDiv(b))
		case MOD:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.Mod(b))
		case SMOD:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.SMod(b))
		case ADDMOD:
			a, b, m := f.stack.Pop(), f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.AddMod(b, m))
		case MULMOD:
			a, b, m := f.stack.Pop(), f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.MulMod(b, m))
		case EXP:
			base, exp := f.stack.Pop(), f.stack.Pop()
			if err := f.chargeGas(gasExpByte * uint64((exp.BitLen()+7)/8)); err != nil {
				return nil, err
			}
			f.stack.Push(base.Exp(exp))
		case SIGNEXTEND:
			b, x := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(x.SignExtend(b))

		case LT:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(boolWord(a.Lt(b)))
		case GT:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(boolWord(a.Gt(b)))
		case SLT:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(boolWord(a.Slt(b)))
		case SGT:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(boolWord(a.Sgt(b)))
		case EQ:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(boolWord(a.Eq(b)))
		case ISZERO:
			a := f.stack.Pop()
			f.stack.Push(boolWord(a.IsZero()))
		case AND:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.And(b))
		case OR:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.Or(b))
		case XOR:
			a, b := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(a.Xor(b))
		case NOT:
			a := f.stack.Pop()
			f.stack.Push(a.Not())
		case BYTE:
			i, x := f.stack.Pop(), f.stack.Pop()
			if !i.IsUint64() {
				f.stack.Push(u256.Zero())
			} else {
				f.stack.Push(x.Byte(i.Uint64()))
			}
		case SHL:
			shift, x := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(shiftAmount(shift, x, u256.Int.Shl))
		case SHR:
			shift, x := f.stack.Pop(), f.stack.Pop()
			f.stack.Push(shiftAmount(shift, x, u256.Int.Shr))
		case SAR:
			shift, x := f.stack.Pop(), f.stack.Pop()
			if !shift.IsUint64() || shift.Uint64() >= 256 {
				f.stack.Push(x.Sar(256))
			} else {
				f.stack.Push(x.Sar(uint(shift.Uint64())))
			}

		case KECCAK256:
			offV, sizeV := f.stack.Pop(), f.stack.Pop()
			off, size, err := toRegion(offV, sizeV)
			if err != nil {
				return nil, err
			}
			if err := f.chargeMemory(off, size); err != nil {
				return nil, err
			}
			if err := f.chargeGas(gasKeccakWord * wordCount(size)); err != nil {
				return nil, err
			}
			sum := keccak.Sum256(f.memory.View(off, size))
			f.stack.Push(u256.FromBytes32(sum))

		case ADDRESS:
			f.stack.Push(f.address.Word())
		case BALANCE:
			addr := etypes.AddressFromWord(f.stack.Pop())
			f.stack.Push(e.state.GetBalance(addr))
		case ORIGIN:
			f.stack.Push(e.cfg.Tx.Origin.Word())
		case CALLER:
			f.stack.Push(f.caller.Word())
		case CALLVALUE:
			f.stack.Push(f.value)
		case CALLDATALOAD:
			offV := f.stack.Pop()
			if !offV.IsUint64() {
				f.stack.Push(u256.Zero())
			} else {
				f.stack.Push(u256.FromBytes(refZeroPadded(f.input, offV.Uint64(), 32)))
			}
		case CALLDATASIZE:
			f.stack.Push(u256.FromUint64(uint64(len(f.input))))
		case CALLDATACOPY:
			if err := e.refOpCopy(f, f.input); err != nil {
				return nil, err
			}
		case CODESIZE:
			f.stack.Push(u256.FromUint64(codeLen))
		case CODECOPY:
			if err := e.refOpCopy(f, f.code); err != nil {
				return nil, err
			}
		case GASPRICE:
			f.stack.Push(e.cfg.Tx.GasPrice)
		case EXTCODESIZE:
			addr := etypes.AddressFromWord(f.stack.Pop())
			f.stack.Push(u256.FromUint64(uint64(len(e.state.GetCode(addr)))))
		case EXTCODECOPY:
			addr := etypes.AddressFromWord(f.stack.Pop())
			if err := e.refOpCopy(f, e.state.GetCode(addr)); err != nil {
				return nil, err
			}
		case RETURNDATASIZE:
			f.stack.Push(u256.FromUint64(uint64(len(f.returnData))))
		case RETURNDATACOPY:
			if err := e.refOpCopy(f, f.returnData); err != nil {
				return nil, err
			}
		case EXTCODEHASH:
			addr := etypes.AddressFromWord(f.stack.Pop())
			f.stack.Push(e.state.GetCodeHash(addr).Word())

		case BLOCKHASH:
			numV := f.stack.Pop()
			var h etypes.Hash
			if numV.IsUint64() && e.cfg.Block.BlockHash != nil {
				h = e.cfg.Block.BlockHash(numV.Uint64())
			}
			f.stack.Push(h.Word())
		case COINBASE:
			f.stack.Push(e.cfg.Block.Coinbase.Word())
		case TIMESTAMP:
			f.stack.Push(u256.FromUint64(e.cfg.Block.Time))
		case NUMBER:
			f.stack.Push(u256.FromUint64(e.cfg.Block.Number))
		case DIFFICULTY:
			f.stack.Push(e.cfg.Block.Difficulty)
		case GASLIMIT:
			f.stack.Push(u256.FromUint64(e.cfg.Block.GasLimit))
		case CHAINID:
			f.stack.Push(e.cfg.Block.ChainID)
		case SELFBALANCE:
			f.stack.Push(e.state.GetBalance(f.address))
		case BASEFEE:
			f.stack.Push(e.cfg.Block.BaseFee)

		case POP:
			f.stack.Pop()
		case MLOAD:
			offV := f.stack.Pop()
			off, err := toOffset(offV)
			if err != nil {
				return nil, err
			}
			if err := f.chargeMemory(off, 32); err != nil {
				return nil, err
			}
			f.stack.Push(f.memory.GetWord(off))
		case MSTORE:
			offV, val := f.stack.Pop(), f.stack.Pop()
			off, err := toOffset(offV)
			if err != nil {
				return nil, err
			}
			if err := f.chargeMemory(off, 32); err != nil {
				return nil, err
			}
			f.memory.SetWord(off, val)
		case MSTORE8:
			offV, val := f.stack.Pop(), f.stack.Pop()
			off, err := toOffset(offV)
			if err != nil {
				return nil, err
			}
			if err := f.chargeMemory(off, 1); err != nil {
				return nil, err
			}
			f.memory.SetByte(off, byte(val.Uint64()))
		case SLOAD:
			key := etypes.HashFromWord(f.stack.Pop())
			f.stack.Push(e.state.GetState(f.address, key).Word())
		case SSTORE:
			if f.static {
				return nil, ErrWriteProtection
			}
			key := etypes.HashFromWord(f.stack.Pop())
			val := etypes.HashFromWord(f.stack.Pop())
			cost := uint64(gasSstoreReset)
			if e.state.GetState(f.address, key) == (etypes.Hash{}) && val != (etypes.Hash{}) {
				cost = gasSstoreSet
			}
			if err := f.chargeGas(cost); err != nil {
				return nil, err
			}
			e.state.SetState(f.address, key, val)
		case JUMP:
			dest := f.stack.Pop()
			if !validJumpdest(dest) {
				return nil, ErrInvalidJump
			}
			pc = dest.Uint64()
			continue
		case JUMPI:
			dest, cond := f.stack.Pop(), f.stack.Pop()
			if !cond.IsZero() {
				if !validJumpdest(dest) {
					return nil, ErrInvalidJump
				}
				pc = dest.Uint64()
				continue
			}
		case PC:
			f.stack.Push(u256.FromUint64(pc))
		case MSIZE:
			f.stack.Push(u256.FromUint64(uint64(f.memory.Len())))
		case GAS:
			f.stack.Push(u256.FromUint64(f.gas))
		case JUMPDEST:
			// No effect.
		case PUSH0:
			f.stack.Push(u256.Zero())

		case CREATE, CREATE2:
			if err := e.opCreate(f, op); err != nil {
				return nil, err
			}
		case CALL, CALLCODE, DELEGATECALL, STATICCALL:
			if err := e.opCall(f, op); err != nil {
				return nil, err
			}

		case RETURN:
			offV, sizeV := f.stack.Pop(), f.stack.Pop()
			out, err := e.frameOutput(f, offV, sizeV)
			if err != nil {
				return nil, err
			}
			return out, nil
		case REVERT:
			offV, sizeV := f.stack.Pop(), f.stack.Pop()
			out, err := e.frameOutput(f, offV, sizeV)
			if err != nil {
				return nil, err
			}
			return out, ErrRevert
		case SELFDESTRUCT:
			if f.static {
				return nil, ErrWriteProtection
			}
			beneficiary := etypes.AddressFromWord(f.stack.Pop())
			e.state.SelfDestruct(f.address, beneficiary)
			return nil, nil

		default:
			return nil, ErrInvalidOpcode
		}
		pc++
	}
	// Running off the end of code halts like STOP.
	return nil, nil
}

// refZeroPadded returns size bytes of src starting at offset, zero-padding
// past the end, per *COPY opcode semantics. It is the shipped helper as it
// stood before the copy opcodes wrote into memory in place, frozen here so
// the reference loop keeps an implementation of its own.
func refZeroPadded(src []byte, offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	out := make([]byte, size)
	if offset < uint64(len(src)) {
		copy(out, src[offset:])
	}
	return out
}

// refOpCopy is the reference loop's CALLDATACOPY/CODECOPY/RETURNDATACOPY/
// EXTCODECOPY: pop destOffset, srcOffset, size and copy a zero-padded
// temporary of the source into memory. The frozen form of the shipped
// opCopy (interp.go), which writes in place instead.
func (e *EVM) refOpCopy(f *Frame, src []byte) error {
	dstV, srcV, sizeV := f.stack.Pop(), f.stack.Pop(), f.stack.Pop()
	dst, size, err := toRegion(dstV, sizeV)
	if err != nil {
		return err
	}
	if err := f.chargeMemory(dst, size); err != nil {
		return err
	}
	if err := f.chargeGas(gasCopyWord * wordCount(size)); err != nil {
		return err
	}
	var srcOff uint64
	if srcV.IsUint64() {
		srcOff = srcV.Uint64()
	} else {
		srcOff = uint64(len(src)) // fully out of range: copy zeros
	}
	f.memory.Set(dst, refZeroPadded(src, srcOff, size))
	return nil
}
