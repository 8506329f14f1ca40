package evm

import (
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/u256"
)

// toOffset converts a stack word to a memory offset/size, failing with
// out-of-gas when the value is absurdly large (a real EVM would run out of
// gas expanding memory to reach it).
func toOffset(v u256.Int) (uint64, error) {
	if !v.IsUint64() || v.Uint64() > memoryCap {
		return 0, ErrOutOfGas
	}
	return v.Uint64(), nil
}

// toRegion converts an (offset, size) stack pair to a memory region,
// validating the sum jointly: offset and size may each sit at memoryCap,
// but a non-empty region must end at or below the cap too. Checking only
// the parts individually would defer the offset+size overflow to the
// memory-charge path; validating here keeps every region that reaches
// chargeMemory/expand arithmetically safe. A zero-size region is valid at
// any in-range offset (it touches no memory), matching chargeMemory's
// size==0 fast path.
func toRegion(offV, sizeV u256.Int) (off, size uint64, err error) {
	off, err = toOffset(offV)
	if err != nil {
		return 0, 0, err
	}
	size, err = toOffset(sizeV)
	if err != nil {
		return 0, 0, err
	}
	if size > 0 && off+size > memoryCap {
		return 0, 0, ErrOutOfGas
	}
	return off, size, nil
}

// zeroPadded returns size bytes of src starting at offset, zero-padding past
// the end, per *COPY opcode semantics.
func zeroPadded(src []byte, offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	out := make([]byte, size)
	if offset < uint64(len(src)) {
		copy(out, src[offset:])
	}
	return out
}

// runReference executes the frame's code to completion and returns its
// output, decoding one opcode at a time. It is the retained reference
// interpreter: runFast (interp_fast.go) is the production path, and the
// lockstep harness in internal/evm/parity executes both over identical
// frames to prove they agree on every observable — step traces, outputs,
// gas, errors, and state writes. Keep the two loops in sync; behavioral
// changes must land in both or the parity suite fails.
func (e *EVM) runReference(f *Frame) ([]byte, error) {
	if len(f.code) == 0 {
		return nil, nil // calls to code-less accounts succeed with no output
	}
	var pc uint64
	codeLen := uint64(len(f.code))

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
				f.stack.Push(u256.FromBytes(zeroPadded(f.input, offV.Uint64(), 32)))
			}
		case CALLDATASIZE:
			f.stack.Push(u256.FromUint64(uint64(len(f.input))))
		case CALLDATACOPY:
			if err := e.opCopy(f, f.input); err != nil {
				return nil, err
			}
		case CODESIZE:
			f.stack.Push(u256.FromUint64(codeLen))
		case CODECOPY:
			if err := e.opCopy(f, f.code); err != nil {
				return nil, err
			}
		case GASPRICE:
			f.stack.Push(e.cfg.Tx.GasPrice)
		case EXTCODESIZE:
			addr := etypes.AddressFromWord(f.stack.Pop())
			f.stack.Push(u256.FromUint64(uint64(len(e.state.GetCode(addr)))))
		case EXTCODECOPY:
			addr := etypes.AddressFromWord(f.stack.Pop())
			if err := e.opCopy(f, e.state.GetCode(addr)); err != nil {
				return nil, err
			}
		case RETURNDATASIZE:
			f.stack.Push(u256.FromUint64(uint64(len(f.returnData))))
		case RETURNDATACOPY:
			if err := e.opCopy(f, f.returnData); err != nil {
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
			if !f.validJumpdest(dest) {
				return nil, ErrInvalidJump
			}
			pc = dest.Uint64()
			continue
		case JUMPI:
			dest, cond := f.stack.Pop(), f.stack.Pop()
			if !cond.IsZero() {
				if !f.validJumpdest(dest) {
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

// frameOutput reads the RETURN/REVERT output region.
func (e *EVM) frameOutput(f *Frame, offV, sizeV u256.Int) ([]byte, error) {
	off, size, err := toRegion(offV, sizeV)
	if err != nil {
		return nil, err
	}
	if err := f.chargeMemory(off, size); err != nil {
		return nil, err
	}
	return f.memory.Get(off, size), nil
}

// boolWord converts a bool to the EVM's 0/1 word.
func boolWord(b bool) u256.Int {
	if b {
		return u256.One()
	}
	return u256.Zero()
}

// shiftAmount applies an Shl/Shr-style shift with 256-capped amounts.
func shiftAmount(shift, x u256.Int, op func(u256.Int, uint) u256.Int) u256.Int {
	if !shift.IsUint64() || shift.Uint64() >= 256 {
		return u256.Zero()
	}
	return op(x, uint(shift.Uint64()))
}

// opCopy implements the shared CALLDATACOPY/CODECOPY/RETURNDATACOPY/
// EXTCODECOPY semantics: pop destOffset, srcOffset, size and copy with
// zero padding.
func (e *EVM) opCopy(f *Frame, src []byte) error {
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
	f.memory.copyWithin(dst, zeroPadded(src, srcOff, size))
	return nil
}

// opLog implements LOG0..LOG4.
func (e *EVM) opLog(f *Frame, topicCount int) error {
	if f.static {
		return ErrWriteProtection
	}
	offV, sizeV := f.stack.Pop(), f.stack.Pop()
	off, size, err := toRegion(offV, sizeV)
	if err != nil {
		return err
	}
	if err := f.chargeMemory(off, size); err != nil {
		return err
	}
	if err := f.chargeGas(gasLogByte * size); err != nil {
		return err
	}
	topics := make([]etypes.Hash, topicCount)
	for i := 0; i < topicCount; i++ {
		topics[i] = etypes.HashFromWord(f.stack.Pop())
	}
	e.state.AddLog(f.address, topics, f.memory.Get(off, size))
	return nil
}

// opCreate implements CREATE and CREATE2 from within a frame.
func (e *EVM) opCreate(f *Frame, op Op) error {
	if f.static {
		return ErrWriteProtection
	}
	value := f.stack.Pop()
	offV, sizeV := f.stack.Pop(), f.stack.Pop()
	var salt etypes.Hash
	if op == CREATE2 {
		salt = etypes.HashFromWord(f.stack.Pop())
	}
	off, size, err := toRegion(offV, sizeV)
	if err != nil {
		return err
	}
	if err := f.chargeMemory(off, size); err != nil {
		return err
	}
	initCode := f.memory.Get(off, size)

	// Forward all but 1/64 of remaining gas (EIP-150).
	childGas := f.gas - f.gas/64
	f.gas -= childGas

	var res CreateResult
	if op == CREATE2 {
		res = e.Create2(f.address, initCode, salt, childGas, value)
	} else {
		res = e.Create(f.address, initCode, childGas, value)
	}
	if res.Err == ErrHalted {
		return ErrHalted
	}
	f.gas += res.GasLeft
	f.returnData = nil
	if res.Err != nil {
		if res.Err == ErrRevert {
			f.returnData = res.Output
		}
		f.stack.Push(u256.Zero())
		return nil
	}
	f.stack.Push(res.Address.Word())
	return nil
}

// opCall implements the CALL/CALLCODE/DELEGATECALL/STATICCALL family.
func (e *EVM) opCall(f *Frame, op Op) error {
	gasV := f.stack.Pop()
	addr := etypes.AddressFromWord(f.stack.Pop())
	var value u256.Int
	if op == CALL || op == CALLCODE {
		value = f.stack.Pop()
	}
	inOffV, inSizeV := f.stack.Pop(), f.stack.Pop()
	outOffV, outSizeV := f.stack.Pop(), f.stack.Pop()

	if op == CALL && f.static && !value.IsZero() {
		return ErrWriteProtection
	}

	inOff, inSize, err := toRegion(inOffV, inSizeV)
	if err != nil {
		return err
	}
	outOff, outSize, err := toRegion(outOffV, outSizeV)
	if err != nil {
		return err
	}
	if err := f.chargeMemory(inOff, inSize); err != nil {
		return err
	}
	if err := f.chargeMemory(outOff, outSize); err != nil {
		return err
	}
	if !value.IsZero() {
		if err := f.chargeGas(gasCallValue); err != nil {
			return err
		}
	}

	input := f.memory.Get(inOff, inSize)

	// EIP-150 gas forwarding: at most all-but-1/64 of what remains.
	available := f.gas - f.gas/64
	childGas := available
	if gasV.IsUint64() && gasV.Uint64() < available {
		childGas = gasV.Uint64()
	}
	f.gas -= childGas
	if !value.IsZero() {
		childGas += gasCallStipend
	}

	var res CallResult
	switch op {
	case CALL:
		res = e.call(CallKindCall, f.address, f.address, addr, addr, input, childGas, value, f.static)
	case CALLCODE:
		// Execute addr's code with our own storage; caller is self.
		res = e.call(CallKindCallCode, f.address, f.address, f.address, addr, input, childGas, value, f.static)
	case DELEGATECALL:
		// Preserve caller and value; our storage, their code.
		res = e.call(CallKindDelegateCall, f.address, f.caller, f.address, addr, input, childGas, f.value, f.static)
	case STATICCALL:
		res = e.call(CallKindStaticCall, f.address, f.address, addr, addr, input, childGas, u256.Zero(), true)
	}
	if res.Err == ErrHalted {
		return ErrHalted
	}
	f.gas += res.GasLeft
	f.returnData = res.Output

	if outSize > 0 && len(res.Output) > 0 {
		n := uint64(len(res.Output))
		if n > outSize {
			n = outSize
		}
		f.memory.Set(outOff, res.Output[:n])
	}
	f.stack.Push(boolWord(res.Err == nil))
	return nil
}
