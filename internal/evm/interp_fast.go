package evm

import (
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/u256"
)

// runFast executes the frame's pre-decoded program; it is the only loop
// the package ships. It mirrors the byte-at-a-time reference loop kept in
// the package's tests (interp_ref_test.go) exactly — same error ordering
// (step limit, step count, defined check, stack depth, constant gas, tracer
// capture, body), same gas model, same state effects — but dispatches on
// the dense pre-decoded kind, reads PUSH immediates already decoded into
// the program, and resolves jumps through the program's index table. The
// lockstep parity tests hold the two loops together to prove the
// equivalence rather than assume it.
func (e *EVM) runFast(f *Frame) ([]byte, error) {
	prog := &f.prog
	ins := prog.instrs // empty for code-less accounts: the call succeeds with no output
	tracer := e.cfg.Tracer
	limit := e.cfg.StepLimit
	st := &f.stack

	for ip := 0; ip < len(ins); {
		in := &ins[ip]

		if e.steps >= limit {
			return nil, ErrStepLimit
		}
		e.steps++
		if in.kind == kindInvalid {
			return nil, ErrInvalidOpcode
		}
		if st.n < int(in.need) {
			return nil, ErrStackUnderflow
		}
		if st.n+int(in.peak) > stackLimit {
			return nil, ErrStackOverflow
		}
		if f.gas < uint64(in.gas) {
			return nil, ErrOutOfGas
		}
		f.gas -= uint64(in.gas)
		if tracer != nil {
			tracer.CaptureStep(f, uint64(in.pc), in.op)
		}

		switch in.kind {
		case kindPush:
			// Copied from where the program holds it straight into the
			// slot: through Push it would pass two temporaries.
			st.data[st.n] = *prog.word(in.imm)
			st.n++
		case kindDup:
			st.dup(int(in.n))
		case kindSwap:
			st.swap(int(in.n))
		case kindLog:
			if err := e.opLog(f, int(in.n)); err != nil {
				return nil, err
			}

		case uint16(STOP):
			return nil, nil

		case uint16(ADD):
			a, b := st.Pop(), st.Pop()
			st.Push(a.Add(b))
		case uint16(MUL):
			a, b := st.Pop(), st.Pop()
			st.Push(a.Mul(b))
		case uint16(SUB):
			a, b := st.Pop(), st.Pop()
			st.Push(a.Sub(b))
		case uint16(DIV):
			a, b := st.Pop(), st.Pop()
			st.Push(a.Div(b))
		case uint16(SDIV):
			a, b := st.Pop(), st.Pop()
			st.Push(a.SDiv(b))
		case uint16(MOD):
			a, b := st.Pop(), st.Pop()
			st.Push(a.Mod(b))
		case uint16(SMOD):
			a, b := st.Pop(), st.Pop()
			st.Push(a.SMod(b))
		case uint16(ADDMOD):
			a, b, m := st.Pop(), st.Pop(), st.Pop()
			st.Push(a.AddMod(b, m))
		case uint16(MULMOD):
			a, b, m := st.Pop(), st.Pop(), st.Pop()
			st.Push(a.MulMod(b, m))
		case uint16(EXP):
			base, exp := st.Pop(), st.Pop()
			if err := f.chargeGas(gasExpByte * uint64((exp.BitLen()+7)/8)); err != nil {
				return nil, err
			}
			st.Push(base.Exp(exp))
		case uint16(SIGNEXTEND):
			b, x := st.Pop(), st.Pop()
			st.Push(x.SignExtend(b))

		case uint16(LT):
			a, b := st.Pop(), st.Pop()
			st.Push(boolWord(a.Lt(b)))
		case uint16(GT):
			a, b := st.Pop(), st.Pop()
			st.Push(boolWord(a.Gt(b)))
		case uint16(SLT):
			a, b := st.Pop(), st.Pop()
			st.Push(boolWord(a.Slt(b)))
		case uint16(SGT):
			a, b := st.Pop(), st.Pop()
			st.Push(boolWord(a.Sgt(b)))
		case uint16(EQ):
			a, b := st.Pop(), st.Pop()
			st.Push(boolWord(a.Eq(b)))
		case uint16(ISZERO):
			a := st.Pop()
			st.Push(boolWord(a.IsZero()))
		case uint16(AND):
			a, b := st.Pop(), st.Pop()
			st.Push(a.And(b))
		case uint16(OR):
			a, b := st.Pop(), st.Pop()
			st.Push(a.Or(b))
		case uint16(XOR):
			a, b := st.Pop(), st.Pop()
			st.Push(a.Xor(b))
		case uint16(NOT):
			a := st.Pop()
			st.Push(a.Not())
		case uint16(BYTE):
			i, x := st.Pop(), st.Pop()
			if !i.IsUint64() {
				st.Push(u256.Zero())
			} else {
				st.Push(x.Byte(i.Uint64()))
			}
		case uint16(SHL):
			shift, x := st.Pop(), st.Pop()
			st.Push(shiftAmount(shift, x, u256.Int.Shl))
		case uint16(SHR):
			shift, x := st.Pop(), st.Pop()
			st.Push(shiftAmount(shift, x, u256.Int.Shr))
		case uint16(SAR):
			shift, x := st.Pop(), st.Pop()
			if !shift.IsUint64() || shift.Uint64() >= 256 {
				st.Push(x.Sar(256))
			} else {
				st.Push(x.Sar(uint(shift.Uint64())))
			}

		case uint16(KECCAK256):
			offV, sizeV := st.Pop(), st.Pop()
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
			st.Push(u256.FromBytes32(sum))

		case uint16(ADDRESS):
			st.Push(f.address.Word())
		case uint16(BALANCE):
			addr := etypes.AddressFromWord(st.Pop())
			st.Push(e.state.GetBalance(addr))
		case uint16(ORIGIN):
			st.Push(e.cfg.Tx.Origin.Word())
		case uint16(CALLER):
			st.Push(f.caller.Word())
		case uint16(CALLVALUE):
			st.Push(f.value)
		case uint16(CALLDATALOAD):
			offV := st.Pop()
			if !offV.IsUint64() {
				st.Push(u256.Zero())
			} else {
				st.Push(u256.FromBytes(zeroPadded(f.input, offV.Uint64(), 32)))
			}
		case uint16(CALLDATASIZE):
			st.Push(u256.FromUint64(uint64(len(f.input))))
		case uint16(CALLDATACOPY):
			if err := e.opCopy(f, f.input); err != nil {
				return nil, err
			}
		case uint16(CODESIZE):
			st.Push(u256.FromUint64(prog.codeLen))
		case uint16(CODECOPY):
			if err := e.opCopy(f, f.code); err != nil {
				return nil, err
			}
		case uint16(GASPRICE):
			st.Push(e.cfg.Tx.GasPrice)
		case uint16(EXTCODESIZE):
			addr := etypes.AddressFromWord(st.Pop())
			st.Push(u256.FromUint64(uint64(len(e.state.GetCode(addr)))))
		case uint16(EXTCODECOPY):
			addr := etypes.AddressFromWord(st.Pop())
			if err := e.opCopy(f, e.state.GetCode(addr)); err != nil {
				return nil, err
			}
		case uint16(RETURNDATASIZE):
			st.Push(u256.FromUint64(uint64(len(f.returnData))))
		case uint16(RETURNDATACOPY):
			if err := e.opCopy(f, f.returnData); err != nil {
				return nil, err
			}
		case uint16(EXTCODEHASH):
			addr := etypes.AddressFromWord(st.Pop())
			st.Push(e.state.GetCodeHash(addr).Word())

		case uint16(BLOCKHASH):
			numV := st.Pop()
			var h etypes.Hash
			if numV.IsUint64() && e.cfg.Block.BlockHash != nil {
				h = e.cfg.Block.BlockHash(numV.Uint64())
			}
			st.Push(h.Word())
		case uint16(COINBASE):
			st.Push(e.cfg.Block.Coinbase.Word())
		case uint16(TIMESTAMP):
			st.Push(u256.FromUint64(e.cfg.Block.Time))
		case uint16(NUMBER):
			st.Push(u256.FromUint64(e.cfg.Block.Number))
		case uint16(DIFFICULTY):
			st.Push(e.cfg.Block.Difficulty)
		case uint16(GASLIMIT):
			st.Push(u256.FromUint64(e.cfg.Block.GasLimit))
		case uint16(CHAINID):
			st.Push(e.cfg.Block.ChainID)
		case uint16(SELFBALANCE):
			st.Push(e.state.GetBalance(f.address))
		case uint16(BASEFEE):
			st.Push(e.cfg.Block.BaseFee)

		case uint16(POP):
			st.Pop()
		case uint16(MLOAD):
			offV := st.Pop()
			off, err := toOffset(offV)
			if err != nil {
				return nil, err
			}
			if err := f.chargeMemory(off, 32); err != nil {
				return nil, err
			}
			st.Push(f.memory.GetWord(off))
		case uint16(MSTORE):
			offV, val := st.Pop(), st.Pop()
			off, err := toOffset(offV)
			if err != nil {
				return nil, err
			}
			if err := f.chargeMemory(off, 32); err != nil {
				return nil, err
			}
			f.memory.SetWord(off, val)
		case uint16(MSTORE8):
			offV, val := st.Pop(), st.Pop()
			off, err := toOffset(offV)
			if err != nil {
				return nil, err
			}
			if err := f.chargeMemory(off, 1); err != nil {
				return nil, err
			}
			f.memory.SetByte(off, byte(val.Uint64()))
		case uint16(SLOAD):
			key := etypes.HashFromWord(st.Pop())
			st.Push(e.state.GetState(f.address, key).Word())
		case uint16(SSTORE):
			if f.static {
				return nil, ErrWriteProtection
			}
			key := etypes.HashFromWord(st.Pop())
			val := etypes.HashFromWord(st.Pop())
			cost := uint64(gasSstoreReset)
			if e.state.GetState(f.address, key) == (etypes.Hash{}) && val != (etypes.Hash{}) {
				cost = gasSstoreSet
			}
			if err := f.chargeGas(cost); err != nil {
				return nil, err
			}
			e.state.SetState(f.address, key, val)

		case uint16(JUMP):
			dest := st.Pop()
			nip := prog.jumpTo(dest)
			if nip < 0 {
				return nil, ErrInvalidJump
			}
			ip = int(nip)
			continue
		case uint16(JUMPI):
			dest, cond := st.Pop(), st.Pop()
			if !cond.IsZero() {
				nip := prog.jumpTo(dest)
				if nip < 0 {
					return nil, ErrInvalidJump
				}
				ip = int(nip)
				continue
			}
		case uint16(PC):
			st.Push(u256.FromUint64(uint64(in.pc)))
		case uint16(MSIZE):
			st.Push(u256.FromUint64(uint64(f.memory.Len())))
		case uint16(GAS):
			st.Push(u256.FromUint64(f.gas))
		case uint16(JUMPDEST):
			// No effect.

		case uint16(CREATE), uint16(CREATE2):
			if err := e.opCreate(f, in.op); err != nil {
				return nil, err
			}
		case uint16(CALL), uint16(CALLCODE), uint16(DELEGATECALL), uint16(STATICCALL):
			if err := e.opCall(f, in.op); err != nil {
				return nil, err
			}

		case uint16(RETURN):
			offV, sizeV := st.Pop(), st.Pop()
			out, err := e.frameOutput(f, offV, sizeV)
			if err != nil {
				return nil, err
			}
			return out, nil
		case uint16(REVERT):
			offV, sizeV := st.Pop(), st.Pop()
			out, err := e.frameOutput(f, offV, sizeV)
			if err != nil {
				return nil, err
			}
			return out, ErrRevert
		case uint16(SELFDESTRUCT):
			if f.static {
				return nil, ErrWriteProtection
			}
			beneficiary := etypes.AddressFromWord(st.Pop())
			e.state.SelfDestruct(f.address, beneficiary)
			return nil, nil

		default:
			return nil, ErrInvalidOpcode
		}
		ip++
	}
	// Running off the end of code halts like STOP.
	return nil, nil
}
