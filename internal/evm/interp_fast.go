package evm

import (
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/u256"
)

// runFast executes the frame's pre-decoded program. It mirrors
// runReference exactly — same error ordering (step limit, step count,
// defined check, stack depth, constant gas, tracer capture, body), same
// gas model, same state effects — but dispatches on the dense pre-decoded
// kind, reads PUSH immediates already decoded into the program, resolves
// jumps through the program's index table, and (untraced) executes fused
// superinstructions. The parity harness in internal/evm/parity holds the
// two loops in lockstep to prove the equivalence rather than assume it.
func (e *EVM) runFast(f *Frame) ([]byte, error) {
	prog := &f.prog
	ins := prog.instrs // empty for code-less accounts: the call succeeds with no output
	tracer := e.cfg.Tracer
	limit := e.cfg.StepLimit
	st := &f.stack

	for ip := 0; ip < len(ins); {
		in := &ins[ip]

		if in.kind >= fusedKindBase {
			nip, err := e.stepFused(f, prog, in, ip)
			if err != nil {
				return nil, err
			}
			ip = nip
			continue
		}

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

// stepFused executes one fused superinstruction and returns the next
// instruction index. The fast precondition checks the folded step, stack,
// and gas requirements in one shot; exactness of need/peak (see fuseInstr)
// means the precondition fails only when some component would fail its
// reference-loop check — in which case fusedSlow replays the components
// one by one, reproducing the exact error at the exact step with the exact
// partial charges applied.
func (e *EVM) stepFused(f *Frame, prog *program, in *instr, ip int) (int, error) {
	st := &f.stack
	k := uint64(in.steps)
	if e.steps+k > e.cfg.StepLimit || st.n < int(in.need) ||
		st.n+int(in.peak) > stackLimit || f.gas < uint64(in.gas) {
		return e.fusedSlow(f, prog, in, ip)
	}
	e.steps += k
	f.gas -= uint64(in.gas)

	switch in.kind {
	case kindPushJump:
		if in.dest < 0 {
			return 0, ErrInvalidJump
		}
		return int(in.dest), nil

	case kindPushJumpI:
		cond := st.Pop()
		if cond.IsZero() {
			return ip + 1, nil
		}
		if in.dest < 0 {
			return 0, ErrInvalidJump
		}
		return int(in.dest), nil

	case kindDispatch:
		// Popped in place: a u256 popped by value is copied again for each
		// limb test.
		st.n--
		if x := &st.data[st.n]; !x.IsUint64() || x.Uint64() != uint64(in.sel) {
			return ip + 1, nil
		}
		if in.dest < 0 {
			return 0, ErrInvalidJump
		}
		return int(in.dest), nil

	case kindDupPushJumpI:
		// DUPn; PUSH dest; JUMPI nets to zero: the duplicated condition
		// and the pushed dest are both consumed by JUMPI.
		cond := st.Peek(int(in.n) - 1)
		if cond.IsZero() {
			return ip + 1, nil
		}
		if in.dest < 0 {
			return 0, ErrInvalidJump
		}
		return int(in.dest), nil

	case kindSwapPop:
		// SWAPn; POP: the word n below the top is replaced by the old top.
		top := st.n - 1
		st.data[top-int(in.n)] = st.data[top]
		st.n--
		return ip + 1, nil
	}
	return 0, ErrInvalidOpcode // unreachable: all fused kinds handled
}

// fusedSlow replays a fused superinstruction component by component with
// the reference loop's full per-op discipline. It runs only when the fast
// precondition fails, so some component is about to fail — but which one,
// and with how much state consumed first, must match the reference loop
// exactly; executing the components for real (not just re-checking) keeps
// this correct even for sequences that partially succeed.
func (e *EVM) fusedSlow(f *Frame, prog *program, in *instr, ip int) (int, error) {
	var ops [4]Op
	var imms [4]u256.Int
	n := fusedComponents(prog, in, &ops, &imms)

	st := &f.stack
	for i := 0; i < n; i++ {
		op := ops[i]
		if e.steps >= e.cfg.StepLimit {
			return 0, ErrStepLimit
		}
		e.steps++
		pops, pushes := stackReq(op)
		if st.n < pops {
			return 0, ErrStackUnderflow
		}
		if st.n-pops+pushes > stackLimit {
			return 0, ErrStackOverflow
		}
		if err := f.chargeGas(constGas(op)); err != nil {
			return 0, err
		}
		switch {
		case isPushLike(op):
			st.Push(imms[i])
		case op.IsDup():
			st.dup(int(op-DUP1) + 1)
		case op.IsSwap():
			st.swap(int(op-SWAP1) + 1)
		case op == POP:
			st.Pop()
		case op == EQ:
			a, b := st.Pop(), st.Pop()
			st.Push(boolWord(a.Eq(b)))
		case op == JUMP:
			dest := st.Pop()
			nip := prog.jumpTo(dest)
			if nip < 0 {
				return 0, ErrInvalidJump
			}
			return int(nip), nil
		case op == JUMPI:
			dest, cond := st.Pop(), st.Pop()
			if !cond.IsZero() {
				nip := prog.jumpTo(dest)
				if nip < 0 {
					return 0, ErrInvalidJump
				}
				return int(nip), nil
			}
		}
	}
	return ip + 1, nil
}

// fusedComponents expands a fused instr back into its source opcodes and
// push immediates for exact replay.
func fusedComponents(prog *program, in *instr, ops *[4]Op, imms *[4]u256.Int) int {
	switch in.kind {
	case kindPushJump:
		ops[0], imms[0] = in.op, *prog.word(in.imm)
		ops[1] = JUMP
		return 2
	case kindPushJumpI:
		ops[0], imms[0] = in.op, *prog.word(in.imm)
		ops[1] = JUMPI
		return 2
	case kindDispatch:
		ops[0], imms[0] = in.op, u256.FromUint64(uint64(in.sel))
		ops[1] = EQ
		ops[2], imms[2] = in.destOp, u256.FromUint64(in.imm)
		ops[3] = JUMPI
		return 4
	case kindDupPushJumpI:
		ops[0] = in.op
		ops[1], imms[1] = in.destOp, u256.FromUint64(in.imm)
		ops[2] = JUMPI
		return 3
	case kindSwapPop:
		ops[0] = in.op
		ops[1] = POP
		return 2
	}
	return 0
}
