package evm

import (
	"repro/internal/etypes"
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
