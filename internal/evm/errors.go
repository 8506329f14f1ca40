package evm

import "errors"

// Execution errors. ErrRevert carries normal REVERT semantics (state rolled
// back, return data preserved); all others consume remaining gas in the
// failing frame.
var (
	ErrStackUnderflow   = errors.New("evm: stack underflow")
	ErrStackOverflow    = errors.New("evm: stack overflow")
	ErrInvalidJump      = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode    = errors.New("evm: invalid opcode")
	ErrOutOfGas         = errors.New("evm: out of gas")
	ErrRevert           = errors.New("evm: execution reverted")
	ErrWriteProtection  = errors.New("evm: write protection (static call)")
	ErrCallDepth        = errors.New("evm: max call depth exceeded")
	ErrInsufficientFund = errors.New("evm: insufficient balance for transfer")
	ErrCodeSizeLimit    = errors.New("evm: created code exceeds size limit")
	ErrStepLimit        = errors.New("evm: step limit exceeded")
	// ErrHalted ends a run whose tracer asked to stop (Halter): every open
	// frame unwinds with it, as with any other non-revert failure.
	ErrHalted = errors.New("evm: halted by tracer")
)
