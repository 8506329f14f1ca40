// Package evm implements an Ethereum Virtual Machine interpreter covering
// all opcodes through the Shanghai revision, including the full call family
// (CALL, CALLCODE, DELEGATECALL, STATICCALL) and contract creation (CREATE,
// CREATE2). It exposes tracing hooks that let callers observe every executed
// instruction, which is what the Proxion detector uses to watch call data
// flow through DELEGATECALL in a candidate proxy's fallback function.
//
// One loop executes every frame: runFast (interp_fast.go), over a program
// decoded once per code hash (decode.go). The byte-at-a-time reference loop
// it is held to lives in the package's tests, beside the lockstep harness
// that diffs the two.
package evm

import (
	"repro/internal/etypes"
	"repro/internal/u256"
)

const (
	// maxCallDepth is the EVM call-stack depth limit.
	maxCallDepth = 1024
	// maxCodeSize is the EIP-170 deployed-code size limit.
	maxCodeSize = 24576
	// defaultStepLimit bounds emulation of unknown bytecode so that
	// adversarial or buggy contracts cannot spin the analyzer forever.
	defaultStepLimit = 1 << 20
	// memoryCap bounds addressable memory offsets; anything beyond is
	// treated as out-of-gas, which is how a real EVM would fail too.
	memoryCap = 1 << 32
)

// Config carries the execution environment and analyzer knobs.
type Config struct {
	Block  BlockContext
	Tx     TxContext
	Tracer Tracer
	// StepLimit caps the number of executed instructions per outer call
	// (0 means the default limit). Proxion relies on this to terminate
	// emulation of adversarial bytecode.
	StepLimit uint64
	// Lenient disables balance checks on value transfers. The Proxion
	// emulator runs contracts without funding synthetic senders.
	Lenient bool
}

// EVM executes bytecode against a StateDB. An EVM value is single-use per
// goroutine; create one per transaction or emulation.
type EVM struct {
	state StateDB
	cfg   Config
	// halter is cfg.Tracer's Halter side, nil if it has none.
	halter Halter
	depth  int
	steps  uint64
	// interp, when set, runs every frame, nested ones included, in place
	// of runFast. Only the package's tests set it, to the reference loop.
	interp func(*Frame) ([]byte, error)
}

// New returns an EVM executing against state with the given configuration.
func New(state StateDB, cfg Config) *EVM {
	if cfg.StepLimit == 0 {
		cfg.StepLimit = defaultStepLimit
	}
	e := &EVM{state: state, cfg: cfg}
	e.halter, _ = cfg.Tracer.(Halter)
	return e
}

// enter reports a new frame to the tracer and returns whether the tracer
// halts the run at it, in which case the frame's exit has been reported too.
func (e *EVM) enter(kind CallKind, from, to etypes.Address, input []byte, value u256.Int) (halted bool) {
	if e.cfg.Tracer == nil {
		return false
	}
	e.cfg.Tracer.CaptureEnter(kind, from, to, input, value)
	if e.halter == nil || !e.halter.Halt() {
		return false
	}
	e.cfg.Tracer.CaptureExit(nil, ErrHalted)
	return true
}

// StateDB returns the underlying state, for tracers that need extra context.
func (e *EVM) StateDB() StateDB { return e.state }

// Frame is a single execution context: one call or creation. Exported
// accessors allow tracers to observe — but not mutate — interpreter state.
// Frames are pooled (pool.go): releaseFrame must scrub every field.
type Frame struct {
	evm         *EVM
	address     etypes.Address // storage and self context
	codeAddress etypes.Address // account the code was loaded from
	caller      etypes.Address
	input       []byte
	value       u256.Int
	code        []byte
	static      bool

	stack      Stack
	memory     Memory
	gas        uint64
	returnData []byte
	prog       program // the pre-decoded program runFast executes
}

// Address returns the frame's storage/self address.
func (f *Frame) Address() etypes.Address { return f.address }

// CodeAddress returns the account whose code is executing (differs from
// Address under DELEGATECALL and CALLCODE).
func (f *Frame) CodeAddress() etypes.Address { return f.codeAddress }

// Caller returns msg.sender for this frame.
func (f *Frame) Caller() etypes.Address { return f.caller }

// Input returns the frame's call data.
func (f *Frame) Input() []byte { return f.input }

// Value returns msg.value for this frame.
func (f *Frame) Value() u256.Int { return f.value }

// Code returns the executing bytecode.
func (f *Frame) Code() []byte { return f.code }

// Stack exposes the operand stack for tracer inspection.
func (f *Frame) Stack() *Stack { return &f.stack }

// Memory exposes frame memory for tracer inspection.
func (f *Frame) Memory() *Memory { return &f.memory }

// Gas returns the remaining gas.
func (f *Frame) Gas() uint64 { return f.gas }

// Static reports whether the frame runs under STATICCALL restrictions.
func (f *Frame) Static() bool { return f.static }

// CallResult carries the outcome of an outer call.
type CallResult struct {
	Output  []byte
	GasLeft uint64
	Err     error
}

// Call executes the code at 'to' with the given input, transferring value.
func (e *EVM) Call(caller, to etypes.Address, input []byte, gas uint64, value u256.Int) CallResult {
	return e.call(CallKindCall, caller, caller, to, to, input, gas, value, false)
}

// call is the shared frame driver for all call kinds. initiator is the
// account that executed the call instruction — it is what tracers see as
// "from". For DELEGATECALL it differs from caller, which is the preserved
// msg.sender of the parent frame.
func (e *EVM) call(kind CallKind, initiator, caller, self, codeAddr etypes.Address, input []byte, gas uint64, value u256.Int, static bool) CallResult {
	if e.depth >= maxCallDepth {
		return CallResult{GasLeft: gas, Err: ErrCallDepth}
	}
	transfersValue := kind == CallKindCall && !value.IsZero()
	if transfersValue && !e.cfg.Lenient && e.state.GetBalance(caller).Lt(value) {
		return CallResult{GasLeft: gas, Err: ErrInsufficientFund}
	}

	if e.enter(kind, initiator, codeAddr, input, value) {
		return CallResult{Err: ErrHalted}
	}

	// Precompiled contracts execute natively: no frame, no storage.
	if fn, base, ok := precompile(codeAddr); ok {
		res := runPrecompile(fn, base, input, gas)
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.CaptureExit(res.Output, res.Err)
		}
		return res
	}

	snapshot := e.state.Snapshot()
	if transfersValue && !e.cfg.Lenient {
		e.state.Transfer(caller, self, value)
	}

	frame := acquireFrame()
	frame.evm = e
	frame.address = self
	frame.codeAddress = codeAddr
	frame.caller = caller
	frame.input = input
	frame.value = value
	frame.code = e.state.GetCode(codeAddr)
	frame.static = static
	frame.gas = gas

	e.depth++
	output, err := e.runFrame(frame, codeAddr)
	e.depth--

	if err != nil {
		e.state.RevertToSnapshot(snapshot)
		if err != ErrRevert {
			// Non-revert failures consume all gas in the frame.
			frame.gas = 0
		}
	}
	gasLeft := frame.gas
	releaseFrame(frame)
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.CaptureExit(output, err)
	}
	return CallResult{Output: output, GasLeft: gasLeft, Err: err}
}

// runFrame executes a frame's code on its pre-decoded program, fetched
// from the per-code-hash cache for deployed code (codeAddr set) and decoded
// fresh for init code.
func (e *EVM) runFrame(f *Frame, codeAddr etypes.Address) ([]byte, error) {
	if e.interp != nil {
		return e.interp(f)
	}
	if len(f.code) > 0 {
		var hash etypes.Hash
		if codeAddr != (etypes.Address{}) {
			hash = e.state.GetCodeHash(codeAddr)
		}
		f.prog = programFor(hash, f.code)
	}
	return e.runFast(f)
}

// CreateResult carries the outcome of contract creation.
type CreateResult struct {
	Address etypes.Address
	Output  []byte
	GasLeft uint64
	Err     error
}

// Create deploys a contract: runs initCode and installs its return value as
// the account code at the CREATE-derived address.
func (e *EVM) Create(caller etypes.Address, initCode []byte, gas uint64, value u256.Int) CreateResult {
	nonce := e.state.GetNonce(caller)
	addr := etypes.CreateAddress(caller, nonce)
	return e.create(CallKindCreate, caller, addr, initCode, gas, value)
}

// Create2 deploys a contract at the CREATE2-derived address.
func (e *EVM) Create2(caller etypes.Address, initCode []byte, salt etypes.Hash, gas uint64, value u256.Int) CreateResult {
	addr := etypes.CreateAddress2(caller, salt, initCode)
	return e.create(CallKindCreate2, caller, addr, initCode, gas, value)
}

func (e *EVM) create(kind CallKind, caller, addr etypes.Address, initCode []byte, gas uint64, value u256.Int) CreateResult {
	if e.depth >= maxCallDepth {
		return CreateResult{GasLeft: gas, Err: ErrCallDepth}
	}
	if !value.IsZero() && !e.cfg.Lenient && e.state.GetBalance(caller).Lt(value) {
		return CreateResult{GasLeft: gas, Err: ErrInsufficientFund}
	}
	if e.enter(kind, caller, addr, initCode, value) {
		return CreateResult{Err: ErrHalted}
	}
	snapshot := e.state.Snapshot()
	e.state.SetNonce(caller, e.state.GetNonce(caller)+1)
	e.state.CreateAccount(addr)
	e.state.SetNonce(addr, 1)
	if !value.IsZero() && !e.cfg.Lenient {
		e.state.Transfer(caller, addr, value)
	}

	frame := acquireFrame()
	frame.evm = e
	frame.address = addr
	frame.codeAddress = addr
	frame.caller = caller
	frame.value = value
	frame.code = initCode
	frame.gas = gas

	// Init code has no deployed account to hash, so runFrame's zero
	// codeAddr decodes it fresh instead of touching the program cache.
	e.depth++
	output, err := e.runFrame(frame, etypes.Address{})
	e.depth--

	if err == nil && len(output) > maxCodeSize {
		err = ErrCodeSizeLimit
	}
	if err == nil {
		e.state.SetCode(addr, output)
	} else {
		e.state.RevertToSnapshot(snapshot)
		if err != ErrRevert {
			frame.gas = 0
		}
	}
	gasLeft := frame.gas
	releaseFrame(frame)
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.CaptureExit(output, err)
	}
	return CreateResult{Address: addr, Output: output, GasLeft: gasLeft, Err: err}
}
