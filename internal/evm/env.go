package evm

import (
	"repro/internal/etypes"
	"repro/internal/u256"
)

// StateDB is the world-state interface the interpreter executes against.
// The chain package provides the production implementation with journaling
// and history; tests use lightweight in-memory fakes.
type StateDB interface {
	// Exists reports whether an account (contract or EOA) exists.
	Exists(addr etypes.Address) bool
	// GetCode returns the runtime bytecode at addr (nil for EOAs).
	GetCode(addr etypes.Address) []byte
	// GetCodeHash returns the Keccak-256 of the code at addr.
	GetCodeHash(addr etypes.Address) etypes.Hash
	// GetBalance returns the Wei balance of addr.
	GetBalance(addr etypes.Address) u256.Int
	// Transfer moves value from one account to another; it must fail with
	// ErrInsufficientFund semantics handled by the caller (CanTransfer).
	Transfer(from, to etypes.Address, value u256.Int)
	// GetState reads a storage word.
	GetState(addr etypes.Address, key etypes.Hash) etypes.Hash
	// SetState writes a storage word.
	SetState(addr etypes.Address, key, value etypes.Hash)
	// GetNonce and SetNonce manage account nonces (CREATE derivation).
	GetNonce(addr etypes.Address) uint64
	SetNonce(addr etypes.Address, nonce uint64)
	// CreateAccount ensures an account record exists for addr.
	CreateAccount(addr etypes.Address)
	// SetCode installs runtime bytecode at addr.
	SetCode(addr etypes.Address, code []byte)
	// SelfDestruct marks the account destroyed and sweeps its balance.
	SelfDestruct(addr, beneficiary etypes.Address)
	// Snapshot returns a revision id; RevertToSnapshot undoes all state
	// changes made after the given revision was taken.
	Snapshot() int
	RevertToSnapshot(rev int)
	// AddLog records a LOG0..LOG4 event.
	AddLog(addr etypes.Address, topics []etypes.Hash, data []byte)
}

// BlockContext supplies the block-level environment opcodes. Proxion's
// emulator fills this from the latest block (or fixed, most-probable values
// such as chain id 1), per Section 4.2 of the paper.
type BlockContext struct {
	Coinbase   etypes.Address
	Number     uint64
	Time       uint64
	Difficulty u256.Int
	GasLimit   uint64
	ChainID    u256.Int
	BaseFee    u256.Int
	// BlockHash returns the hash of a recent block by number. A nil
	// function yields zero hashes.
	BlockHash func(number uint64) etypes.Hash
}

// DefaultBlockContext returns the fixed mainnet-like environment the Proxion
// emulator uses: chain id 1 and plausible recent-block values.
func DefaultBlockContext() BlockContext {
	return BlockContext{
		Coinbase:   etypes.MustAddress("0x95222290dd7278aa3ddd389cc1e1d165cc4bafe5"),
		Number:     18_473_542, // final block of October 2023, per the paper
		Time:       1_698_796_799,
		Difficulty: u256.FromUint64(0),
		GasLimit:   30_000_000,
		ChainID:    u256.One(),
		BaseFee:    u256.FromUint64(15_000_000_000),
	}
}

// TxContext supplies the transaction-level environment opcodes.
type TxContext struct {
	Origin   etypes.Address
	GasPrice u256.Int
}

// CallKind distinguishes the frame-creating instructions for tracers.
type CallKind int

// Call kinds, one per frame-creating construct.
const (
	CallKindCall CallKind = iota + 1
	CallKindDelegateCall
	CallKindStaticCall
	CallKindCallCode
	CallKindCreate
	CallKindCreate2
)

// String returns the mnemonic of the frame-creating instruction.
func (k CallKind) String() string {
	switch k {
	case CallKindCall:
		return "CALL"
	case CallKindDelegateCall:
		return "DELEGATECALL"
	case CallKindStaticCall:
		return "STATICCALL"
	case CallKindCallCode:
		return "CALLCODE"
	case CallKindCreate:
		return "CREATE"
	case CallKindCreate2:
		return "CREATE2"
	default:
		return "UNKNOWN"
	}
}

// Tracer observes interpreter execution. All methods are called
// synchronously from the interpreter loop; implementations must not retain
// the frame beyond the callback.
type Tracer interface {
	// CaptureStep fires before each opcode executes. The frame exposes the
	// operand stack and memory for inspection.
	CaptureStep(frame *Frame, pc uint64, op Op)
	// CaptureEnter fires when a new frame begins (outer call and nested
	// CALL/DELEGATECALL/STATICCALL/CALLCODE/CREATE/CREATE2).
	CaptureEnter(kind CallKind, from, to etypes.Address, input []byte, value u256.Int)
	// CaptureExit fires when the frame ends, with its output and error.
	CaptureExit(output []byte, err error)
}

// Halter is an optional extension of Tracer for an observer that can tell
// when it has seen enough. The EVM asks right after every CaptureEnter;
// once Halt reports true, the frame being entered is not run — its code is
// not even loaded —, it and every enclosing frame end with ErrHalted (each
// with its CaptureExit), and the outer call returns ErrHalted.
type Halter interface {
	Halt() bool
}
