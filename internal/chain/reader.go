package chain

import (
	"fmt"

	"repro/internal/etypes"
	"repro/internal/u256"
)

// Reader is the read-only node surface the analyzer consumes — exactly the
// calls Proxion issues against an archive node in a real deployment:
// contract enumeration, bytecode and metadata reads for detection, latest-
// state reads for emulation, the historical getStorageAt reads Algorithm 1
// binary-searches over, and the per-block change set (logs / state diff)
// the chain follower advances on.
//
// *Chain implements Reader directly (the perfect in-memory node). The
// internal/faultchain package layers two more on top: a resilient Client
// that asks a FaultHook (a schedule's Injector, failing reads as a remote
// RPC does) before each attempt, retries, breaks the circuit and bounds
// concurrency, with no per-read deadline; and a ReplayReader serving a
// chain as of a settable head. The detector and the streaming engine are
// written against Reader only, so any of them can sit underneath.
//
// Error contract: the interface is deliberately error-free — it mirrors the
// EVM's StateDB surface, whose reads cannot fail — so an implementation
// that *can* fail terminally (a resilient client whose retries are
// exhausted) signals it by panicking with a *ReadError. Every analysis
// entry point recovers that panic and reports the contract as Unresolved,
// and the chain follower recovers it — from BlockDelta like from any other
// read — into an error that leaves its cursor where it was; nothing else in
// the repository may panic with a *ReadError.
//
// APICalls contract: the counter reports *logical* archive reads — one per
// GetStorageAt call the analyzer issued — monotonically and race-free.
// Wrappers that retry a failed read against the node MUST still count the
// logical read once, never once per attempt, so the Section 6.1 efficiency
// numbers stay comparable between a perfect node and a faulty one.
// BlockDelta is a block-level read, not a GetStorageAt: it is never counted.
//
// BlockDelta contract: the answer for a block is complete or it is a
// failure. An implementation that has not seen block b yet (a replica
// behind the requested height) panics with a *ReadError like any other
// read it cannot serve; it never returns a partial delta. A follower can
// therefore advance its cursor past b on the strength of one successful
// read.
type Reader interface {
	// Config identifies the network under analysis.
	Config() Config
	// CurrentBlock returns the node's head height.
	CurrentBlock() uint64
	// LatestHeader returns the head block header.
	LatestHeader() BlockHeader
	// HeaderByNumber returns the header at a height; the error is the
	// domain "no such block" outcome, not a transport failure.
	HeaderByNumber(n uint64) (BlockHeader, error)
	// Contracts enumerates every alive contract in deterministic order.
	Contracts() []etypes.Address

	// Code returns the runtime bytecode at addr (nil when none).
	Code(addr etypes.Address) []byte
	// CodeHash returns Keccak-256 of the runtime bytecode at addr.
	CodeHash(addr etypes.Address) etypes.Hash
	// CreatedAt returns the deployment block of addr.
	CreatedAt(addr etypes.Address) uint64
	// Exists reports whether an account record exists at addr.
	Exists(addr etypes.Address) bool
	// GetState returns the latest value of a storage slot.
	GetState(addr etypes.Address, key etypes.Hash) etypes.Hash
	// GetBalance returns the latest balance of addr.
	GetBalance(addr etypes.Address) u256.Int
	// GetNonce returns the latest nonce of addr.
	GetNonce(addr etypes.Address) uint64
	// TxSelectors returns the selectors observed in past transactions to
	// addr (the diamond-extension data source).
	TxSelectors(addr etypes.Address) [][4]byte

	// GetStorageAt is the archive API: a slot's value as of the end of the
	// given block.
	GetStorageAt(addr etypes.Address, slot etypes.Hash, block uint64) etypes.Hash
	// APICalls returns the monotonic count of logical GetStorageAt reads.
	APICalls() int64

	// BlockDelta returns what block b changed: the contracts deployed in
	// it and the storage cells written in it — what a node's logs or state
	// diff provide, and what lets a follower's cost track the change
	// instead of the chain.
	BlockDelta(b uint64) BlockDelta
}

// Cell names one storage slot of one account.
type Cell struct {
	Addr etypes.Address
	Slot etypes.Hash
}

// BlockDelta is the change set of one block.
type BlockDelta struct {
	// Deployed lists the alive contracts whose deployment block is this
	// one (CreatedAt == b), sorted by address — the order Contracts uses.
	Deployed []etypes.Address
	// Written lists every cell written in the block, once each however
	// often the block rewrote it, in first-write order.
	Written []Cell
}

// The in-memory chain is the reference Reader implementation.
var _ Reader = (*Chain)(nil)

// ReadError is the terminal failure of one logical read against a fallible
// Reader implementation: the resilient client panics with it after its
// retry budget (or circuit breaker) gives up on a read, and the analysis
// layers recover it to mark the affected contract Unresolved. See the
// Reader error contract.
type ReadError struct {
	// Op names the failed read ("code", "storage-at", ...).
	Op string
	// Addr is the account the read was about (zero for chain-level reads).
	Addr etypes.Address
	// Attempts is how many times the read was tried before giving up.
	Attempts int
	// Err is the last underlying error.
	Err error
}

// Error implements error.
func (e *ReadError) Error() string {
	if e.Addr.IsZero() {
		return fmt.Sprintf("chain: %s read failed after %d attempt(s): %v", e.Op, e.Attempts, e.Err)
	}
	return fmt.Sprintf("chain: %s read for %s failed after %d attempt(s): %v", e.Op, e.Addr.Hex(), e.Attempts, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ReadError) Unwrap() error { return e.Err }

// CaptureReadError runs fn and intercepts the Reader failure contract: a
// panic with a *ReadError is returned as a value, any other panic is
// re-raised untouched. The analysis engine wraps each per-contract unit of
// work with it so one contract's exhausted retries degrade that contract to
// Unresolved instead of crashing the run.
func CaptureReadError(fn func()) (re *ReadError) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*ReadError); ok {
				re = e
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}
