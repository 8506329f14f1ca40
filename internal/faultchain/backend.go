// Package faultchain makes the analyzer's node boundary fallible — and the
// analyzer resilient to it.
//
// The production Proxion deployment reads an Ethereum archive node over
// RPC: bytecode fetches for detection and millions of historical
// getStorageAt reads for Algorithm 1. Real nodes time out, rate-limit,
// return transient 5xx errors, and serve stale answers from lagging
// replicas. The in-memory chain.Chain can do none of those things, so this
// package supplies the missing failure surface in three layers:
//
//	chain.Reader  ──NewNodeBackend──▶  Backend (errorful, ctx-aware)
//	Backend       ──NewInjector─────▶  Backend (deterministic seeded faults)
//	Backend       ──NewClient───────▶  chain.Reader (retries, backoff,
//	                                   breaker, bounded in-flight reads)
//
// The Client closes the loop: the detector and the streaming engine keep
// speaking error-free chain.Reader, while every read underneath can fail
// and be retried. A read that exhausts the retry budget surfaces as a
// *chain.ReadError panic, which the engine converts into an Unresolved
// report (see the chain.Reader error contract).
package faultchain

import (
	"context"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/u256"
)

// Backend is the fallible, context-aware twin of chain.Reader: the shape of
// the node RPC surface before the resilience layer absorbs its failures.
// Method set and semantics mirror chain.Reader one-to-one; every call can
// observe cancellation and return a transport error.
//
// The chain-level enumeration calls (Config, CurrentBlock, LatestHeader,
// HeaderByNumber, Contracts) are cheap, cacheable metadata in a real
// deployment — headers are tiny and contract lists come from an offline
// index, not per-contract RPC — so the injector leaves them fault-free and
// only the per-account reads and BlockDelta participate in fault schedules:
// a block's logs and state diff are a real RPC against a specific height,
// and the one read a lagging replica is most often wrong about.
type Backend interface {
	Config(ctx context.Context) (chain.Config, error)
	CurrentBlock(ctx context.Context) (uint64, error)
	LatestHeader(ctx context.Context) (chain.BlockHeader, error)
	HeaderByNumber(ctx context.Context, n uint64) (chain.BlockHeader, error)
	Contracts(ctx context.Context) ([]etypes.Address, error)

	Code(ctx context.Context, addr etypes.Address) ([]byte, error)
	CodeHash(ctx context.Context, addr etypes.Address) (etypes.Hash, error)
	CreatedAt(ctx context.Context, addr etypes.Address) (uint64, error)
	Exists(ctx context.Context, addr etypes.Address) (bool, error)
	State(ctx context.Context, addr etypes.Address, key etypes.Hash) (etypes.Hash, error)
	Balance(ctx context.Context, addr etypes.Address) (u256.Int, error)
	Nonce(ctx context.Context, addr etypes.Address) (uint64, error)
	TxSelectors(ctx context.Context, addr etypes.Address) ([][4]byte, error)

	StorageAt(ctx context.Context, addr etypes.Address, slot etypes.Hash, block uint64) (etypes.Hash, error)
	BlockDelta(ctx context.Context, block uint64) (chain.BlockDelta, error)
}

// NonBlocker is an optional Backend capability: a backend returning true
// guarantees its calls complete without ever blocking on I/O or sleeping
// (beyond checking ctx.Err() at entry). The client uses the guarantee to
// skip per-attempt deadline contexts — a deadline on a call that cannot
// block is unobservable, and context.WithTimeout is the dominant cost on
// the fault-free hot path. Backends that do not implement NonBlocker are
// conservatively assumed to block.
type NonBlocker interface {
	NonBlocking() bool
}

// NodeBackend adapts any chain.Reader into a Backend: the perfect node,
// which honors cancellation but never fails on its own. It is the base of
// every injector/client stack.
type NodeBackend struct {
	r chain.Reader
}

// NewNodeBackend wraps a reader as a fallible backend.
func NewNodeBackend(r chain.Reader) *NodeBackend { return &NodeBackend{r: r} }

// Reader returns the wrapped reader.
func (b *NodeBackend) Reader() chain.Reader { return b.r }

// NonBlocking implements NonBlocker: in-process reads never hang.
func (b *NodeBackend) NonBlocking() bool { return true }

// Config implements Backend.
func (b *NodeBackend) Config(ctx context.Context) (chain.Config, error) {
	if err := ctx.Err(); err != nil {
		return chain.Config{}, err
	}
	return b.r.Config(), nil
}

// CurrentBlock implements Backend.
func (b *NodeBackend) CurrentBlock(ctx context.Context) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.r.CurrentBlock(), nil
}

// LatestHeader implements Backend.
func (b *NodeBackend) LatestHeader(ctx context.Context) (chain.BlockHeader, error) {
	if err := ctx.Err(); err != nil {
		return chain.BlockHeader{}, err
	}
	return b.r.LatestHeader(), nil
}

// HeaderByNumber implements Backend.
func (b *NodeBackend) HeaderByNumber(ctx context.Context, n uint64) (chain.BlockHeader, error) {
	if err := ctx.Err(); err != nil {
		return chain.BlockHeader{}, err
	}
	return b.r.HeaderByNumber(n)
}

// Contracts implements Backend.
func (b *NodeBackend) Contracts(ctx context.Context) ([]etypes.Address, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.r.Contracts(), nil
}

// Code implements Backend.
func (b *NodeBackend) Code(ctx context.Context, addr etypes.Address) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.r.Code(addr), nil
}

// CodeHash implements Backend.
func (b *NodeBackend) CodeHash(ctx context.Context, addr etypes.Address) (etypes.Hash, error) {
	if err := ctx.Err(); err != nil {
		return etypes.Hash{}, err
	}
	return b.r.CodeHash(addr), nil
}

// CreatedAt implements Backend.
func (b *NodeBackend) CreatedAt(ctx context.Context, addr etypes.Address) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.r.CreatedAt(addr), nil
}

// Exists implements Backend.
func (b *NodeBackend) Exists(ctx context.Context, addr etypes.Address) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return b.r.Exists(addr), nil
}

// State implements Backend.
func (b *NodeBackend) State(ctx context.Context, addr etypes.Address, key etypes.Hash) (etypes.Hash, error) {
	if err := ctx.Err(); err != nil {
		return etypes.Hash{}, err
	}
	return b.r.GetState(addr, key), nil
}

// Balance implements Backend.
func (b *NodeBackend) Balance(ctx context.Context, addr etypes.Address) (u256.Int, error) {
	if err := ctx.Err(); err != nil {
		return u256.Int{}, err
	}
	return b.r.GetBalance(addr), nil
}

// Nonce implements Backend.
func (b *NodeBackend) Nonce(ctx context.Context, addr etypes.Address) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.r.GetNonce(addr), nil
}

// TxSelectors implements Backend.
func (b *NodeBackend) TxSelectors(ctx context.Context, addr etypes.Address) ([][4]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.r.TxSelectors(addr), nil
}

// StorageAt implements Backend.
func (b *NodeBackend) StorageAt(ctx context.Context, addr etypes.Address, slot etypes.Hash, block uint64) (etypes.Hash, error) {
	if err := ctx.Err(); err != nil {
		return etypes.Hash{}, err
	}
	return b.r.GetStorageAt(addr, slot, block), nil
}

// BlockDelta implements Backend.
func (b *NodeBackend) BlockDelta(ctx context.Context, block uint64) (chain.BlockDelta, error) {
	if err := ctx.Err(); err != nil {
		return chain.BlockDelta{}, err
	}
	return b.r.BlockDelta(block), nil
}

var _ Backend = (*NodeBackend)(nil)
