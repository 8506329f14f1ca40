// Replay view: a fully built chain served as of a settable head, the way a
// node that has not yet seen later blocks would serve it.
package faultchain

import (
	"sync/atomic"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/u256"
)

// cappedView serves the underlying chain as of the height head() returns.
// Contracts deployed after that height are absent from its enumeration,
// latest-state reads answer as of that height via the archive API, and
// reads the view provably cannot answer yet — archive reads past its head,
// per-account reads about contracts it has not seen deployed — fail with a
// ReadError instead of serving clamped state, the way a real node reports
// a missing state root.
type cappedView struct {
	// R is the up-to-date chain being capped.
	R    chain.Reader
	head func() uint64
}

// Config passes through.
func (s *cappedView) Config() chain.Config { return s.R.Config() }

// CurrentBlock reports the capped head.
func (s *cappedView) CurrentBlock() uint64 { return s.head() }

// LatestHeader reports the header at the capped head.
func (s *cappedView) LatestHeader() chain.BlockHeader {
	h, err := s.R.HeaderByNumber(s.head())
	if err != nil {
		return s.R.LatestHeader()
	}
	return h
}

// HeaderByNumber refuses heights this view has not reached.
func (s *cappedView) HeaderByNumber(n uint64) (chain.BlockHeader, error) {
	if n > s.head() {
		return chain.BlockHeader{}, errStaleHeight
	}
	return s.R.HeaderByNumber(n)
}

// Contracts hides contracts deployed after the capped head.
func (s *cappedView) Contracts() []etypes.Address {
	head := s.head()
	all := s.R.Contracts()
	out := make([]etypes.Address, 0, len(all))
	for _, a := range all {
		if s.R.CreatedAt(a) <= head {
			out = append(out, a)
		}
	}
	return out
}

// visible reports whether addr exists as of the capped head. A contract
// the full chain knows but this view has not seen deployed yet is a
// behind-head condition, not a nonexistent account — the read fails so a
// caller retries instead of caching an empty-code answer.
func (s *cappedView) visible(addr etypes.Address) bool {
	if !s.R.Exists(addr) {
		return false
	}
	if s.R.CreatedAt(addr) > s.head() {
		panic(&chain.ReadError{Op: "account", Addr: addr, Attempts: 1, Err: errStaleHeight})
	}
	return true
}

// Code hides bytecode of contracts this view has not seen deployed.
func (s *cappedView) Code(addr etypes.Address) []byte {
	if !s.visible(addr) {
		return nil
	}
	return s.R.Code(addr)
}

// CodeHash mirrors Code's visibility.
func (s *cappedView) CodeHash(addr etypes.Address) etypes.Hash {
	if !s.visible(addr) {
		return etypes.Hash{}
	}
	return s.R.CodeHash(addr)
}

// CreatedAt passes through for visible contracts, zero otherwise.
func (s *cappedView) CreatedAt(addr etypes.Address) uint64 {
	if !s.visible(addr) {
		return 0
	}
	return s.R.CreatedAt(addr)
}

// Exists mirrors the capped view.
func (s *cappedView) Exists(addr etypes.Address) bool { return s.visible(addr) }

// GetState serves the slot as of the capped head.
func (s *cappedView) GetState(addr etypes.Address, key etypes.Hash) etypes.Hash {
	if !s.visible(addr) {
		return etypes.Hash{}
	}
	return s.R.GetStorageAt(addr, key, s.head())
}

// GetBalance passes through (balances carry no history here).
func (s *cappedView) GetBalance(addr etypes.Address) u256.Int { return s.R.GetBalance(addr) }

// GetNonce passes through.
func (s *cappedView) GetNonce(addr etypes.Address) uint64 { return s.R.GetNonce(addr) }

// TxSelectors passes through.
func (s *cappedView) TxSelectors(addr etypes.Address) [][4]byte { return s.R.TxSelectors(addr) }

// GetStorageAt refuses archive reads beyond the capped head: the view has
// no state for that block yet, and a clamped answer would hand a follower
// a pre-upgrade value for a post-upgrade block.
func (s *cappedView) GetStorageAt(addr etypes.Address, slot etypes.Hash, block uint64) etypes.Hash {
	if head := s.head(); block > head {
		panic(&chain.ReadError{Op: "storage-at", Addr: addr, Attempts: 1, Err: errStaleHeight})
	}
	return s.R.GetStorageAt(addr, slot, block)
}

// BlockDelta refuses blocks beyond the capped head for the same reason: an
// empty delta for a block this view has not reached would let a follower
// step over the block's deployments and upgrades.
func (s *cappedView) BlockDelta(b uint64) chain.BlockDelta {
	if b > s.head() {
		panic(&chain.ReadError{Op: "block-delta", Attempts: 1, Err: errStaleHeight})
	}
	return s.R.BlockDelta(b)
}

// APICalls passes through to the underlying chain.
func (s *cappedView) APICalls() int64 { return s.R.APICalls() }

var errStaleHeight = &staleHeightError{}

type staleHeightError struct{}

func (*staleHeightError) Error() string { return "faultchain: height beyond stale replica head" }

// ReplayReader reveals a fully built chain block-by-block: its head is
// pinned to SetHead's value (clamped to the real head). The watch-parity
// harness follows a scripted upgrade timeline through one of these, so
// every analysis the follower runs sees exactly the state that existed
// when the followed block was the head.
type ReplayReader struct {
	cappedView
	h atomic.Uint64
}

var _ chain.Reader = (*ReplayReader)(nil)

// NewReplayReader wraps r with a settable head, initially 0.
func NewReplayReader(r chain.Reader) *ReplayReader {
	p := &ReplayReader{}
	p.R = r
	p.head = func() uint64 {
		full := r.CurrentBlock()
		if h := p.h.Load(); h < full {
			return h
		}
		return full
	}
	return p
}

// SetHead moves the revealed head (values beyond the real head clamp).
func (p *ReplayReader) SetHead(h uint64) { p.h.Store(h) }
