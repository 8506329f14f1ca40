// Replay view: a fully built chain served as of a settable head, the way a
// node that has not yet seen later blocks would serve it.
package faultchain

import (
	"sync/atomic"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/u256"
)

// ReplayReader reveals a fully built chain block-by-block: it serves the
// chain as of the head SetHead pins (clamped to the real head). The
// watch-parity harness follows a scripted upgrade timeline through one of
// these, so every analysis the follower runs sees exactly the state that
// existed when the followed block was the head.
//
// Contracts deployed after the head are absent from its enumeration,
// latest-state reads answer as of the head via the archive API, and reads
// it provably cannot answer yet — archive reads past its head, per-account
// reads about contracts it has not seen deployed — fail with a ReadError
// instead of serving clamped state, the way a real node reports a missing
// state root.
type ReplayReader struct {
	r chain.Reader // the up-to-date chain being replayed
	h atomic.Uint64
}

var _ chain.Reader = (*ReplayReader)(nil)

// NewReplayReader wraps r with a settable head, initially 0.
func NewReplayReader(r chain.Reader) *ReplayReader { return &ReplayReader{r: r} }

// SetHead moves the revealed head (values beyond the real head clamp).
func (s *ReplayReader) SetHead(h uint64) { s.h.Store(h) }

// head is the revealed head: SetHead's value, clamped to the real head.
func (s *ReplayReader) head() uint64 {
	full := s.r.CurrentBlock()
	if h := s.h.Load(); h < full {
		return h
	}
	return full
}

// Config passes through.
func (s *ReplayReader) Config() chain.Config { return s.r.Config() }

// CurrentBlock reports the capped head.
func (s *ReplayReader) CurrentBlock() uint64 { return s.head() }

// LatestHeader reports the header at the capped head.
func (s *ReplayReader) LatestHeader() chain.BlockHeader {
	h, err := s.r.HeaderByNumber(s.head())
	if err != nil {
		return s.r.LatestHeader()
	}
	return h
}

// HeaderByNumber refuses heights this view has not reached.
func (s *ReplayReader) HeaderByNumber(n uint64) (chain.BlockHeader, error) {
	if n > s.head() {
		return chain.BlockHeader{}, errStaleHeight
	}
	return s.r.HeaderByNumber(n)
}

// Contracts hides contracts deployed after the capped head.
func (s *ReplayReader) Contracts() []etypes.Address {
	head := s.head()
	all := s.r.Contracts()
	out := make([]etypes.Address, 0, len(all))
	for _, a := range all {
		if s.r.CreatedAt(a) <= head {
			out = append(out, a)
		}
	}
	return out
}

// visible reports whether addr exists as of the capped head. A contract
// the full chain knows but this view has not seen deployed yet is a
// behind-head condition, not a nonexistent account — the read fails so a
// caller retries instead of caching an empty-code answer.
func (s *ReplayReader) visible(addr etypes.Address) bool {
	if !s.r.Exists(addr) {
		return false
	}
	if s.r.CreatedAt(addr) > s.head() {
		panic(&chain.ReadError{Op: "account", Addr: addr, Attempts: 1, Err: errStaleHeight})
	}
	return true
}

// Code hides bytecode of contracts this view has not seen deployed.
func (s *ReplayReader) Code(addr etypes.Address) []byte {
	if !s.visible(addr) {
		return nil
	}
	return s.r.Code(addr)
}

// CodeHash mirrors Code's visibility.
func (s *ReplayReader) CodeHash(addr etypes.Address) etypes.Hash {
	if !s.visible(addr) {
		return etypes.Hash{}
	}
	return s.r.CodeHash(addr)
}

// CreatedAt passes through for visible contracts, zero otherwise.
func (s *ReplayReader) CreatedAt(addr etypes.Address) uint64 {
	if !s.visible(addr) {
		return 0
	}
	return s.r.CreatedAt(addr)
}

// Exists mirrors the capped view.
func (s *ReplayReader) Exists(addr etypes.Address) bool { return s.visible(addr) }

// GetState serves the slot as of the capped head.
func (s *ReplayReader) GetState(addr etypes.Address, key etypes.Hash) etypes.Hash {
	if !s.visible(addr) {
		return etypes.Hash{}
	}
	return s.r.GetStorageAt(addr, key, s.head())
}

// GetBalance passes through (balances carry no history here).
func (s *ReplayReader) GetBalance(addr etypes.Address) u256.Int { return s.r.GetBalance(addr) }

// GetNonce passes through.
func (s *ReplayReader) GetNonce(addr etypes.Address) uint64 { return s.r.GetNonce(addr) }

// TxSelectors passes through.
func (s *ReplayReader) TxSelectors(addr etypes.Address) [][4]byte { return s.r.TxSelectors(addr) }

// GetStorageAt refuses archive reads beyond the capped head: the view has
// no state for that block yet, and a clamped answer would hand a follower
// a pre-upgrade value for a post-upgrade block.
func (s *ReplayReader) GetStorageAt(addr etypes.Address, slot etypes.Hash, block uint64) etypes.Hash {
	if head := s.head(); block > head {
		panic(&chain.ReadError{Op: "storage-at", Addr: addr, Attempts: 1, Err: errStaleHeight})
	}
	return s.r.GetStorageAt(addr, slot, block)
}

// BlockDelta refuses blocks beyond the capped head for the same reason: an
// empty delta for a block this view has not reached would let a follower
// step over the block's deployments and upgrades.
func (s *ReplayReader) BlockDelta(b uint64) chain.BlockDelta {
	if b > s.head() {
		panic(&chain.ReadError{Op: "block-delta", Attempts: 1, Err: errStaleHeight})
	}
	return s.r.BlockDelta(b)
}

// APICalls passes through to the underlying chain.
func (s *ReplayReader) APICalls() int64 { return s.r.APICalls() }

var errStaleHeight = &staleHeightError{}

type staleHeightError struct{}

func (*staleHeightError) Error() string { return "faultchain: height beyond stale replica head" }
