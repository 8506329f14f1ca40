// Replica pool: a chain.Reader fanned out over several replicas of the
// same node, with hedged per-account reads and stale-replica head
// reconciliation.
//
// Every read in this file runs (or is re-run) under chain.CaptureReadError
// inside the hedging machinery, which re-panics the primary's *ReadError
// only after every replica has failed — the per-call contract holds, the
// lint just cannot see through the generic indirection.
// readerpanic:ignore-file
package faultchain

import (
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/u256"
)

// PoolOptions tunes the replica pool.
type PoolOptions struct {
	// HedgeAfter is how long a per-account read may run on the primary
	// replica before a hedge is launched against the next one. Zero
	// means 2ms.
	HedgeAfter time.Duration
}

// Pool is a chain.Reader backed by N replicas of the same logical node.
// Per-account reads are hedged: the primary (round-robin) replica gets
// HedgeAfter to answer before the same read is raced against the next
// replica, and the first success wins. Replicas serve identical committed
// history, so hedging can change latency but never results.
//
// Head reads are reconciled instead of hedged: CurrentBlock returns the
// maximum head over all replicas, folded into a monotonic watermark — a
// lagging replica that answers a later poll can therefore never roll a
// follower's cursor backwards.
type Pool struct {
	replicas []chain.Reader
	opts     PoolOptions

	rr           atomic.Uint64 // round-robin primary selector
	watermark    atomic.Uint64 // monotonic max head ever observed
	maxLag       atomic.Uint64 // widest head spread seen in one reconciliation
	hedges       atomic.Int64  // hedge reads actually launched
	storageReads atomic.Int64  // logical GetStorageAt calls (APICalls contract)
}

// PoolStats is a snapshot of the pool's own counters.
type PoolStats struct {
	// Replicas is the pool size.
	Replicas int
	// Hedges counts hedge reads actually launched (timeout or primary
	// failure), not logical reads.
	Hedges int64
	// MaxLag is the widest head spread (max head - min head) observed in
	// a single reconciliation.
	MaxLag uint64
	// StorageReads is the pool's logical GetStorageAt count.
	StorageReads int64
}

// NewPool builds a pool over the given replicas. At least one is required.
func NewPool(replicas []chain.Reader, opts PoolOptions) *Pool {
	if len(replicas) == 0 {
		panic("faultchain: NewPool needs at least one replica")
	}
	if opts.HedgeAfter <= 0 {
		opts.HedgeAfter = 2 * time.Millisecond
	}
	return &Pool{replicas: append([]chain.Reader(nil), replicas...), opts: opts}
}

var _ chain.Reader = (*Pool)(nil)

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Replicas:     len(p.replicas),
		Hedges:       p.hedges.Load(),
		MaxLag:       p.maxLag.Load(),
		StorageReads: p.storageReads.Load(),
	}
}

// hedgedResult carries one replica attempt's outcome.
type hedgedResult[T any] struct {
	v  T
	re *chain.ReadError
}

// hedged runs read against the round-robin primary, launches one hedge
// against the next replica after HedgeAfter (or immediately on primary
// failure), and returns the first success. If every attempted replica
// fails, the first failure is re-panicked per the Reader error contract.
func hedged[T any](p *Pool, read func(chain.Reader) T) T {
	i := int(p.rr.Add(1)-1) % len(p.replicas)
	if len(p.replicas) == 1 {
		return read(p.replicas[i])
	}
	ch := make(chan hedgedResult[T], 2)
	attempt := func(r chain.Reader) {
		go func() {
			var out hedgedResult[T]
			out.re = chain.CaptureReadError(func() { out.v = read(r) })
			ch <- out
		}()
	}
	attempt(p.replicas[i])
	timer := time.NewTimer(p.opts.HedgeAfter)
	defer timer.Stop()
	launched := false
	pending := 1
	var firstErr *chain.ReadError
	launchHedge := func() {
		launched = true
		pending++
		p.hedges.Add(1)
		attempt(p.replicas[(i+1)%len(p.replicas)])
	}
	for {
		select {
		case out := <-ch:
			pending--
			if out.re == nil {
				return out.v
			}
			if firstErr == nil {
				firstErr = out.re
			}
			if !launched {
				launchHedge()
			} else if pending == 0 {
				panic(firstErr)
			}
		case <-timer.C:
			if !launched {
				launchHedge()
			}
		}
	}
}

// Config identifies the network; replicas agree by construction.
func (p *Pool) Config() chain.Config { return p.replicas[0].Config() }

// CurrentBlock reconciles every replica's head into the monotonic
// watermark and returns it. A replica that cannot answer is skipped; if
// none can, the first failure propagates.
func (p *Pool) CurrentBlock() uint64 {
	var (
		maxHead, minHead uint64
		sawAny           bool
		firstErr         *chain.ReadError
	)
	for _, r := range p.replicas {
		var h uint64
		re := chain.CaptureReadError(func() { h = r.CurrentBlock() })
		if re != nil {
			if firstErr == nil {
				firstErr = re
			}
			continue
		}
		if !sawAny || h > maxHead {
			maxHead = h
		}
		if !sawAny || h < minHead {
			minHead = h
		}
		sawAny = true
	}
	if !sawAny {
		panic(firstErr)
	}
	if lag := maxHead - minHead; lag > p.maxLag.Load() {
		p.maxLag.Store(lag)
	}
	for {
		cur := p.watermark.Load()
		if maxHead <= cur {
			return cur
		}
		if p.watermark.CompareAndSwap(cur, maxHead) {
			return maxHead
		}
	}
}

// LatestHeader returns the header of the replica with the highest head.
func (p *Pool) LatestHeader() chain.BlockHeader {
	var (
		best     chain.BlockHeader
		sawAny   bool
		firstErr *chain.ReadError
	)
	for _, r := range p.replicas {
		var h chain.BlockHeader
		re := chain.CaptureReadError(func() { h = r.LatestHeader() })
		if re != nil {
			if firstErr == nil {
				firstErr = re
			}
			continue
		}
		if !sawAny || h.Number > best.Number {
			best = h
		}
		sawAny = true
	}
	if !sawAny {
		panic(firstErr)
	}
	return best
}

// headerResult pairs HeaderByNumber's domain outcome for hedging.
type headerResult struct {
	h   chain.BlockHeader
	err error
}

// HeaderByNumber hedges; the returned error is the domain "no such block"
// outcome of whichever replica answered first.
func (p *Pool) HeaderByNumber(n uint64) (chain.BlockHeader, error) {
	out := hedged(p, func(r chain.Reader) headerResult {
		h, err := r.HeaderByNumber(n)
		return headerResult{h, err}
	})
	return out.h, out.err
}

// Contracts enumerates via a hedged read.
func (p *Pool) Contracts() []etypes.Address {
	return hedged(p, func(r chain.Reader) []etypes.Address { return r.Contracts() })
}

// Code returns the runtime bytecode via a hedged read.
func (p *Pool) Code(addr etypes.Address) []byte {
	return hedged(p, func(r chain.Reader) []byte { return r.Code(addr) })
}

// CodeHash returns the bytecode hash via a hedged read.
func (p *Pool) CodeHash(addr etypes.Address) etypes.Hash {
	return hedged(p, func(r chain.Reader) etypes.Hash { return r.CodeHash(addr) })
}

// CreatedAt returns the deployment block via a hedged read.
func (p *Pool) CreatedAt(addr etypes.Address) uint64 {
	return hedged(p, func(r chain.Reader) uint64 { return r.CreatedAt(addr) })
}

// Exists reports account existence via a hedged read.
func (p *Pool) Exists(addr etypes.Address) bool {
	return hedged(p, func(r chain.Reader) bool { return r.Exists(addr) })
}

// GetState returns a latest slot value via a hedged read.
func (p *Pool) GetState(addr etypes.Address, key etypes.Hash) etypes.Hash {
	return hedged(p, func(r chain.Reader) etypes.Hash { return r.GetState(addr, key) })
}

// GetBalance returns the latest balance via a hedged read.
func (p *Pool) GetBalance(addr etypes.Address) u256.Int {
	return hedged(p, func(r chain.Reader) u256.Int { return r.GetBalance(addr) })
}

// GetNonce returns the latest nonce via a hedged read.
func (p *Pool) GetNonce(addr etypes.Address) uint64 {
	return hedged(p, func(r chain.Reader) uint64 { return r.GetNonce(addr) })
}

// TxSelectors returns observed selectors via a hedged read.
func (p *Pool) TxSelectors(addr etypes.Address) [][4]byte {
	return hedged(p, func(r chain.Reader) [][4]byte { return r.TxSelectors(addr) })
}

// GetStorageAt is the archive read; the pool counts the logical read once
// regardless of how many replicas raced it.
func (p *Pool) GetStorageAt(addr etypes.Address, slot etypes.Hash, block uint64) etypes.Hash {
	p.storageReads.Add(1)
	return hedged(p, func(r chain.Reader) etypes.Hash { return r.GetStorageAt(addr, slot, block) })
}

// BlockDelta returns a block's change set via a hedged read: a replica
// that has not reached the block fails the read, so the answer comes from
// one that has — or the failure propagates and the follower's cursor stays.
func (p *Pool) BlockDelta(b uint64) chain.BlockDelta {
	return hedged(p, func(r chain.Reader) chain.BlockDelta { return r.BlockDelta(b) })
}

// APICalls reports the pool's own logical read count; replica counters
// would double-count hedges.
func (p *Pool) APICalls() int64 { return p.storageReads.Load() }

// cappedView serves the underlying chain as of the height head() returns:
// a behind-head replica. Contracts deployed after that height are absent
// from its enumeration, latest-state reads answer as of that height via
// the archive API, and reads the replica provably has not caught up to —
// archive reads past its head, per-account reads about contracts it has
// not seen deployed — fail with a ReadError instead of serving clamped
// state, the way a real node reports a missing state root. A hedged Pool
// therefore fails over to a fresher replica rather than trusting a stale
// answer.
type cappedView struct {
	// R is the up-to-date replica being capped.
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

// HeaderByNumber refuses heights this replica has not seen.
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
// the full chain knows but this replica has not seen deployed yet is a
// behind-head condition, not a nonexistent account — the read fails so a
// pool can fail over instead of caching an empty-code answer.
func (s *cappedView) visible(addr etypes.Address) bool {
	if !s.R.Exists(addr) {
		return false
	}
	if s.R.CreatedAt(addr) > s.head() {
		panic(&chain.ReadError{Op: "account", Addr: addr, Attempts: 1, Err: errStaleHeight})
	}
	return true
}

// Code hides bytecode of contracts this replica has not seen deployed.
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

// GetStorageAt refuses archive reads beyond the capped head: the replica
// has no state for that block yet, and a clamped answer would hand a
// follower a pre-upgrade value for a post-upgrade block.
func (s *cappedView) GetStorageAt(addr etypes.Address, slot etypes.Hash, block uint64) etypes.Hash {
	if head := s.head(); block > head {
		panic(&chain.ReadError{Op: "storage-at", Addr: addr, Attempts: 1, Err: errStaleHeight})
	}
	return s.R.GetStorageAt(addr, slot, block)
}

// BlockDelta refuses blocks beyond the capped head for the same reason: an
// empty delta for a block this replica has not seen would let a follower
// step over the block's deployments and upgrades.
func (s *cappedView) BlockDelta(b uint64) chain.BlockDelta {
	if b > s.head() {
		panic(&chain.ReadError{Op: "block-delta", Attempts: 1, Err: errStaleHeight})
	}
	return s.R.BlockDelta(b)
}

// APICalls passes through to the underlying replica.
func (s *cappedView) APICalls() int64 { return s.R.APICalls() }

var errStaleHeight = &staleHeightError{}

type staleHeightError struct{}

func (*staleHeightError) Error() string { return "faultchain: height beyond stale replica head" }

// StaleReader simulates a replica running a fixed number of blocks behind
// the chain's head. Used to exercise stale-replica reconciliation: in a
// Pool next to a fresh replica its older head must never move the pool's
// monotonic watermark backwards.
type StaleReader struct{ cappedView }

var _ chain.Reader = (*StaleReader)(nil)

// NewStaleReader wraps r as a replica lagging the head by lag blocks.
func NewStaleReader(r chain.Reader, lag uint64) *StaleReader {
	s := &StaleReader{}
	s.R = r
	s.head = func() uint64 {
		h := r.CurrentBlock()
		if h <= lag {
			return 0
		}
		return h - lag
	}
	return s
}

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
