// Package faultchain makes the analyzer's node boundary fallible — and the
// analyzer resilient to it.
//
// The production Proxion deployment reads an Ethereum archive node over
// RPC: bytecode fetches for detection and millions of historical
// getStorageAt reads for Algorithm 1. Real nodes time out, rate-limit,
// return transient 5xx errors, and serve stale answers from lagging
// replicas. The in-memory chain.Chain can do none of those things, so this
// package supplies the missing failure surface in one layer:
//
//	chain.Reader ──NewClient(r, hook)──▶ chain.Reader (retries, backoff,
//	                                     breaker, bounded in-flight reads)
//
// Before each attempt of each read the Client asks its FaultHook whether
// the node fails that attempt; an Injector is the hook a seeded fault
// Schedule drives. The detector and the streaming engine keep speaking
// error-free chain.Reader, while every read underneath can fail and be
// retried. A read that exhausts the retry budget surfaces as a
// *chain.ReadError panic, which the engine converts into an Unresolved
// report (see the chain.Reader error contract).
package faultchain

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/u256"
)

// ErrBreakerOpen is the fail-fast answer while the circuit breaker is open:
// the node has terminally failed enough consecutive reads that hammering it
// with more retries would only add load and latency.
var ErrBreakerOpen = errors.New("faultchain: circuit breaker open")

// Options tunes the resilient client. The zero value selects defaults
// suitable for both tests and the CLI.
type Options struct {
	// MaxRetries is how many times a failed read is re-attempted (total
	// attempts = MaxRetries+1). Default 4.
	MaxRetries int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts. Defaults 1ms and 16ms — small enough that chaos
	// tests stay fast, overridable for production-like pacing.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives backoff jitter. Jitter only affects timing, never
	// results, so it does not participate in determinism arguments.
	Seed int64
	// BreakerThreshold is how many *consecutive terminal* read failures —
	// reads whose whole retry budget was exhausted, not individual failed
	// attempts — open the breaker. Default 8. A schedule below the retry
	// budget produces zero terminal failures, so the breaker never trips
	// on it.
	BreakerThreshold int
	// BreakerProbe lets every n-th read through an open breaker as a
	// half-open probe; a probe success closes the breaker. Measured in
	// calls, not time, to keep chaos runs deterministic. Default 16.
	BreakerProbe int
	// MaxInFlight bounds concurrent node reads. Default
	// 8×GOMAXPROCS, minimum 32.
	MaxInFlight int
	// Context, when set, cancels every read issued through the client;
	// cancellation during an attempt or a backoff sleep unwinds promptly
	// with a *chain.ReadError carrying the context error.
	Context context.Context
}

func (o Options) withDefaults() Options {
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 16 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerProbe <= 0 {
		o.BreakerProbe = 16
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 8 * runtime.GOMAXPROCS(0)
		if o.MaxInFlight < 32 {
			o.MaxInFlight = 32
		}
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// Metrics is a snapshot of the client's resilience counters.
type Metrics struct {
	// Retries counts re-attempts after a failed read.
	Retries int64
	// Timeouts counts attempts that failed with a deadline error
	// (ErrTimeout, the simulated read over its deadline).
	Timeouts int64
	// RateLimited counts attempts rejected with ErrRateLimited.
	RateLimited int64
	// BreakerTrips counts closed→open transitions of the circuit breaker.
	BreakerTrips int64
	// FailFast counts reads rejected without touching the node because the
	// breaker was open.
	FailFast int64
	// Unresolved counts reads that terminally failed (budget exhausted,
	// breaker rejection, or cancellation).
	Unresolved int64
}

// inflightGate is a counting semaphore whose uncontended path is two
// atomic ops — the read-per-SLOAD hot path cannot afford channel sends.
// Callers fall back to the mutex/cond pair only when the bound is hit.
type inflightGate struct {
	slots   atomic.Int64
	waiters atomic.Int64
	mu      sync.Mutex
	cond    sync.Cond
}

func newInflightGate(n int) *inflightGate {
	g := &inflightGate{}
	g.slots.Store(int64(n))
	g.cond.L = &g.mu
	return g
}

func (g *inflightGate) tryAcquire() bool {
	for {
		n := g.slots.Load()
		if n <= 0 {
			return false
		}
		if g.slots.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (g *inflightGate) acquire() {
	if g.tryAcquire() {
		return
	}
	g.mu.Lock()
	g.waiters.Add(1)
	for !g.tryAcquire() {
		g.cond.Wait()
	}
	g.waiters.Add(-1)
	g.mu.Unlock()
}

// release frees a slot. Registration order makes the waiter check safe: a
// waiter increments waiters before re-testing the slot count, so a release
// that observes waiters==0 is sequenced before that increment — and its
// slot increment before the waiter's re-test, which therefore succeeds.
func (g *inflightGate) release() {
	g.slots.Add(1)
	if g.waiters.Load() > 0 {
		g.mu.Lock()
		g.cond.Signal()
		g.mu.Unlock()
	}
}

// Read names one logical node read: the operation, and the account, slot
// and block it is about where the operation has them. It is what a
// FaultHook decides on, the key a fault schedule is hashed from, and the
// Op and Addr of the *chain.ReadError a terminally failed read raises.
type Read struct {
	Op    string
	Addr  etypes.Address
	Slot  etypes.Hash
	Block uint64
}

// FaultHook decides, before each attempt of a read, whether the node fails
// that attempt: a non-nil error fails it without touching the node. ctx is
// the client's Options.Context.
type FaultHook func(ctx context.Context, r Read) error

// Client is the resilient chain.Reader over a node that can fail: capped
// exponential backoff with seeded jitter, a circuit breaker on consecutive
// terminal failures, and bounded in-flight concurrency. A read that cannot
// be completed panics with a *chain.ReadError per the Reader error
// contract; the analysis engine recovers it into an Unresolved report.
//
// APICalls counts logical GetStorageAt reads — one per call, however many
// attempts it took — satisfying the Reader accounting contract, so
// efficiency numbers match a fault-free run byte for byte.
type Client struct {
	r     chain.Reader
	fault FaultHook
	opts  Options
	gate  *inflightGate

	rngMu sync.Mutex
	rng   *rand.Rand

	storageReads atomic.Int64

	retries      atomic.Int64
	timeouts     atomic.Int64
	rateLimited  atomic.Int64
	breakerTrips atomic.Int64
	failFast     atomic.Int64
	unresolved   atomic.Int64

	// Breaker state. The hot path reads only the open flag; the counters
	// move on success (one load, usually zero) and on the rare terminal
	// failure, so a healthy stack never contends on a lock here.
	breakerOpen   atomic.Bool
	consecutive   atomic.Int64
	callsWhenOpen atomic.Int64
}

// NewClient wraps a reader with the resilience layer. fault, when non-nil,
// is asked before every attempt of every read whether the node fails it.
func NewClient(r chain.Reader, fault FaultHook, opts Options) *Client {
	o := opts.withDefaults()
	return &Client{
		r:     r,
		fault: fault,
		opts:  o,
		gate:  newInflightGate(o.MaxInFlight),
		rng:   rand.New(rand.NewSource(o.Seed)),
	}
}

// NewResilientReader puts a resilient client over a plain reader, with the
// schedule's Injector as its fault hook. A nil schedule injects nothing and
// returns a nil Injector.
func NewResilientReader(r chain.Reader, sched *Schedule, opts Options) (*Client, *Injector) {
	if sched == nil {
		return NewClient(r, nil, opts), nil
	}
	inj := &Injector{r: r, sched: *sched, plans: make(map[Read]*faultPlan)}
	return NewClient(r, inj.Fault, opts), inj
}

// Metrics returns a snapshot of the resilience counters.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Retries:      c.retries.Load(),
		Timeouts:     c.timeouts.Load(),
		RateLimited:  c.rateLimited.Load(),
		BreakerTrips: c.breakerTrips.Load(),
		FailFast:     c.failFast.Load(),
		Unresolved:   c.unresolved.Load(),
	}
}

// ResilienceCounters exposes the counters the pipeline instrumentation
// folds into its snapshot; the engine discovers it structurally so
// internal/proxion needs no faultchain import.
func (c *Client) ResilienceCounters() (retries, breakerTrips int64) {
	return c.retries.Load(), c.breakerTrips.Load()
}

// BreakerOpen reports whether the circuit breaker is currently open.
func (c *Client) BreakerOpen() bool { return c.breakerOpen.Load() }

// retryable reports whether an attempt error is worth re-trying: injected
// node faults, simulated timeouts included, are; a canceled root context
// is not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, ErrRateLimited) ||
		errors.Is(err, ErrBehindHead) ||
		errors.Is(err, context.DeadlineExceeded)
}

// breakerAllow gates one read. While open, every BreakerProbe-th read goes
// through as a half-open probe.
func (c *Client) breakerAllow() bool {
	if !c.breakerOpen.Load() {
		return true
	}
	return c.callsWhenOpen.Add(1)%int64(c.opts.BreakerProbe) == 0
}

func (c *Client) breakerSuccess() {
	if c.consecutive.Load() != 0 {
		c.consecutive.Store(0)
	}
	if c.breakerOpen.Load() {
		c.breakerOpen.Store(false)
	}
}

func (c *Client) breakerFailure() {
	n := c.consecutive.Add(1)
	if n >= int64(c.opts.BreakerThreshold) && c.breakerOpen.CompareAndSwap(false, true) {
		c.breakerTrips.Add(1)
		c.callsWhenOpen.Store(0)
	}
}

// backoff sleeps the capped-exponential jittered delay before retry n
// (n ≥ 1), returning false if the root context was canceled meanwhile.
func (c *Client) backoff(n int) bool {
	d := c.opts.BackoffBase << uint(n-1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	// Half fixed, half jittered — the standard decorrelation compromise.
	c.rngMu.Lock()
	jit := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.rngMu.Unlock()
	t := time.NewTimer(d/2 + jit)
	defer t.Stop()
	select {
	case <-c.opts.Context.Done():
		return false
	case <-t.C:
		return true
	}
}

// attempt runs one bounded attempt of a read: a canceled context ends it,
// then the fault hook may fail it, and otherwise read runs against the node.
func (c *Client) attempt(r Read, read func()) error {
	c.gate.acquire()
	defer c.gate.release()
	ctx := c.opts.Context
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.fault != nil {
		if err := c.fault(ctx, r); err != nil {
			return err
		}
	}
	read()
	return nil
}

// fail records a terminal read failure and panics the Reader error contract.
func (c *Client) fail(r Read, attempts int, err error) {
	c.unresolved.Add(1)
	panic(&chain.ReadError{Op: r.Op, Addr: r.Addr, Attempts: attempts, Err: err})
}

// do drives one logical read to completion: breaker gate, retry loop with
// backoff, error classification. Terminal failure panics *chain.ReadError.
func (c *Client) do(r Read, read func()) {
	if err := c.opts.Context.Err(); err != nil {
		c.fail(r, 0, err)
	}
	if !c.breakerAllow() {
		c.failFast.Add(1)
		c.fail(r, 0, ErrBreakerOpen)
	}

	var lastErr error
	attempts := 0
	for n := 0; n <= c.opts.MaxRetries; n++ {
		if n > 0 {
			c.retries.Add(1)
			if !c.backoff(n) {
				lastErr = c.opts.Context.Err()
				break
			}
		}
		attempts++
		err := c.attempt(r, read)
		if err == nil {
			c.breakerSuccess()
			return
		}
		lastErr = err
		if errors.Is(err, context.DeadlineExceeded) {
			c.timeouts.Add(1)
		}
		if errors.Is(err, ErrRateLimited) {
			c.rateLimited.Add(1)
		}
		if !retryable(err) {
			break
		}
	}
	c.breakerFailure()
	c.fail(r, attempts, lastErr)
}

// Client implements chain.Reader.

// Config implements chain.Reader.
func (c *Client) Config() (out chain.Config) {
	c.do(Read{Op: "config"}, func() { out = c.r.Config() })
	return out
}

// CurrentBlock implements chain.Reader.
func (c *Client) CurrentBlock() (out uint64) {
	c.do(Read{Op: "current-block"}, func() { out = c.r.CurrentBlock() })
	return out
}

// LatestHeader implements chain.Reader.
func (c *Client) LatestHeader() (out chain.BlockHeader) {
	c.do(Read{Op: "latest-header"}, func() { out = c.r.LatestHeader() })
	return out
}

// HeaderByNumber implements chain.Reader. The "no such block" outcome is a
// domain answer, not a transport failure: it is returned, never retried.
func (c *Client) HeaderByNumber(n uint64) (out chain.BlockHeader, err error) {
	c.do(Read{Op: "header-by-number", Block: n}, func() { out, err = c.r.HeaderByNumber(n) })
	return out, err
}

// Contracts implements chain.Reader.
func (c *Client) Contracts() (out []etypes.Address) {
	c.do(Read{Op: "contracts"}, func() { out = c.r.Contracts() })
	return out
}

// Code implements chain.Reader.
func (c *Client) Code(addr etypes.Address) (out []byte) {
	c.do(Read{Op: "code", Addr: addr}, func() { out = c.r.Code(addr) })
	return out
}

// CodeHash implements chain.Reader.
func (c *Client) CodeHash(addr etypes.Address) (out etypes.Hash) {
	c.do(Read{Op: "code-hash", Addr: addr}, func() { out = c.r.CodeHash(addr) })
	return out
}

// CreatedAt implements chain.Reader.
func (c *Client) CreatedAt(addr etypes.Address) (out uint64) {
	c.do(Read{Op: "created-at", Addr: addr}, func() { out = c.r.CreatedAt(addr) })
	return out
}

// Exists implements chain.Reader.
func (c *Client) Exists(addr etypes.Address) (out bool) {
	c.do(Read{Op: "exists", Addr: addr}, func() { out = c.r.Exists(addr) })
	return out
}

// GetState implements chain.Reader.
func (c *Client) GetState(addr etypes.Address, key etypes.Hash) (out etypes.Hash) {
	c.do(Read{Op: "state", Addr: addr, Slot: key}, func() { out = c.r.GetState(addr, key) })
	return out
}

// GetBalance implements chain.Reader.
func (c *Client) GetBalance(addr etypes.Address) (out u256.Int) {
	c.do(Read{Op: "balance", Addr: addr}, func() { out = c.r.GetBalance(addr) })
	return out
}

// GetNonce implements chain.Reader.
func (c *Client) GetNonce(addr etypes.Address) (out uint64) {
	c.do(Read{Op: "nonce", Addr: addr}, func() { out = c.r.GetNonce(addr) })
	return out
}

// TxSelectors implements chain.Reader.
func (c *Client) TxSelectors(addr etypes.Address) (out [][4]byte) {
	c.do(Read{Op: "tx-selectors", Addr: addr}, func() { out = c.r.TxSelectors(addr) })
	return out
}

// GetStorageAt implements chain.Reader. The logical read is counted once up
// front, whatever happens to its attempts, so APICalls stays comparable to
// a fault-free run (and monotonic under retries).
func (c *Client) GetStorageAt(addr etypes.Address, slot etypes.Hash, block uint64) (out etypes.Hash) {
	c.storageReads.Add(1)
	c.do(Read{Op: "storage-at", Addr: addr, Slot: slot, Block: block},
		func() { out = c.r.GetStorageAt(addr, slot, block) })
	return out
}

// BlockDelta implements chain.Reader. A replica behind the block
// (ErrBehindHead) is retried like any stale read; the delta that comes back
// is the node's complete answer.
func (c *Client) BlockDelta(block uint64) (out chain.BlockDelta) {
	c.do(Read{Op: "block-delta", Block: block}, func() { out = c.r.BlockDelta(block) })
	return out
}

// APICalls implements chain.Reader: logical GetStorageAt reads, counted
// once per call regardless of retries.
func (c *Client) APICalls() int64 { return c.storageReads.Load() }

var _ chain.Reader = (*Client)(nil)
