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
	// Timeout is the per-attempt deadline; 0 disables per-call deadlines.
	// Default 2s.
	Timeout time.Duration
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
	// MaxInFlight bounds concurrent backend reads. Default
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
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Timeout < 0 {
		o.Timeout = 0
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
	// Timeouts counts attempts that failed with an expired deadline.
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

// Client is the resilient chain.Reader over a fallible Backend: per-call
// timeouts, capped exponential backoff with seeded jitter, a circuit
// breaker on consecutive terminal failures, and bounded in-flight
// concurrency. A read that cannot be completed panics with a
// *chain.ReadError per the Reader error contract; the analysis engine
// recovers it into an Unresolved report.
//
// APICalls counts logical GetStorageAt reads — one per call, however many
// attempts it took — satisfying the Reader accounting contract, so
// efficiency numbers match a fault-free run byte for byte.
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

type Client struct {
	backend Backend
	opts    Options
	gate    *inflightGate
	// deadlines says per-attempt timeout contexts are in force; false when
	// Timeout is 0 or the backend guarantees non-blocking calls (see
	// NonBlocker) — a deadline on a call that cannot block is unobservable,
	// and building one per read dominates the fault-free hot path.
	deadlines bool

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

// NewClient wraps a backend with the resilience layer.
func NewClient(b Backend, opts Options) *Client {
	o := opts.withDefaults()
	deadlines := o.Timeout > 0
	if nb, ok := b.(NonBlocker); ok && nb.NonBlocking() {
		deadlines = false
	}
	return &Client{
		backend:   b,
		opts:      o,
		gate:      newInflightGate(o.MaxInFlight),
		deadlines: deadlines,
		rng:       rand.New(rand.NewSource(o.Seed)),
	}
}

// NewResilientReader stacks the full tower over a plain reader: node
// backend, optional fault injector, resilient client. A nil schedule (or
// one with an empty profile) skips the injector.
func NewResilientReader(r chain.Reader, sched *Schedule, opts Options) (*Client, *Injector) {
	var backend Backend = NewNodeBackend(r)
	var inj *Injector
	if sched != nil {
		inj = NewInjector(backend, *sched)
		backend = inj
	}
	return NewClient(backend, opts), inj
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
// transport faults and expired per-attempt deadlines are; a canceled root
// context is not.
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

// attempt runs one bounded, deadline-scoped backend call.
func (c *Client) attempt(fn func(ctx context.Context) error) error {
	c.gate.acquire()
	defer c.gate.release()
	ctx := c.opts.Context
	if c.deadlines {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
	}
	return fn(ctx)
}

// fail records a terminal read failure and panics the Reader error contract.
func (c *Client) fail(op string, addr etypes.Address, attempts int, err error) {
	c.unresolved.Add(1)
	panic(&chain.ReadError{Op: op, Addr: addr, Attempts: attempts, Err: err})
}

// do drives one logical read to completion: breaker gate, retry loop with
// backoff, error classification. Terminal failure panics *chain.ReadError.
func (c *Client) do(op string, addr etypes.Address, fn func(ctx context.Context) error) {
	if err := c.opts.Context.Err(); err != nil {
		c.fail(op, addr, 0, err)
	}
	if !c.breakerAllow() {
		c.failFast.Add(1)
		c.fail(op, addr, 0, ErrBreakerOpen)
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
		err := c.attempt(fn)
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
	c.fail(op, addr, attempts, lastErr)
}

// Client implements chain.Reader.

// Config implements chain.Reader.
func (c *Client) Config() chain.Config {
	var out chain.Config
	c.do("config", etypes.Address{}, func(ctx context.Context) error {
		var err error
		out, err = c.backend.Config(ctx)
		return err
	})
	return out
}

// CurrentBlock implements chain.Reader.
func (c *Client) CurrentBlock() uint64 {
	var out uint64
	c.do("current-block", etypes.Address{}, func(ctx context.Context) error {
		var err error
		out, err = c.backend.CurrentBlock(ctx)
		return err
	})
	return out
}

// LatestHeader implements chain.Reader.
func (c *Client) LatestHeader() chain.BlockHeader {
	var out chain.BlockHeader
	c.do("latest-header", etypes.Address{}, func(ctx context.Context) error {
		var err error
		out, err = c.backend.LatestHeader(ctx)
		return err
	})
	return out
}

// HeaderByNumber implements chain.Reader. The "no such block" outcome is a
// domain answer, not a transport failure: it is returned, never retried.
func (c *Client) HeaderByNumber(n uint64) (chain.BlockHeader, error) {
	var out chain.BlockHeader
	var domainErr error
	c.do("header-by-number", etypes.Address{}, func(ctx context.Context) error {
		h, err := c.backend.HeaderByNumber(ctx, n)
		if err != nil && !retryable(err) && !errors.Is(err, context.Canceled) {
			domainErr = err
			return nil
		}
		out = h
		return err
	})
	return out, domainErr
}

// Contracts implements chain.Reader.
func (c *Client) Contracts() []etypes.Address {
	var out []etypes.Address
	c.do("contracts", etypes.Address{}, func(ctx context.Context) error {
		var err error
		out, err = c.backend.Contracts(ctx)
		return err
	})
	return out
}

// Code implements chain.Reader.
func (c *Client) Code(addr etypes.Address) []byte {
	var out []byte
	c.do("code", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.Code(ctx, addr)
		return err
	})
	return out
}

// CodeHash implements chain.Reader.
func (c *Client) CodeHash(addr etypes.Address) etypes.Hash {
	var out etypes.Hash
	c.do("code-hash", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.CodeHash(ctx, addr)
		return err
	})
	return out
}

// CreatedAt implements chain.Reader.
func (c *Client) CreatedAt(addr etypes.Address) uint64 {
	var out uint64
	c.do("created-at", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.CreatedAt(ctx, addr)
		return err
	})
	return out
}

// Exists implements chain.Reader.
func (c *Client) Exists(addr etypes.Address) bool {
	var out bool
	c.do("exists", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.Exists(ctx, addr)
		return err
	})
	return out
}

// GetState implements chain.Reader.
func (c *Client) GetState(addr etypes.Address, key etypes.Hash) etypes.Hash {
	var out etypes.Hash
	c.do("state", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.State(ctx, addr, key)
		return err
	})
	return out
}

// GetBalance implements chain.Reader.
func (c *Client) GetBalance(addr etypes.Address) u256.Int {
	var out u256.Int
	c.do("balance", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.Balance(ctx, addr)
		return err
	})
	return out
}

// GetNonce implements chain.Reader.
func (c *Client) GetNonce(addr etypes.Address) uint64 {
	var out uint64
	c.do("nonce", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.Nonce(ctx, addr)
		return err
	})
	return out
}

// TxSelectors implements chain.Reader.
func (c *Client) TxSelectors(addr etypes.Address) [][4]byte {
	var out [][4]byte
	c.do("tx-selectors", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.TxSelectors(ctx, addr)
		return err
	})
	return out
}

// GetStorageAt implements chain.Reader. The logical read is counted once up
// front, whatever happens to its attempts, so APICalls stays comparable to
// a fault-free run (and monotonic under retries).
func (c *Client) GetStorageAt(addr etypes.Address, slot etypes.Hash, block uint64) etypes.Hash {
	c.storageReads.Add(1)
	var out etypes.Hash
	c.do("storage-at", addr, func(ctx context.Context) error {
		var err error
		out, err = c.backend.StorageAt(ctx, addr, slot, block)
		return err
	})
	return out
}

// BlockDelta implements chain.Reader. A replica behind the block
// (ErrBehindHead) is retried like any stale read; the delta that comes back
// is the backend's complete answer.
func (c *Client) BlockDelta(block uint64) chain.BlockDelta {
	var out chain.BlockDelta
	c.do("block-delta", etypes.Address{}, func(ctx context.Context) error {
		var err error
		out, err = c.backend.BlockDelta(ctx, block)
		return err
	})
	return out
}

// APICalls implements chain.Reader: logical GetStorageAt reads, counted
// once per call regardless of retries.
func (c *Client) APICalls() int64 { return c.storageReads.Load() }

var _ chain.Reader = (*Client)(nil)
