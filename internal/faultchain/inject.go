package faultchain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chain"
)

// The injectable failure modes, each mirroring a concrete archive-node
// pathology (see DESIGN.md "Fault model").
var (
	// ErrTransient models a 5xx / connection-reset answer: the node hiccuped
	// but an immediate retry can succeed.
	ErrTransient = errors.New("faultchain: transient node error")
	// ErrTimeout models a read whose latency exceeded its deadline.
	// It wraps context.DeadlineExceeded so callers classify it like a real
	// expired deadline.
	ErrTimeout = fmt.Errorf("faultchain: simulated read latency above deadline: %w", context.DeadlineExceeded)
	// ErrRateLimited models a 429 burst from a quota-limited RPC provider.
	ErrRateLimited = errors.New("faultchain: rate limited by node")
	// ErrBehindHead models a stale read served by a lagging replica: the
	// requested block is beyond the replica's head, so the (immutable)
	// history it would answer from does not contain it yet. Retrying
	// re-routes to a caught-up replica.
	ErrBehindHead = errors.New("faultchain: replica is behind requested block")
)

// FaultKind enumerates the injectable failure modes.
type FaultKind uint8

// Fault kinds, in the order profiles allocate probability mass.
const (
	FaultNone FaultKind = iota
	FaultStale
	FaultTransient
	FaultTimeout
	FaultRateLimit
)

func (k FaultKind) err() error {
	switch k {
	case FaultTransient:
		return ErrTransient
	case FaultTimeout:
		return ErrTimeout
	case FaultRateLimit:
		return ErrRateLimited
	case FaultStale:
		return ErrBehindHead
	default:
		return nil
	}
}

// Profile is the statistical shape of a fault schedule. Rates are
// per-logical-read probabilities in [0,1]; a faulted read fails its first
// Depth attempts with the chosen error and then succeeds, so Depth relative
// to the client's retry budget decides whether the profile degrades results
// or merely slows them down.
type Profile struct {
	// Name labels the profile in test tables and CLI flags.
	Name string
	// TransientRate is the fraction of reads that fail with ErrTransient.
	TransientRate float64
	// TimeoutRate is the fraction of reads that fail with ErrTimeout.
	TimeoutRate float64
	// RateLimitRate is the fraction of reads that fail with ErrRateLimited.
	RateLimitRate float64
	// StaleRate is the fraction of *eligible* height-pinned reads (storage
	// history and block deltas) — those within StaleLag blocks of the head,
	// the only reads a lagging replica can be wrong about — that fail with
	// ErrBehindHead.
	StaleRate float64
	// StaleLag is how many blocks behind head the modeled replica runs.
	StaleLag uint64
	// Depth is how many consecutive attempts of a faulted read fail before
	// the read succeeds. DepthForever never heals.
	Depth int
}

// DepthForever marks a fault that never heals, whatever the retry budget.
const DepthForever = int(^uint(0) >> 1)

// The predefined chaos profiles. Depth 2 keeps them below the default
// client retry budget (MaxRetries 4 ⇒ 5 attempts), so analysis results are
// provably identical to a fault-free run; raise Depth past the budget to
// exercise the Unresolved degradation path instead.

// ErrorBurst returns a profile of frequent transient 5xx failures.
func ErrorBurst() Profile {
	return Profile{Name: "error-burst", TransientRate: 0.30, Depth: 2}
}

// SlowNode returns a profile of reads exceeding their deadline.
func SlowNode() Profile {
	return Profile{Name: "slow-node", TimeoutRate: 0.25, Depth: 2}
}

// RateLimitStorm returns a profile of 429 bursts from a quota-limited
// provider; Depth 3 models a burst outlasting a couple of backoffs.
func RateLimitStorm() Profile {
	return Profile{Name: "rate-limit", RateLimitRate: 0.40, Depth: 3}
}

// StaleReplica returns a profile where half the near-head history reads hit
// a replica lagging 64 blocks behind.
func StaleReplica() Profile {
	return Profile{Name: "stale-replica", StaleRate: 0.50, StaleLag: 64, Depth: 2}
}

// Mixed returns a profile combining every failure mode at lower rates.
func Mixed() Profile {
	return Profile{
		Name:          "mixed",
		TransientRate: 0.10,
		TimeoutRate:   0.08,
		RateLimitRate: 0.10,
		StaleRate:     0.25,
		StaleLag:      32,
		Depth:         2,
	}
}

// Outage returns a profile where every read fails forever — the node is
// down. Only the circuit breaker keeps a run over it bounded.
func Outage() Profile {
	return Profile{Name: "outage", TransientRate: 1.0, Depth: DepthForever}
}

// Profiles returns the named chaos profiles, the chaos matrix rows.
func Profiles() []Profile {
	return []Profile{ErrorBurst(), SlowNode(), RateLimitStorm(), StaleReplica(), Mixed()}
}

// ProfileByName resolves a CLI-friendly profile name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range append(Profiles(), Outage()) {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// NoLimit disables Schedule.Limit.
const NoLimit = -1

// Schedule is a fully deterministic fault plan: a profile, a seed, and an
// optional cap on how many distinct reads may fault. Fault decisions are
// keyed by the logical read (operation, address, slot, block) and hashed
// with the seed, so a given read faults — or not — identically on every
// run and under any goroutine interleaving.
type Schedule struct {
	Profile Profile
	Seed    int64
	// Limit caps the number of distinct faulted reads, counted in
	// first-touch order; NoLimit means unbounded. The shrinker binary-
	// searches this field to isolate a failure's minimal fault prefix, so
	// it is only meaningful for sequential (deterministically ordered)
	// replays.
	Limit int
}

// NewSchedule builds an unbounded schedule for a profile and seed.
func NewSchedule(p Profile, seed int64) Schedule {
	return Schedule{Profile: p, Seed: seed, Limit: NoLimit}
}

// WithLimit returns a copy of the schedule capped at n faulted reads.
func (s Schedule) WithLimit(n int) Schedule {
	s.Limit = n
	return s
}

// hash mixes the read into a 64-bit value with FNV-1a, then scrambles with
// a splitmix64 finalizer so adjacent reads decorrelate.
func (k Read) hash(seed int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ uint64(seed)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for i := 0; i < len(k.Op); i++ {
		mix(k.Op[i])
	}
	for _, b := range k.Addr {
		mix(b)
	}
	for _, b := range k.Slot {
		mix(b)
	}
	for i := 0; i < 8; i++ {
		mix(byte(k.Block >> (8 * i)))
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// faultPlan tracks how many failing attempts a faulted read has served.
type faultPlan struct {
	kind     FaultKind
	depth    int
	attempts int
	// vetoed records a plan suppressed by Schedule.Limit.
	vetoed bool
}

// InjectorStats counts injected faults by kind.
type InjectorStats struct {
	Transient   int64
	Timeouts    int64
	RateLimited int64
	Stale       int64
	// ActivatedReads is the number of distinct logical reads that faulted.
	ActivatedReads int64
}

// Total returns the total number of injected failing attempts.
func (s InjectorStats) Total() int64 {
	return s.Transient + s.Timeouts + s.RateLimited + s.Stale
}

// Injector is the FaultHook a Schedule drives (its Fault method): it fails
// attempts of the per-account reads and block deltas of the reader r, whose
// head decides which reads a lagging replica can be wrong about. It is safe
// for concurrent use, and — because decisions are keyed, not sequenced —
// deterministic under any interleaving: a logical read fails exactly its
// first Depth attempts, globally, no matter which goroutines issue them.
type Injector struct {
	r     chain.Reader
	sched Schedule

	mu        sync.Mutex
	plans     map[Read]*faultPlan
	activated int

	transient   atomic.Int64
	timeouts    atomic.Int64
	rateLimited atomic.Int64
	stale       atomic.Int64
}

// Stats returns the faults injected so far.
func (i *Injector) Stats() InjectorStats {
	i.mu.Lock()
	activated := int64(i.activated)
	i.mu.Unlock()
	return InjectorStats{
		Transient:      i.transient.Load(),
		Timeouts:       i.timeouts.Load(),
		RateLimited:    i.rateLimited.Load(),
		Stale:          i.stale.Load(),
		ActivatedReads: activated,
	}
}

// decide maps a key onto the profile's fault kinds by carving [0,1) into
// rate-sized bands. Pure function of (seed, key): no state, no lock.
func (i *Injector) decide(k Read, staleEligible bool) FaultKind {
	p := i.sched.Profile
	u := float64(k.hash(i.sched.Seed)>>11) / float64(1<<53)
	// The stale band comes first so its mass is stable for eligible reads;
	// ineligible reads let the band fall through to "no fault" rather than
	// re-rolling, keeping every other read's decision independent of
	// eligibility.
	bands := []struct {
		rate float64
		kind FaultKind
	}{
		{p.StaleRate, FaultStale},
		{p.TransientRate, FaultTransient},
		{p.TimeoutRate, FaultTimeout},
		{p.RateLimitRate, FaultRateLimit},
	}
	acc := 0.0
	for _, b := range bands {
		acc += b.rate
		if u < acc {
			if b.kind == FaultStale && !staleEligible {
				return FaultNone
			}
			return b.kind
		}
	}
	return FaultNone
}

// Fault is the injector as a FaultHook: it runs the fault decision for one
// attempt of one logical read, returning the injected error or nil for
// pass-through.
//
// The chain-level metadata reads (config, current-block, latest-header,
// header-by-number, contracts) always pass: in a real deployment headers
// are tiny and cacheable and contract lists come from an offline index,
// not per-contract RPC. Every other read is gated. Storage history and
// block deltas pinned within StaleLag of the head are also eligible for
// the stale-replica fault: a replica lagging k blocks answers any block ≤
// head−k identically (history is immutable), so only near-head reads can
// observe its staleness — and a block's logs and state diff are the one
// read a lagging replica is most often wrong about.
func (i *Injector) Fault(_ context.Context, k Read) error {
	var staleEligible bool
	switch k.Op {
	case "config", "current-block", "latest-header", "header-by-number", "contracts":
		return nil
	case "storage-at", "block-delta":
		staleEligible = i.nearHead(k.Block)
	}
	kind := i.decide(k, staleEligible)
	if kind == FaultNone {
		return nil
	}

	i.mu.Lock()
	plan, ok := i.plans[k]
	if !ok {
		plan = &faultPlan{kind: kind, depth: i.sched.Profile.Depth}
		if i.sched.Limit != NoLimit && i.activated >= i.sched.Limit {
			plan.vetoed = true
		} else {
			i.activated++
		}
		i.plans[k] = plan
	}
	fail := !plan.vetoed && plan.attempts < plan.depth
	if fail {
		plan.attempts++
	}
	i.mu.Unlock()

	if !fail {
		return nil
	}
	switch kind {
	case FaultTransient:
		i.transient.Add(1)
	case FaultTimeout:
		i.timeouts.Add(1)
	case FaultRateLimit:
		i.rateLimited.Add(1)
	case FaultStale:
		i.stale.Add(1)
	}
	return kind.err()
}

// nearHead reports whether a read pinned at block is within the profile's
// StaleLag of the head, and so eligible for the stale-replica fault. The
// head is read at every check: a followed chain's head moves.
func (i *Injector) nearHead(block uint64) bool {
	lag := i.sched.Profile.StaleLag
	return lag > 0 && block+lag > i.r.CurrentBlock()
}
