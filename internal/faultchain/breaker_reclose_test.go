package faultchain_test

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/faultchain"
)

// These tests pin the circuit breaker's half-open protocol — the part of
// the client's lifecycle the long-running service leans on hardest, since
// a proxiond shard lives through many node outages, not one:
//
//   - a FAILED half-open probe must leave the breaker open and the
//     fail-fast path active (one bad probe must not let traffic through),
//   - a SUCCESSFUL probe must re-close it for all callers, and
//   - the re-closed breaker must be fully re-armed: a second outage trips
//     it again, counted as a second trip.

// breakerClient builds a client over a controllable down/up node with
// small, test-friendly breaker windows.
func breakerClient(accounts int) (*faultchain.Client, *flakyNode, []etypes.Address, faultchain.Options) {
	base, addrs := testChain(accounts)
	fb := &flakyNode{}
	opts := chaosOpts()
	opts.MaxRetries = 1
	opts.BreakerThreshold = 3
	opts.BreakerProbe = 4
	return faultchain.NewClient(base, fb.fault, opts), fb, addrs, opts
}

// tryRead performs one read, reporting whether it terminally failed.
func tryRead(cl *faultchain.Client, addr etypes.Address) (failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*chain.ReadError); !ok {
				panic(r)
			}
			failed = true
		}
	}()
	cl.GetState(addr, etypes.Hash{})
	return false
}

// tripBreaker drives the client to an open breaker against a down node.
func tripBreaker(t *testing.T, cl *faultchain.Client, addr etypes.Address, threshold int) {
	t.Helper()
	for i := 0; i < threshold; i++ {
		if !tryRead(cl, addr) {
			t.Fatalf("read %d succeeded against a down node", i)
		}
	}
	if !cl.BreakerOpen() {
		t.Fatalf("breaker still closed after %d consecutive terminal failures", threshold)
	}
}

// TestFailedProbeKeepsBreakerOpen: while the node stays down, the
// half-open probes that slip through the open breaker fail — and each
// failure must leave the breaker open, fail-fast still active, and the
// trip count at one (re-opening after a failed probe is not a new trip).
func TestFailedProbeKeepsBreakerOpen(t *testing.T) {
	cl, fb, addrs, opts := breakerClient(2)
	fb.down.Store(true)
	tripBreaker(t, cl, addrs[0], opts.BreakerThreshold)

	// Run through several whole probe windows: every read must fail
	// (probes against the still-down node fail, the rest fail fast).
	ffBefore := cl.Metrics().FailFast
	for i := 0; i < 3*opts.BreakerProbe; i++ {
		if !tryRead(cl, addrs[i%len(addrs)]) {
			t.Fatalf("read %d succeeded through an open breaker against a down node", i)
		}
		if !cl.BreakerOpen() {
			t.Fatalf("a failed half-open probe closed the breaker")
		}
	}
	m := cl.Metrics()
	if m.FailFast <= ffBefore {
		t.Fatalf("open breaker stopped failing fast after failed probes")
	}
	// 3 windows of BreakerProbe calls let exactly 3 probes through; the
	// rest fail fast without touching the node.
	if got, want := m.FailFast-ffBefore, int64(3*opts.BreakerProbe-3); got != want {
		t.Fatalf("fail-fast count %d, want %d (only probes may reach the node)", got, want)
	}
	if m.BreakerTrips != 1 {
		t.Fatalf("failed probes re-counted the trip: %d trips, want 1", m.BreakerTrips)
	}
}

// TestSuccessfulProbeReclosesForAllCallers: the node heals, one probe
// gets through, and from that moment every read — not just the prober's —
// flows normally again.
func TestSuccessfulProbeReclosesForAllCallers(t *testing.T) {
	cl, fb, addrs, opts := breakerClient(2)
	fb.down.Store(true)
	tripBreaker(t, cl, addrs[0], opts.BreakerThreshold)

	fb.down.Store(false)
	// Within one probe window, some read is the probe and closes it.
	closed := false
	for i := 0; i < opts.BreakerProbe; i++ {
		tryRead(cl, addrs[0])
		if !cl.BreakerOpen() {
			closed = true
			break
		}
	}
	if !closed {
		t.Fatalf("breaker still open a full probe window after the node healed")
	}
	// Post-close, reads succeed deterministically — no residual fail-fast.
	ff := cl.Metrics().FailFast
	for i := 0; i < 8; i++ {
		if tryRead(cl, addrs[i%len(addrs)]) {
			t.Fatalf("read %d failed after the breaker re-closed", i)
		}
	}
	if cl.Metrics().FailFast != ff {
		t.Fatalf("closed breaker still failing fast")
	}
}

// TestRecloseRearmsForSecondOutage: after a heal-and-re-close, the breaker
// is fully re-armed — a second outage must trip it again at the same
// threshold, and the trip counter must read two.
func TestRecloseRearmsForSecondOutage(t *testing.T) {
	cl, fb, addrs, opts := breakerClient(2)

	// First outage and recovery.
	fb.down.Store(true)
	tripBreaker(t, cl, addrs[0], opts.BreakerThreshold)
	fb.down.Store(false)
	for i := 0; i < opts.BreakerProbe && cl.BreakerOpen(); i++ {
		tryRead(cl, addrs[0])
	}
	if cl.BreakerOpen() {
		t.Fatalf("breaker did not re-close after the first outage healed")
	}
	if trips := cl.Metrics().BreakerTrips; trips != 1 {
		t.Fatalf("after first cycle: %d trips, want 1", trips)
	}

	// A healthy interval: successes must keep the consecutive-failure
	// counter at zero so the second outage needs the full threshold again.
	for i := 0; i < 5; i++ {
		if tryRead(cl, addrs[i%len(addrs)]) {
			t.Fatalf("healthy-interval read %d failed", i)
		}
	}

	// Second outage: one failure short of the threshold must NOT trip...
	fb.down.Store(true)
	for i := 0; i < opts.BreakerThreshold-1; i++ {
		tryRead(cl, addrs[0])
	}
	if cl.BreakerOpen() {
		t.Fatalf("breaker tripped below threshold on the second outage (stale failure count)")
	}
	// ...and the threshold-th failure must.
	tryRead(cl, addrs[0])
	if !cl.BreakerOpen() {
		t.Fatalf("breaker did not trip at threshold on the second outage")
	}
	if trips := cl.Metrics().BreakerTrips; trips != 2 {
		t.Fatalf("second outage counted %d trips, want 2", trips)
	}

	// And it recovers a second time, too.
	fb.down.Store(false)
	for i := 0; i < opts.BreakerProbe && cl.BreakerOpen(); i++ {
		tryRead(cl, addrs[0])
	}
	if cl.BreakerOpen() {
		t.Fatalf("breaker did not re-close after the second outage healed")
	}
}
