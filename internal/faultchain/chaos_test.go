package faultchain_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/gen/oracle"
	"repro/internal/proxion"
)

// chaosOpts returns client options tuned for test speed: full default retry
// budget, microsecond-scale backoff so hundreds of injected faults do not
// stretch the suite.
func chaosOpts() faultchain.Options {
	return faultchain.Options{
		BackoffBase: 50 * time.Microsecond,
		BackoffMax:  500 * time.Microsecond,
	}
}

// chaosSeeds returns the corpus seeds for the matrix: a pinned set on every
// run, trimmed under -short, extended by CHAOS_SWEEP=<n> for the nightly
// sweep (seeds disjoint from the pinned ones, mirroring ORACLE_SWEEP).
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 7, 42, 31337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	if env := os.Getenv("CHAOS_SWEEP"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("bad CHAOS_SWEEP=%q: %v", env, err)
		}
		for i := 0; i < n; i++ {
			seeds = append(seeds, int64(2_000_000+i))
		}
	}
	return seeds
}

// TestChaosMatrix is the headline chaos suite: every fault profile × every
// seed, all profiles below the retry budget, requiring byte-identical
// reports/pairs/histories against the fault-free run — with proof that the
// schedule actually injected faults and the client actually retried, and
// that the breaker never tripped (below the budget there are no terminal
// failures for it to count). CheckFaultParity recovers every proxy's logic
// history, so Algorithm 1's getStorageAt binary search sits in the blast
// radius (the stale-replica profile only bites near-head history reads):
// every profile must fault some storage-at read across its seeds.
func TestChaosMatrix(t *testing.T) {
	seeds := chaosSeeds(t)
	for _, p := range faultchain.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			var storageFaults int64
			for _, seed := range seeds {
				c := gen.Generate(gen.Config{Seed: seed})
				sched := faultchain.NewSchedule(p, seed*31+7)
				fr := oracle.CheckFaultParity(c, sched, chaosOpts(), proxion.AnalyzeOptions{})
				storageFaults += fr.StorageFaults
				if len(fr.Mismatches) > 0 {
					t.Errorf("profile %s: %s", p.Name, oracle.Format(c, fr.Mismatches))
				}
				if fr.Injected.Total() == 0 {
					t.Errorf("profile %s seed %d: schedule injected no faults — vacuous run", p.Name, seed)
				}
				if fr.Metrics.Retries == 0 {
					t.Errorf("profile %s seed %d: faults fired but the client never retried", p.Name, seed)
				}
				if fr.Metrics.BreakerTrips != 0 {
					t.Errorf("profile %s seed %d: breaker tripped %d times below the retry budget",
						p.Name, seed, fr.Metrics.BreakerTrips)
				}
			}
			if storageFaults == 0 {
				t.Errorf("profile %s faulted no storage-at read; Algorithm 1 stayed out of the blast radius", p.Name)
			}
		})
	}
}

// TestChaosAboveBudget drives fault depth past the retry budget: every
// contract must come back either identical to the fault-free baseline or
// explicitly Unresolved with the error attached, with nonzero retry and
// unresolved counters surfaced through Summarize. The breaker is disabled
// (huge threshold) so the Unresolved set is exactly the deterministically
// scheduled fault keys — run twice to pin that determinism.
func TestChaosAboveBudget(t *testing.T) {
	p := ErrBurstDeep()
	opts := chaosOpts()
	opts.BreakerThreshold = 1 << 30
	var prevUnresolved int64 = -1
	for run := 0; run < 2; run++ {
		c := gen.Generate(gen.Config{Seed: 7})
		fr := oracle.CheckFaultDegradation(c, faultchain.NewSchedule(p, 99), opts,
			proxion.AnalyzeOptions{})
		if len(fr.Mismatches) > 0 {
			t.Fatalf("%s", oracle.Format(c, fr.Mismatches))
		}
		sum := proxion.Summarize(fr.Result)
		if sum.Unresolved == 0 {
			t.Fatalf("deep faults above the retry budget produced no unresolved contracts")
		}
		if sum.Pipeline.Retries == 0 {
			t.Fatalf("summary surfaces no retries for a faulted run")
		}
		if sum.Pipeline.Unresolved != int64(sum.Unresolved) {
			t.Fatalf("pipeline counter %d disagrees with summary unresolved %d",
				sum.Pipeline.Unresolved, sum.Unresolved)
		}
		if prevUnresolved >= 0 && prevUnresolved != int64(sum.Unresolved) {
			t.Fatalf("unresolved set is nondeterministic: %d then %d", prevUnresolved, sum.Unresolved)
		}
		prevUnresolved = int64(sum.Unresolved)
	}
}

// ErrBurstDeep is the error-burst profile with depth past the default
// budget (5 attempts): every faulted read terminally fails.
func ErrBurstDeep() faultchain.Profile {
	p := faultchain.ErrorBurst()
	p.Depth = 32
	return p
}

// TestChaosOutage runs the everything-fails-forever profile: the breaker
// must trip, fail-fast rejections must keep the run bounded, every contract
// must come back Unresolved, and nothing may crash or be dropped.
func TestChaosOutage(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 3})
	fr := oracle.CheckFaultDegradation(c, faultchain.NewSchedule(faultchain.Outage(), 5),
		chaosOpts(), proxion.AnalyzeOptions{})
	if len(fr.Mismatches) > 0 {
		t.Fatalf("%s", oracle.Format(c, fr.Mismatches))
	}
	res := fr.Result
	if len(res.Reports) != len(c.Labels) {
		t.Fatalf("outage run reported %d contracts for %d labels", len(res.Reports), len(c.Labels))
	}
	for _, rep := range res.Reports {
		if !rep.Unresolved {
			t.Fatalf("contract %v resolved during a total outage: %q", rep.Address, rep.Reason)
		}
		if rep.ResolveErr == nil {
			t.Fatalf("unresolved contract %v carries no error", rep.Address)
		}
	}
	if fr.Metrics.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped during a total outage")
	}
	if fr.Metrics.FailFast == 0 {
		t.Fatalf("open breaker never rejected a read fail-fast")
	}
	if res.Stats.BreakerTrips == 0 {
		t.Fatalf("pipeline snapshot does not surface the breaker trips")
	}
}
