package oracle

import (
	"testing"
	"time"

	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// fastFaultOpts returns client options with microsecond backoff and an
// explicit retry budget, so the parity/degradation split below is pinned in
// the test rather than inherited from a default that might drift.
func fastFaultOpts() faultchain.Options {
	return faultchain.Options{
		MaxRetries:  4,
		BackoffBase: 20 * time.Microsecond,
		BackoffMax:  200 * time.Microsecond,
	}
}

// TestFaultParitySequential pins the sequential replay path the shrinker
// depends on: below the retry budget it must be mismatch-free, like the
// streaming chaos matrix.
func TestFaultParitySequential(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 6})
	sched := faultchain.NewSchedule(faultchain.ErrorBurst(), 17)
	if ms := CheckFaultParitySequential(c, sched, fastFaultOpts()); len(ms) > 0 {
		t.Fatalf("%s", Format(c, ms))
	}
}

// TestMinimizeFaultSchedule demonstrates fault-schedule shrinking end to
// end: an above-budget schedule breaks the sequential replay, and
// MinimizeSchedule isolates the smallest first-touch fault prefix that
// still reproduces — the single injected read failure to stare at.
func TestMinimizeFaultSchedule(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 5})
	deep := faultchain.ErrorBurst()
	deep.Depth = 32
	sched := faultchain.NewSchedule(deep, 23)
	fails := func(s faultchain.Schedule) bool {
		return len(CheckFaultParitySequential(c, s, fastFaultOpts())) > 0
	}

	if !fails(sched) {
		t.Fatalf("deep schedule did not break the sequential replay — nothing to shrink")
	}
	min, ok := faultchain.MinimizeSchedule(sched, fails)
	if !ok {
		t.Fatalf("MinimizeSchedule lost a failure it was handed")
	}
	if min.Limit < 1 {
		t.Fatalf("minimized limit %d: the failure needs at least one injected fault", min.Limit)
	}
	if !fails(min) {
		t.Fatalf("minimized schedule (limit %d) no longer reproduces", min.Limit)
	}
	if fails(min.WithLimit(min.Limit - 1)) {
		t.Fatalf("limit %d still fails — %d was not minimal", min.Limit-1, min.Limit)
	}
	t.Logf("shrunk unbounded schedule to %d faulted read(s)", min.Limit)

	// A schedule that doesn't fail must come back ok=false, unshrunk.
	if _, ok := faultchain.MinimizeSchedule(sched.WithLimit(0), fails); ok {
		t.Fatalf("MinimizeSchedule invented a failure from a fault-free schedule")
	}
}

// FuzzFaultSchedule lets the fuzzer drive corpus seed, fault seed, profile
// and fault depth through the resilience stack. Depth at or below the retry
// budget must yield byte-identical results; depth above it must degrade to
// explicit Unresolved reports — and nothing may ever crash.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), int64(7), uint8(0), uint8(2))
	f.Add(int64(2), int64(11), uint8(3), uint8(1))
	f.Add(int64(3), int64(13), uint8(4), uint8(6))
	f.Add(int64(-42), int64(0), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, corpusSeed, faultSeed int64, profileIdx, depth uint8) {
		profiles := faultchain.Profiles()
		p := profiles[int(profileIdx)%len(profiles)]
		p.Depth = 1 + int(depth%8)
		copts := fastFaultOpts()

		c := gen.Generate(gen.Config{Seed: corpusSeed, Contracts: 12})
		sched := faultchain.NewSchedule(p, faultSeed)
		opts := proxion.AnalyzeOptions{}
		var fr FaultRun
		if p.Depth <= copts.MaxRetries {
			fr = CheckFaultParity(c, sched, copts, opts)
		} else {
			fr = CheckFaultDegradation(c, sched, copts, opts)
		}
		if len(fr.Mismatches) > 0 {
			t.Fatalf("profile %s depth %d: %s", p.Name, p.Depth, Format(c, fr.Mismatches))
		}
	})
}
