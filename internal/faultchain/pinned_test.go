package faultchain_test

import (
	"testing"

	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// pinnedFaults is what one profile does to the fixed corpus of
// TestFaultScheduleIsPinned: the faults the injector served, the client's
// resilience counters and its logical getStorageAt count.
type pinnedFaults struct {
	injected faultchain.InjectorStats
	metrics  faultchain.Metrics
	apiCalls int64
}

// TestFaultScheduleIsPinned holds every chaos profile's fault schedule
// over one fixed corpus to recorded counts. Fault decisions are keyed by
// the logical read, so one worker or many, the same reads fault the same
// number of times; a change to how reads reach the injector — a read that
// skips it, a key built differently, a second consultation per attempt —
// moves these numbers.
func TestFaultScheduleIsPinned(t *testing.T) {
	type (
		st = faultchain.InjectorStats
		mt = faultchain.Metrics
	)
	// A change that means to move these counts says why.
	want := map[string]pinnedFaults{
		"error-burst":   {st{Transient: 116, ActivatedReads: 58}, mt{Retries: 116}, 84},
		"slow-node":     {st{Timeouts: 96, ActivatedReads: 48}, mt{Retries: 96, Timeouts: 96}, 84},
		"rate-limit":    {st{RateLimited: 210, ActivatedReads: 70}, mt{Retries: 210, RateLimited: 210}, 84},
		"stale-replica": {st{Stale: 76, ActivatedReads: 38}, mt{Retries: 76}, 84},
		"mixed": {st{Transient: 32, Timeouts: 28, RateLimited: 34, Stale: 54, ActivatedReads: 74},
			mt{Retries: 148, Timeouts: 28, RateLimited: 34}, 84},
	}
	for _, p := range faultchain.Profiles() {
		c := gen.Generate(gen.Config{Seed: 5})
		sched := faultchain.NewSchedule(p, 21)
		cl, inj := faultchain.NewResilientReader(c.Chain, &sched, chaosOpts())
		proxion.NewDetector(cl).AnalyzeAllWithOptions(c.Registry,
			proxion.AnalyzeOptions{Workers: 1, WithHistory: true})
		got := pinnedFaults{injected: inj.Stats(), metrics: cl.Metrics(), apiCalls: cl.APICalls()}
		if got != want[p.Name] {
			t.Errorf("%s: %#v, pinned %#v", p.Name, got, want[p.Name])
		}
	}
}
