package oracle

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"

	"repro/internal/chain"
	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// FaultRun is the outcome of one faulted analysis next to its fault-free
// baseline: the differential verdict plus the resilience activity behind
// it, so chaos tests can assert both "results survived" and "faults
// actually fired".
type FaultRun struct {
	// Mismatches is the differential verdict; empty means the comparison
	// held.
	Mismatches []Mismatch
	// Injected is what the fault injector actually did.
	Injected faultchain.InjectorStats
	// StorageFaults counts failing attempts served to storage-at reads.
	StorageFaults int64
	// Metrics is the resilient client's counter snapshot.
	Metrics faultchain.Metrics
	// Result is the faulted run's output.
	Result *proxion.Result
}

// analyzeFaulted runs the streaming engine over the corpus through a
// fault-injecting resilient client, whose hook also counts the failing
// attempts it serves to storage-at reads into storageFaults.
func analyzeFaulted(c *gen.Corpus, sched faultchain.Schedule, copts faultchain.Options, opts proxion.AnalyzeOptions, storageFaults *atomic.Int64) (*proxion.Detector, *proxion.Result, *faultchain.Client, *faultchain.Injector) {
	inj := faultchain.NewInjector(c.Chain, sched)
	client := faultchain.NewClient(c.Chain, func(ctx context.Context, r faultchain.Read) error {
		err := inj.Fault(ctx, r)
		if err != nil && r.Op == "storage-at" {
			storageFaults.Add(1)
		}
		return err
	}, copts)
	d := proxion.NewDetector(client)
	return d, d.AnalyzeAllWithOptions(c.Registry, opts), client, inj
}

// diffDeltas reads every block's delta through the faulted client and
// compares it with the chain's own: the follower's one block-level read
// must come through the resilience stack whole or not at all. A read that
// terminally fails is a mismatch only when mustResolve says the schedule
// stays below the retry budget.
func diffDeltas(c *gen.Corpus, client *faultchain.Client, mustResolve bool) []Mismatch {
	var out []Mismatch
	for b := uint64(0); b <= c.Chain.CurrentBlock(); b++ {
		var got chain.BlockDelta
		if re := chain.CaptureReadError(func() { got = client.BlockDelta(b) }); re != nil {
			if mustResolve {
				out = append(out, Mismatch{Layer: "faults",
					Detail: fmt.Sprintf("block-delta read of block %d unresolved below the retry budget: %v", b, re)})
			}
			continue
		}
		if want := c.Chain.BlockDelta(b); !reflect.DeepEqual(got, want) {
			out = append(out, Mismatch{Layer: "faults",
				Detail: fmt.Sprintf("block %d delta differs through the faulted client:\n    a: %+v\n    b: %+v", b, want, got)})
		}
	}
	return out
}

// formatHistory renders a historical analysis for differential comparison.
func formatHistory(h proxion.HistoricalAnalysis) string {
	var b strings.Builder
	b.WriteString(h.Proxy.Hex())
	for _, pa := range h.Pairs {
		b.WriteString(" [" + formatPair(pa) + "]")
	}
	return b.String()
}

// diffHistories compares two runs' histories, each one per detected proxy
// in report order (Histories).
func diffHistories(layer string, a, b []proxion.HistoricalAnalysis) []Mismatch {
	if len(a) != len(b) {
		return []Mismatch{{Layer: layer, Detail: fmt.Sprintf("%d histories vs %d", len(a), len(b))}}
	}
	var out []Mismatch
	for i := range a {
		if fa, fb := formatHistory(a[i]), formatHistory(b[i]); fa != fb {
			out = append(out, Mismatch{Addr: b[i].Proxy, Layer: layer,
				Detail: fmt.Sprintf("histories differ:\n    a: %s\n    b: %s", fa, fb)})
		}
	}
	return out
}

// CheckFaultParity is the faults-on/faults-off differential: it runs the
// streaming engine, then every detected proxy's AnalyzePairHistory,
// fault-free and through a fault-injecting resilient client, and requires
// byte-identical reports, pairs and histories plus matching logical
// getStorageAt counts over the history calls — the guarantee the resilience
// layer owes whenever the schedule's fault depth stays below the client's
// retry budget. Any Unresolved contract or history in that regime is itself
// a mismatch, and so is a block delta that does not come through identical.
func CheckFaultParity(c *gen.Corpus, sched faultchain.Schedule, copts faultchain.Options, opts proxion.AnalyzeOptions) FaultRun {
	baseDet := proxion.NewDetector(c.Chain)
	base := baseDet.AnalyzeAllWithOptions(c.Registry, opts)
	var storageFaults atomic.Int64
	d, res, client, inj := analyzeFaulted(c, sched, copts, opts, &storageFaults)

	out := diffReports("faults", base.Reports, res.Reports)
	out = append(out, diffPairs("faults", base.Pairs, res.Pairs)...)
	if n := res.Stats.Unresolved; n != 0 {
		out = append(out, Mismatch{Layer: "faults",
			Detail: fmt.Sprintf("%d contract(s) unresolved below the retry budget", n)})
	}
	// The chain counts the client's attempts too: count around each side.
	calls := c.Chain.APICalls()
	baseHist, _ := Histories(baseDet, base.Reports, c.Registry)
	baseCalls := c.Chain.APICalls() - calls
	calls = client.APICalls()
	hist, re := Histories(d, res.Reports, c.Registry)
	if re != nil {
		out = append(out, Mismatch{Layer: "faults",
			Detail: fmt.Sprintf("history unresolved below the retry budget: %v", re)})
	}
	out = append(out, diffHistories("faults", baseHist, hist)...)
	if a, b := baseCalls, client.APICalls()-calls; a != b {
		out = append(out, Mismatch{Layer: "faults",
			Detail: fmt.Sprintf("logical getStorageAt counts diverge under retries: fault-free %d vs faulted %d", a, b)})
	}
	out = append(out, diffDeltas(c, client, true)...)
	return FaultRun{Mismatches: out, Injected: inj.Stats(), StorageFaults: storageFaults.Load(),
		Metrics: client.Metrics(), Result: res}
}

// CheckFaultDegradation is the above-budget invariant: when fault depth
// exceeds the retry budget, every contract must either match the fault-free
// baseline exactly or be explicitly Unresolved with the error attached —
// never silently wrong, never missing from the totals.
func CheckFaultDegradation(c *gen.Corpus, sched faultchain.Schedule, copts faultchain.Options, opts proxion.AnalyzeOptions) FaultRun {
	base := proxion.NewDetector(c.Chain).AnalyzeAllWithOptions(c.Registry, opts)
	_, res, client, inj := analyzeFaulted(c, sched, copts, opts, new(atomic.Int64))

	var out []Mismatch
	if len(res.Reports) != len(base.Reports) {
		out = append(out, Mismatch{Layer: "faults",
			Detail: fmt.Sprintf("faulted run dropped contracts: %d reports vs %d", len(res.Reports), len(base.Reports))})
		return FaultRun{Mismatches: out, Injected: inj.Stats(), Metrics: client.Metrics(), Result: res}
	}
	unresolved := 0
	for i, rep := range res.Reports {
		if rep.Address != base.Reports[i].Address {
			out = append(out, Mismatch{Addr: rep.Address, Layer: "faults",
				Detail: fmt.Sprintf("report order diverges at %d", i)})
			continue
		}
		if rep.Unresolved {
			unresolved++
			if rep.ResolveErr == nil {
				out = append(out, Mismatch{Addr: rep.Address, Layer: "faults",
					Detail: "unresolved report carries no error"})
			}
			continue
		}
		if fa, fb := formatReport(base.Reports[i]), formatReport(rep); fa != fb {
			out = append(out, Mismatch{Addr: rep.Address, Layer: "faults",
				Detail: fmt.Sprintf("resolved report differs from fault-free baseline:\n    a: %s\n    b: %s", fa, fb)})
		}
	}
	// Pairs the faulted run did complete must match the baseline's.
	basePairs := make(map[string]string)
	for _, pa := range base.Pairs {
		basePairs[pa.Proxy.Hex()] = formatPair(pa)
	}
	for _, pa := range res.Pairs {
		want, ok := basePairs[pa.Proxy.Hex()]
		if !ok {
			out = append(out, Mismatch{Addr: pa.Proxy, Layer: "faults",
				Detail: "faulted run produced a pair absent from the fault-free baseline"})
			continue
		}
		if got := formatPair(pa); got != want {
			out = append(out, Mismatch{Addr: pa.Proxy, Layer: "faults",
				Detail: fmt.Sprintf("completed pair differs from fault-free baseline:\n    a: %s\n    b: %s", want, got)})
		}
	}
	if int64(unresolved) != res.Stats.Unresolved {
		out = append(out, Mismatch{Layer: "faults",
			Detail: fmt.Sprintf("stats count %d unresolved, reports carry %d", res.Stats.Unresolved, unresolved)})
	}
	out = append(out, diffDeltas(c, client, false)...)
	return FaultRun{Mismatches: out, Injected: inj.Stats(), Metrics: client.Metrics(), Result: res}
}

// CheckFaultParitySequential is CheckFaultParity over the sequential
// detection path (one Check per contract, in chain order) instead of the
// streaming engine. Being single-threaded, the injector's first-touch fault
// order is fully deterministic, which makes this the replay to hand to
// faultchain.MinimizeSchedule: a failing schedule shrinks to the minimal
// Limit that still reproduces.
func CheckFaultParitySequential(c *gen.Corpus, sched faultchain.Schedule, copts faultchain.Options) []Mismatch {
	ref := SequentialReference(c)
	client, _ := faultchain.NewResilientReader(c.Chain, &sched, copts)
	d := proxion.NewDetector(client)
	got := &Reference{}
	for _, addr := range c.Chain.Contracts() {
		rep := d.Check(addr)
		got.Reports = append(got.Reports, rep)
		if rep.IsProxy {
			// Above the budget a pair analysis can terminally fail; it then
			// surfaces as a missing pair in the diff rather than a crash.
			var pa proxion.PairAnalysis
			if re := chain.CaptureReadError(func() { pa = d.AnalyzePair(addr, rep.Logic, c.Registry) }); re == nil {
				got.Pairs = append(got.Pairs, pa)
			}
		}
	}
	out := diffReports("faults-seq", ref.Reports, got.Reports)
	out = append(out, diffPairs("faults-seq", ref.Pairs, got.Pairs)...)
	return out
}
