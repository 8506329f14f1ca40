package oracle

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/proxion"
	"repro/internal/watch"
)

// WatchRun is the outcome of one watch-parity replay: the differential
// verdict, the follower's counters (what the CI watch job aggregates into
// its stats artifact), and the upgrade events it delivered.
type WatchRun struct {
	Mismatches []Mismatch
	Stats      watch.StatsSnapshot
	Events     []watch.UpgradeEvent
}

// WatchParity is the follower's differential oracle. It scripts an upgrade
// timeline (gen.GenerateTimeline), replays it block-by-block through a
// Follower — optionally behind a below-budget Mixed chaos client — and
// requires four properties:
//
//  1. Every scripted upgrade is detected exactly once, at its block, and
//     its re-analysis reports the pairing's ground-truth collision state:
//     a window injected mid-timeline is reported while open and reported
//     clear by the fixing upgrade's event.
//  2. For slot-kind proxies, the follower's log is the logic timeline: the
//     logics it delivered (the deployment's, then each upgrade's) and what
//     Algorithm 1, the slow path, recovers from the end state are both the
//     scripted steps' logics, in order.
//  3. Block-by-block following ends byte-identical to cold end-state
//     analysis: a fresh detector's full run over the final chain, and every
//     proxy's logic history on it, must match the follower's detector
//     re-running warm — and the warm run must emulate nothing, proving the
//     follower's incremental state is complete, not merely close.
//  4. After every block, the follower's own audit — the full enumerate-and-
//     read-every-cell scan — finds nothing the block-delta path missed.
func WatchParity(cfg gen.TimelineConfig, chaos bool) WatchRun {
	tl := gen.GenerateTimeline(cfg)
	replay := faultchain.NewReplayReader(tl.Chain)
	var reader chain.Reader = replay
	if chaos {
		sched := faultchain.NewSchedule(faultchain.Mixed(), cfg.Seed^0x5eed)
		client, _ := faultchain.NewResilientReader(replay, &sched, faultchain.Options{
			MaxRetries:  4,
			BackoffBase: 20 * time.Microsecond,
			BackoffMax:  200 * time.Microsecond,
		})
		reader = client
	}

	run := WatchRun{}
	bad := func(addr etypes.Address, format string, args ...any) {
		run.Mismatches = append(run.Mismatches, Mismatch{
			Addr: addr, Layer: "watch", Detail: fmt.Sprintf(format, args...)})
	}

	det := proxion.NewDetector(reader)
	// followed is each proxy's logics in the order the follower delivered them.
	followed := make(map[etypes.Address][]etypes.Address)
	f, err := watch.New(watch.Config{
		Reader:   reader,
		Analyzer: watch.NewDetectorAnalyzer(det, tl.Registry, nil),
		OnDeploy: func(it proxion.Item) {
			followed[it.Report.Address] = append(followed[it.Report.Address], it.Report.Logic)
		},
		OnUpgrade: func(ev watch.UpgradeEvent) {
			run.Events = append(run.Events, ev)
			if ev.Item != nil {
				followed[ev.Proxy] = append(followed[ev.Proxy], ev.Item.Report.Logic)
			}
		},
	})
	if err != nil {
		bad(etypes.Address{}, "follower construction failed: %v", err)
		return run
	}
	for h := uint64(1); h <= tl.End(); h++ {
		replay.SetHead(h)
		if err := f.Poll(); err != nil {
			bad(etypes.Address{}, "poll at height %d failed: %v", h, err)
			run.Stats = f.Stats()
			return run
		}
		if n, err := f.Audit(); n != 0 || err != nil {
			bad(etypes.Address{}, "audit at height %d found %d change(s) the delta path missed (err: %v)", h, n, err)
		}
	}
	run.Stats = f.Stats()

	// 1. Exactly-once upgrade detection with historically accurate verdicts.
	type evKey struct {
		block uint64
		proxy etypes.Address
	}
	observed := make(map[evKey][]watch.UpgradeEvent)
	for _, ev := range run.Events {
		observed[evKey{ev.Block, ev.Proxy}] = append(observed[evKey{ev.Block, ev.Proxy}], ev)
	}
	expected := 0
	for _, ge := range tl.Events {
		if ge.Deploy {
			continue
		}
		expected++
		evs := observed[evKey{ge.Block, ge.Proxy}]
		if len(evs) != 1 {
			bad(ge.Proxy, "scripted upgrade at block %d observed %d time(s), want exactly once", ge.Block, len(evs))
			continue
		}
		ev := evs[0]
		if ev.Item == nil || !ev.Item.Report.IsProxy {
			bad(ge.Proxy, "upgrade at block %d re-analyzed to a non-proxy verdict", ge.Block)
			continue
		}
		if ev.Item.Report.Logic != ge.Logic {
			bad(ge.Proxy, "upgrade at block %d resolved logic %v, scripted %v",
				ge.Block, ev.Item.Report.Logic.Hex(), ge.Logic.Hex())
		}
		if ev.Item.Pair == nil {
			bad(ge.Proxy, "upgrade at block %d carries no pair analysis", ge.Block)
			continue
		}
		if got := pairCollides(*ev.Item.Pair); got != ge.Collides {
			bad(ge.Proxy, "upgrade at block %d reported collision=%v, scripted window says %v",
				ge.Block, got, ge.Collides)
		}
	}
	if len(run.Events) != expected {
		bad(etypes.Address{}, "%d upgrade events delivered for %d scripted upgrades", len(run.Events), expected)
	}

	// 2. Slot-kind proxies: the log and Algorithm 1 give the scripted timeline.
	cold := proxion.NewDetector(tl.Chain)
	for _, tp := range tl.Proxies {
		if tp.Kind == gen.TimelineBeacon {
			continue
		}
		want := make([]etypes.Address, len(tp.Steps))
		for i, s := range tp.Steps {
			want[i] = s.Logic
		}
		if got := followed[tp.Address]; !slices.Equal(got, want) {
			bad(tp.Address, "follower delivered logics %v, scripted %v", got, want)
		}
		if got := cold.LogicHistory(tp.Address, tp.ImplSlot); !slices.Equal(got, want) {
			bad(tp.Address, "Algorithm 1 recovered logics %v, scripted %v", got, want)
		}
	}

	// 3. Final parity: warm follower detector vs cold end-state analysis,
	// with zero warm emulations. The cold baseline reads the chain directly
	// (fault-free even in chaos mode — the follower owes clean results
	// either way below the retry budget).
	var warmStats pipeline.Stats
	warm := det.AnalyzeAllWithOptions(tl.Registry, proxion.AnalyzeOptions{Stats: &warmStats})
	coldRes := cold.AnalyzeAll(tl.Registry)
	run.Mismatches = append(run.Mismatches, diffReports("watch", coldRes.Reports, warm.Reports)...)
	run.Mismatches = append(run.Mismatches, diffPairs("watch", coldRes.Pairs, warm.Pairs)...)
	if n := warmStats.Emulations.Load(); n != 0 {
		bad(etypes.Address{}, "warm end-state run re-emulated %d contract(s); the follower's incremental state is incomplete", n)
	}
	warmHist, re := Histories(det, warm.Reports, tl.Registry)
	if re != nil {
		bad(etypes.Address{}, "warm history read failed below the retry budget: %v", re)
	}
	coldHist, _ := Histories(cold, coldRes.Reports, tl.Registry)
	run.Mismatches = append(run.Mismatches, diffHistories("watch", coldHist, warmHist)...)
	return run
}

// pairCollides is the scripted ground truth's notion of a collision: any
// function or storage finding.
func pairCollides(pa proxion.PairAnalysis) bool {
	return len(pa.Functions) > 0 || len(pa.Storage) > 0
}

// CheckWatchParity runs the watch-parity oracle fault-free and under the
// below-budget Mixed chaos profile, seeded from the corpus config.
func CheckWatchParity(c *gen.Corpus) []Mismatch {
	out := WatchParity(gen.TimelineConfig{Seed: c.Config.Seed}, false).Mismatches
	out = append(out, WatchParity(gen.TimelineConfig{Seed: c.Config.Seed}, true).Mismatches...)
	return out
}
