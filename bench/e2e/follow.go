package main

import (
	"fmt"
	"time"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/proxion"
	"repro/internal/watch"
)

// idleTail is how many empty blocks the traced walk appends after the
// scripted history. The script puts an event in nearly every block, but on
// a real chain nearly every block touches no followed proxy, so the idle
// poll needs blocks of its own to be measured on.
const idleTail = 32

// follow is follow-upgrades: one repetition replays a scripted upgrade
// timeline through a fresh follower, one block per poll.
type follow struct {
	tl *gen.Timeline
	// scripted is the last block of the generated history.
	scripted uint64
	// upgrades and deploys index the script by block.
	upgrades map[uint64][]gen.TimelineEvent
	deploys  map[uint64][]gen.TimelineEvent
	// f is the last repetition's follower, with its detector.
	f *watch.Follower
}

func newFollow(seed int64, scale int) (instance, error) {
	tl := gen.GenerateTimeline(gen.TimelineConfig{Seed: seed, Proxies: scaled(200, scale, 4)})
	w := &follow{
		tl:       tl,
		scripted: tl.End(),
		upgrades: make(map[uint64][]gen.TimelineEvent),
		deploys:  make(map[uint64][]gen.TimelineEvent),
	}
	for _, ev := range tl.Events {
		if ev.Deploy {
			w.deploys[ev.Block] = append(w.deploys[ev.Block], ev)
		} else {
			w.upgrades[ev.Block] = append(w.upgrades[ev.Block], ev)
		}
	}
	return w, nil
}

func (w *follow) ops() int     { return int(w.scripted) }
func (w *follow) start() error { return nil }
func (w *follow) close() error { return nil }

// replay follows blocks 1..last through a fresh follower, calling poll
// around each block's reveal-and-Poll. It returns the blocks whose
// deliveries contradict the script and the analysis counters.
func (w *follow) replay(last uint64, poll func(block uint64, do func())) (failed int, counters map[string]int64, err error) {
	evm.ResetDecodeCache()
	reader := faultchain.NewReplayReader(w.tl.Chain)
	var stats pipeline.Stats
	analyzer := watch.NewDetectorAnalyzer(proxion.NewDetector(reader), w.tl.Registry, nil)
	analyzer.Options.Stats = &stats

	var block uint64
	seenUpgrades := make(map[uint64][]watch.UpgradeEvent)
	seenDeploys := make(map[uint64][]proxion.Item)
	w.f, err = watch.New(watch.Config{
		Reader:    reader,
		Analyzer:  analyzer,
		OnUpgrade: func(ev watch.UpgradeEvent) { seenUpgrades[ev.Block] = append(seenUpgrades[ev.Block], ev) },
		OnDeploy:  func(it proxion.Item) { seenDeploys[block] = append(seenDeploys[block], it) },
	})
	if err != nil {
		return 0, nil, err
	}
	var upgradeEmulations int64
	for block = 1; block <= last; block++ {
		var perr error
		before := stats.Emulations.Load()
		poll(block, func() {
			reader.SetHead(block)
			perr = w.f.Poll()
		})
		if perr != nil {
			return 0, nil, fmt.Errorf("poll at block %d: %w", block, perr)
		}
		if len(w.upgrades[block]) > 0 {
			upgradeEmulations += stats.Emulations.Load() - before
		}
	}
	for b := uint64(1); b <= last; b++ {
		if !w.blockCorrect(b, seenUpgrades[b], seenDeploys[b]) {
			failed++
		}
	}
	fs := w.f.Stats()
	return failed, map[string]int64{
		"blocks_followed":    int64(fs.BlocksFollowed),
		"deployments_seen":   int64(fs.DeploymentsSeen),
		"upgrades_detected":  int64(fs.UpgradesDetected),
		"invalidations":      int64(fs.Invalidations),
		"reanalyses":         int64(fs.Reanalyses),
		"watched":            int64(fs.Watched),
		"emulations":         stats.Emulations.Load(),
		"upgrade_emulations": upgradeEmulations,
		"cache_hits":         stats.CacheHits.Load(),
		"structural_hits":    stats.StructuralHits.Load(),
		"static_summaries":   stats.StaticSummaries.Load(),
		"pairs_analyzed":     stats.PairsAnalyzed.Load(),
		"unresolved":         stats.Unresolved.Load(),
	}, nil
}

// blockCorrect checks one block's deliveries against the script: every
// scripted upgrade seen exactly once, at this block, re-analyzed to the
// scripted logic with the collision window open or closed as scripted, no
// unscripted upgrade, and every scripted proxy deployment reported as a
// proxy of its first logic.
func (w *follow) blockCorrect(b uint64, ups []watch.UpgradeEvent, deployed []proxion.Item) bool {
	if len(ups) != len(w.upgrades[b]) {
		return false
	}
	for _, want := range w.upgrades[b] {
		seen := 0
		for _, ev := range ups {
			if ev.Proxy != want.Proxy {
				continue
			}
			seen++
			if ev.Item == nil || ev.Item.Pair == nil ||
				!(verdict{isProxy: true, logic: want.Logic}).matches(want.Proxy, *ev.Item) {
				return false
			}
			pa := ev.Item.Pair
			if collides := len(pa.Functions) > 0 || len(pa.Storage) > 0; collides != want.Collides {
				return false
			}
		}
		if seen != 1 {
			return false
		}
	}
	for _, want := range w.deploys[b] {
		seen := 0
		for _, it := range deployed {
			if it.Report.Address == want.Proxy {
				seen++
				if !(verdict{isProxy: true, logic: want.Logic}).matches(want.Proxy, it) {
					return false
				}
			}
		}
		if seen != 1 {
			return false
		}
	}
	return true
}

// rep times each block from its reveal to Poll's return.
func (w *follow) rep(lat []int64) (repOutcome, error) {
	t0 := time.Now()
	var wall time.Duration
	failed, counters, err := w.replay(w.scripted, func(block uint64, do func()) {
		start := time.Now()
		do()
		lat[block-1] = int64(time.Since(start))
		wall = time.Since(t0)
	})
	return repOutcome{failed: failed, wall: wall, counters: counters}, err
}

func (w *follow) passes(*tracer, layerMetrics) (int, int, error) { return 0, 0, nil }

// walk replays the script plus an idle tail with one span per poll, named
// by what the script put in the block, and walks the engine layers over the
// end-state contracts.
func (w *follow) walk(tr *tracer, m layerMetrics) (attempted, failed int, err error) {
	if w.tl.End() == w.scripted {
		w.tl.Chain.AdvanceBlocks(idleTail)
	}
	last := w.tl.End()

	root := tr.begin(0, -1, "walk.blocks")
	wrong, k, err := w.replay(last, func(block uint64, do func()) {
		name := "watch.poll_idle"
		switch {
		case len(w.upgrades[block]) > 0:
			name = "watch.poll_upgrade"
		case len(w.deploys[block]) > 0:
			name = "watch.poll_deploy"
		}
		s := tr.begin(root, int(block), name)
		do()
		tr.end(s)
	})
	tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	addCacheCounters(m, k)
	m["watch.upgrades_detected"] = float64(k["upgrades_detected"])
	m["watch.invalidations"] = float64(k["invalidations"])
	m["watch.reanalyses"] = float64(k["reanalyses"])
	m["watch.emulations_per_upgrade"] = ratio(float64(k["upgrade_emulations"]), float64(k["upgrades_detected"]))

	c := &corpus{chain: w.tl.Chain, sources: w.tl.Registry, addrs: w.tl.Chain.Contracts()}
	c.want = make([]verdict, len(c.addrs))
	proxies := make(map[etypes.Address]etypes.Address, len(w.tl.Proxies))
	for _, p := range w.tl.Proxies {
		proxies[p.Address] = p.LogicAt(w.scripted)
	}
	for i, a := range c.addrs {
		if logic, ok := proxies[a]; ok {
			c.want[i] = verdict{isProxy: true, logic: logic}
		}
	}
	visited, wrongLayers := layerWalk(tr, m, c)
	return int(last) + visited, wrong + wrongLayers, nil
}
