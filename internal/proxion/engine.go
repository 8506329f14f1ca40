package proxion

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/pipeline"
)

// resilienceSource is the structural shape of a chain.Reader that tracks
// its own retry/breaker activity (the faultchain resilient client). The
// engine discovers it by type assertion so this package stays free of a
// faultchain dependency.
type resilienceSource interface {
	ResilienceCounters() (retries, breakerTrips int64)
}

// AnalyzeOptions tunes an analysis: a stream, or a single AnalyzeAddress
// call, which ignores Workers and Window. The zero value selects production
// defaults: one worker per processor, the bytecode-dedup cache on, a
// reorder window of DefaultWindow contracts, unbounded per-bytecode caches.
type AnalyzeOptions struct {
	// Workers is the number of goroutines analyzing contracts, each taking
	// one address at a time through every step; zero means GOMAXPROCS. The
	// work is CPU-bound: a worker without a processor only delays the
	// verdicts queued behind its contract.
	Workers int
	// Window bounds the number of contracts in flight at once: pulled from
	// the source but not yet emitted to the sink. It is the engine's whole
	// memory bound — peak usage of a streaming run does not grow with
	// corpus size — and the bound on how far a worker runs ahead of a peer
	// holding a slow contract. Zero means DefaultWindow(Workers).
	Window int
	// CacheCapacity bounds everything the detector keeps per bytecode —
	// the per-bytecode records (verdict and facets; logic contracts too)
	// and the structural clone families — to at most this many entries
	// each, evicted least-recently-used. Zero keeps them unbounded (every
	// unique bytecode is remembered for the whole run — fine for batch
	// runs, not for million-contract streams).
	CacheCapacity int
	// DisableStructural turns off the second-level structural-fingerprint
	// promotion, keeping only the exact bytecode-hash dedup: near-clones
	// (EIP-1167 stamps, compiler twins) are each emulated once instead of
	// being promoted from their family exemplar.
	DisableStructural bool
	// Stats, when non-nil, is the externally-owned counter set the run
	// updates instead of a private one, and any number of calls may share
	// one set. A single AnalyzeAddress call counts into it as it goes, so a
	// caller may read it live while such calls are in flight — how a
	// long-running query service counts its single-address analyses. A
	// stream's workers each count into a set of their own and add it into
	// Stats when they exit, so a stream's counts arrive as its workers
	// finish, all of them before AnalyzeStream returns; its final Snapshot
	// is taken from Stats then.
	Stats *pipeline.Stats
}

// DefaultWindow is the window AnalyzeStream uses when AnalyzeOptions.Window
// is zero, for the given AnalyzeOptions.Workers (zero meaning GOMAXPROCS
// there as here). Every item a worker finishes while a peer is held up
// waits for that peer, so the window is as small as throughput allows
// (flat from 32 to 4,096; p90 latency 0.02 ms at 128, 1–4.5 ms at 4,096:
// EXPERIMENTS.md). Callers that size something of their own from the
// engine's window (a generator's retirement lag) take it from here.
func DefaultWindow(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return 64 * workers
}

// AnalyzeAll runs the full streaming analysis over every alive contract:
// disassembly filter → emulation probe (bytecode-deduplicated) →
// classification → pair collision analysis, contracts spread over
// concurrent workers with no barrier between detection and collision
// analysis. Results keep the chain's deterministic contract order.
func (d *Detector) AnalyzeAll(sources SourceProvider) *Result {
	return d.AnalyzeAllWithOptions(sources, AnalyzeOptions{})
}

// AnalyzeAllWithOptions is AnalyzeAll with explicit engine tuning. If even
// the contract enumeration fails terminally (node down before the run
// started), the result is an empty — not partial, not panicking — run.
func (d *Detector) AnalyzeAllWithOptions(sources SourceProvider, opts AnalyzeOptions) *Result {
	var addrs []etypes.Address
	chain.CaptureReadError(func() { addrs = d.chain.Contracts() })
	sink := NewCollectSink()
	snap := d.AnalyzeStream(SliceSource(addrs), sources, sink, opts)
	res := sink.Result()
	res.Stats = snap
	return res
}

// The analysis steps of one contract, in execution order: indices into a
// worker's stageClock and the names of the run's stage rows.
const (
	stageFilter = iota
	stageProbe
	stageClassify
	stagePair
	numStages
)

var stageNames = [numStages]string{
	"disasm-filter", "emulation-probe", "classification", "pair-analysis",
}

// sampleEvery is how many items a worker starts per item whose stages its
// stageClock times: four or five clock reads per contract were 5 % of the
// worker CPU of a clone-heavy scan, whose contracts take a few µs each.
const sampleEvery = 16

// stageClock is one worker's private per-stage accounting, summed into the
// run's Snapshot.Stages once every worker has exited. It counts every item
// of a stage but reads the clock for the worker's 1st, 17th, 33rd … item
// only, and for the first item that enters a stage the worker has not yet
// timed, so every row with items has a sample; a row's busy time is its
// timed busy time scaled by processed ÷ timed.
type stageClock struct {
	items int64 // items the worker has started
	rows  [numStages]struct {
		processed, timed int64
		busy             time.Duration
	}
}

// start begins one item in the first stage and returns its start reading,
// or the zero time when the item is not sampled. A nil clock (a single
// call, which has no stage rows) reads no time at all.
func (c *stageClock) start() time.Time {
	if c == nil {
		return time.Time{}
	}
	c.items++
	if (c.items-1)%sampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

// stop closes stage for one item that entered it at since — timed unless
// since is zero — and returns the closing reading, or the zero time.
func (c *stageClock) stop(stage int, since time.Time) time.Time {
	if c == nil {
		return since
	}
	row := &c.rows[stage]
	row.processed++
	if since.IsZero() {
		return since
	}
	now := time.Now()
	row.timed++
	row.busy += now.Sub(since)
	return now
}

// lap closes stage for an item that goes on to the next stage and returns
// the next stage's start: the same reading when the item is timed, a fresh
// one when the next stage has no sample yet, the zero time otherwise.
func (c *stageClock) lap(stage int, since time.Time) time.Time {
	now := c.stop(stage, since)
	if c != nil && now.IsZero() && c.rows[stage+1].timed == 0 {
		return time.Now()
	}
	return now
}

// analysis is what one call fixes for every contract it analyzes.
type analysis struct {
	d       *Detector
	opts    AnalyzeOptions // Stats never nil
	sources SourceProvider
}

func (d *Detector) newAnalysis(sources SourceProvider, opts AnalyzeOptions) analysis {
	d.configure(opts)
	if opts.Stats == nil {
		opts.Stats = new(pipeline.Stats)
	}
	return analysis{d: d, opts: opts, sources: sources}
}

// AnalyzeAddress is the one way a contract is analyzed: it runs addr to
// completion on the caller's goroutine — filter, probe, classification, then
// pair analysis for a detected proxy — and returns the finished
// item (Index 0). AnalyzeStream's workers call the same code, so a stream
// and a loop of single calls produce the same items and count alike in
// opts.Stats, except for what only a stream has: Workers and Window are not
// used, no per-stage rows exist, and the reader's own counters are the
// caller's to take (ReaderCounters, CountReads). Safe for concurrent use on
// one detector.
func (d *Detector) AnalyzeAddress(addr etypes.Address, sources SourceProvider, opts AnalyzeOptions) Item {
	r := d.newAnalysis(sources, opts)
	return r.analyze(addr, r.opts.Stats, nil)
}

// ReaderCounters is one reading of the node surface's own monotonic
// counters: logical getStorageAt calls and, when the reader is a resilient
// client, its read re-attempts and closed→open breaker transitions.
type ReaderCounters struct {
	storageCalls, retries, breakerTrips int64
}

// ReaderCounters reads the detector's node surface's counters.
func (d *Detector) ReaderCounters() ReaderCounters {
	c := ReaderCounters{storageCalls: d.chain.APICalls()}
	if resil, ok := d.chain.(resilienceSource); ok {
		c.retries, c.breakerTrips = resil.ResilienceCounters()
	}
	return c
}

// CountReads sets snap's reader-side counters to what the node surface has
// counted since base was read: a stream's whole run, a server's lifetime.
func (d *Detector) CountReads(snap *pipeline.Snapshot, base ReaderCounters) {
	now := d.ReaderCounters()
	snap.StorageAPICalls = now.storageCalls - base.storageCalls
	snap.Retries = now.retries - base.retries
	snap.BreakerTrips = now.breakerTrips - base.breakerTrips
}

// AnalyzeStream is the whole-chain analysis path of the scans, experiments
// and the CLI: opts.Workers identical goroutines each take one address from
// src, analyze it as AnalyzeAddress does, and hand the finished Item to a
// reorder window of opts.Window contracts — the run's whole memory bound,
// whatever the corpus size — from which sink receives one item per
// contract, in source order. DESIGN.md "Pipeline architecture" has the model
// and its reasons.
func (d *Detector) AnalyzeStream(src AddressSource, sources SourceProvider, sink ReportSink, opts AnalyzeOptions) *pipeline.Snapshot {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow(workers)
	}
	run := d.newAnalysis(sources, opts)
	tracker := newStreamTracker(window, src, sink)
	before := d.ReaderCounters()

	start := time.Now()
	clocks := make([]stageClock, workers)
	var wg sync.WaitGroup
	for w := range clocks {
		// One worker: pull an address, analyze it to completion, repeat until
		// the source is exhausted. The clock and the counters are the
		// worker's own until it exits, so the per-item path writes nothing
		// another worker reads but the window (stream.go).
		wg.Add(1)
		go func() {
			defer wg.Done()
			var clock stageClock
			var stats pipeline.Stats
			for idx, addr, ok := tracker.pull(); ok; idx, addr, ok = tracker.pull() {
				it := run.analyze(addr, &stats, &clock)
				it.Index = idx
				tracker.deliver(it)
			}
			clocks[w] = clock
			run.opts.Stats.Add(&stats)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	snap := run.opts.Stats.Snapshot()
	snap.WallMS = float64(wall.Microseconds()) / 1000
	if secs := wall.Seconds(); secs > 0 {
		snap.ContractsPerSec = float64(snap.Contracts) / secs
	}
	for st, name := range stageNames {
		row := pipeline.StageSnapshot{Name: name, Workers: workers}
		var busy time.Duration
		var timed int64
		for _, c := range clocks {
			row.Processed += c.rows[st].processed
			timed += c.rows[st].timed
			busy += c.rows[st].busy
		}
		if timed > 0 {
			row.BusyMS = float64(busy) / 1e6 * float64(row.Processed) / float64(timed)
		}
		snap.Stages = append(snap.Stages, row)
	}
	d.CountReads(snap, before)
	return snap
}

// analyze runs one contract through every step it needs; a terminal read
// failure in any step degrades the contract to Unresolved (Reader contract),
// the first failure kept. It counts into stats; clock, when not nil,
// accounts the steps' time.
func (r *analysis) analyze(addr etypes.Address, stats *pipeline.Stats, clock *stageClock) (it Item) {
	d := r.d
	stats.Scanned.Add(1)
	defer func() {
		if it.Report.Unresolved {
			stats.Unresolved.Add(1)
		}
	}()
	now := clock.start()

	code, verdict, probe := r.filter(addr, stats)
	if !probe {
		clock.stop(stageFilter, now)
		return Item{Report: verdict}
	}
	now = clock.lap(stageFilter, now)

	rep := &it.Report
	var art *artifact
	*rep, art = r.probe(addr, code, stats)
	now = clock.lap(stageProbe, now)

	// Classification (Table 4).
	if rep.IsProxy {
		rep.Standard = classify(code, *rep)
		stats.ProxiesDetected.Add(1)
	}
	if !rep.IsProxy || rep.Logic.IsZero() {
		clock.stop(stageClassify, now)
		return it
	}
	now = clock.lap(stageClassify, now)

	// Pair collision analysis (Section 5), over the code and the record the
	// filter and the probe already fetched.
	var pa PairAnalysis
	if re := chain.CaptureReadError(func() { pa = d.analyzePair(addr, code, art, rep.Logic, r.sources) }); re != nil {
		markUnresolved(rep, re)
	} else {
		stats.PairsAnalyzed.Add(1)
		it.Pair = &pa
	}
	clock.stop(stagePair, now)
	return it
}

// filter is the disassembly filter (Section 4.1): it returns the runtime
// code of a contract worth probing, or the final report of one that is not
// — no code or no DELEGATECALL opcode, rejected without an emulation.
func (r *analysis) filter(addr etypes.Address, stats *pipeline.Stats) (code []byte, rep Report, probe bool) {
	if re := chain.CaptureReadError(func() { code = r.d.chain.Code(addr) }); re != nil {
		return nil, unresolvedReport(addr, re), false
	}
	switch {
	case len(code) == 0:
		stats.NoCode.Add(1)
		return nil, Report{Address: addr, Reason: "no code at address"}, false
	case !disasm.ContainsOp(code, evm.DELEGATECALL):
		stats.FilterRejected.Add(1)
		return nil, Report{Address: addr, Reason: "bytecode contains no DELEGATECALL opcode"}, false
	}
	return code, Report{}, true
}

// probe is the emulation probe (Section 4.2): one emulation per *unique*
// runtime bytecode thanks to the verdict cache, and one per *structural
// family* of cleanly forwarding near-clones thanks to the second-level
// structural index. It also returns the bytecode's record, which the pair
// stage reuses; nil when a read failed.
func (r *analysis) probe(addr etypes.Address, code []byte, stats *pipeline.Stats) (rep Report, art *artifact) {
	d := r.d
	re := chain.CaptureReadError(func() {
		codeHash := d.chain.CodeHash(addr)
		art = d.artifacts.of(codeHash)
		var tr probeTrace
		rep, tr = d.checkRecord(art, addr, code, codeHash)
		switch tr.source {
		case sourceExactHit:
			stats.CacheHits.Add(1)
		case sourceStructuralHit:
			stats.CacheHits.Add(1)
			stats.StructuralHits.Add(1)
		default:
			stats.Emulations.Add(1)
		}
		stats.StaticSummaries.Add(int64(tr.summaries))
		if tr.rejected {
			stats.StructuralRejects.Add(1)
		}
	})
	if re != nil {
		return unresolvedReport(addr, re), nil
	}
	if rep.EmulationErr != nil {
		stats.EmulationAborts.Add(1)
	}
	return rep, art
}
